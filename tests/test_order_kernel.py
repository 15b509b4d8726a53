"""The ball order relation against the generic order, and the batched WQL scan.

Each family's ``order_matrix(xs, ys)`` hook fills ``Ball.order()`` (xs = ys
= the ball), single ball rows (one x) and rectangular blocks; these tests
compare it with the base formula ``is_positive(mul(inv(x), y))`` called
unbound, so a family override cannot hide behind itself.  The batched WQL
scan is compared in the same way with a per-candidate reference scan; its
reports are pinned in ``tests/golden.txt``.
"""

import random

import numpy as np
import pytest

from wqlat import order, words
from wqlat.order import DirectSum, IntGroup, JoinResult, Presentation, check_weak_ql, oracle_join
from wqlat.presets import get_presentation
from wqlat.words import FreeGroup, is_positive_word, positive_quotients, word_inv, word_mul

from conftest import README_PRESETS, ball_of, pres_of, short

KERNEL_PRESETS = (
    "free:2",
    "scarparo",
    "bs:2,3",
    "bs:2,-3",
    "hnn+:x,y@x,y",
    "hnn-:x,y@x,y",
    "graph:path3",
    "sd:perm3",
    "sd:phi-ab",
    "sd:nonexample",
)


def generic_matrix(pres, xs, ys=None):
    ys = xs if ys is None else ys
    return np.array([[Presentation.leq(pres, x, y) for y in ys] for x in xs], dtype=bool).reshape(len(xs), len(ys))


class TestOrderMatrix:
    @pytest.mark.parametrize("name", KERNEL_PRESETS)
    def test_matches_generic_order(self, name):
        ball = ball_of(name, 3)
        assert np.array_equal(ball.order(), generic_matrix(pres_of(name), ball)), name

    @pytest.mark.parametrize(
        "pres", [IntGroup(), DirectSum((IntGroup(), FreeGroup(2, ("a", "b"))))], ids=["int", "directsum"]
    )
    def test_int_and_direct_sum(self, pres):
        ball = pres.enumerate_ball(3)
        assert np.array_equal(ball.order(), generic_matrix(pres, ball))

    def test_rows_memoised_read_only_and_shared_with_order(self):
        ball = pres_of("sd:phi-ab").enumerate_ball(2)
        row = ball.leq_row(1)
        assert ball.leq_row(1) is row and not row.flags.writeable
        rel = ball.order()
        assert ball.order() is rel and not rel.flags.writeable
        assert np.array_equal(rel[1], row)
        # After order() every row, filled before or not, is a row of it.
        for i in range(len(ball)):
            served = ball.leq_row(i)
            assert not served.flags.writeable and np.shares_memory(served, rel)
            assert np.array_equal(served, rel[i])


RECT_EXTRA = {"int": IntGroup(), "directsum": DirectSum((IntGroup(), FreeGroup(2, ("a", "b"))))}


@pytest.mark.parametrize("name", KERNEL_PRESETS + tuple(RECT_EXTRA))
def test_rectangular_order_matrix_matches_generic(name):
    """xs != ys, signed elements a^-1 b on both sides, and empty sides."""
    pres = RECT_EXTRA.get(name) or pres_of(name)
    ball = list(pres.enumerate_ball(2))
    rng = random.Random(f"rect-{name}")
    signed = [pres.mul(pres.inv(rng.choice(ball)), rng.choice(ball)) for _ in range(40)]
    assert not all(map(pres.is_positive, signed))
    xs, ys = signed[:15] + ball[::2], ball + signed[15:]
    expected = generic_matrix(pres, xs, ys)
    assert expected.any() and not expected.all()
    assert np.array_equal(pres.order_matrix(xs, ys), expected)
    assert np.array_equal(pres.order_matrix(ys, xs), generic_matrix(pres, ys, xs))
    assert pres.order_matrix([], ys).shape == (0, len(ys))
    assert pres.order_matrix(xs, []).shape == (len(xs), 0)
    assert pres.order_matrix([], []).shape == (0, 0)


SD_LETTERS = {
    "sd:perm3": ("a", "b", "c", "s"),
    "sd:phi-ab": ("a", "b", "s"),
    "sd:nonexample": ("a", "b", "s"),
}


def random_element(pres, rng, letters, length, signed=True):
    tokens = [rng.choice(letters) + (rng.choice(("", "^-1")) if signed else "") for _ in range(length)]
    return pres.parse(" ".join(tokens) or "e")


@pytest.mark.parametrize(
    "name,radius",
    [(n, 4) for n in ("sd:swap2", "sd:perm3", "sd:phi-ab", "sd:nonexample", "free:2")] + [("sd:nonexample", 5)],
)
def test_order_matrix_matches_generic_on_balls(name, radius):
    pres = pres_of(name)
    els = list(ball_of(name, radius))
    assert np.array_equal(pres.order_matrix(els, els), generic_matrix(pres, els))


SIGNED_LETTERS = dict(SD_LETTERS, **{"sd:swap2": ("a", "b", "s"), "free:2": ("a", "b")})
PAIRS = 50


def signed_elements(pres, name):
    """PAIRS signed elements x as in the leq test, each followed by x times a
    positive element, then e and, for products, two pure levels."""
    letters = SIGNED_LETTERS[name]
    rng = random.Random(f"sd-matrix-{name}")
    els = []
    for _ in range(PAIRS):
        x = random_element(pres, rng, letters, rng.randint(0, 6))
        els += [x, pres.mul(x, random_element(pres, rng, letters, rng.randint(0, 4), signed=False))]
    els.append(pres.identity())
    if name != "free:2":
        els += [pres.parse("s^-2"), pres.parse("s^3")]
    return els


# None keeps the chunk budget; the tiny budgets split every block.
@pytest.mark.parametrize("cells", [None, 1, 5, 64])
@pytest.mark.parametrize("name", sorted(SIGNED_LETTERS))
def test_order_matrix_matches_generic_on_signed_elements(name, cells, monkeypatch):
    pres = pres_of(name)
    els = signed_elements(pres, name)
    if name != "free:2":
        assert any(x[1] < 0 for x in els)
    if cells is not None:
        monkeypatch.setattr(words, "QUOTIENT_CHUNK_CELLS", cells)
    got = pres.order_matrix(els, els)
    assert np.array_equal(got, generic_matrix(pres, els))
    assert all(got[i, i + 1] for i in range(0, 2 * PAIRS, 2))


def test_positive_quotients_against_word_products():
    rng = random.Random("quotients")
    free = FreeGroup(3)
    ws = [random_element(free, rng, ("a", "b", "c"), rng.randint(0, 7), signed=rng.random() < 0.7)
          for _ in range(120)]
    ws.append(())
    expected = np.array([[is_positive_word(word_mul(word_inv(u), v)) for v in ws] for u in ws])
    assert expected.any() and not expected.all()
    assert np.array_equal(positive_quotients(ws, ws), expected)
    assert np.array_equal(positive_quotients(ws[:7], ws[30:]), expected[:7, 30:])
    assert positive_quotients([], ws).shape == (0, len(ws))
    assert positive_quotients(ws, []).shape == (len(ws), 0)


@pytest.mark.parametrize("name", sorted(SD_LETTERS))
def test_semidirect_leq_matches_generic_on_signed_elements(name):
    pres, letters = pres_of(name), SD_LETTERS[name]
    rng = random.Random(f"sd-leq-{name}")
    pairs = []
    for _ in range(150):
        x = random_element(pres, rng, letters, rng.randint(0, 6))
        y = random_element(pres, rng, letters, rng.randint(0, 6))
        # x times a positive element lies above x: the rows need true entries.
        above = pres.mul(x, random_element(pres, rng, letters, rng.randint(0, 4), signed=False))
        pairs += [(x, y), (y, x), (x, above)]
    assert any(x[1] < 0 for x, _ in pairs) and any(y[1] < 0 for _, y in pairs)
    expected = [Presentation.leq(pres, x, y) for x, y in pairs]
    assert [pres.leq(x, y) for x, y in pairs] == expected
    assert all(expected[2::3])
    ys = [y for _, y in pairs]
    for x, _ in pairs[:60:3]:
        assert pres.order_matrix([x], ys)[0].tolist() == [Presentation.leq(pres, x, y) for y in ys]


def _minimal(idx, rel):
    """Members of ``idx`` with no other member strictly below them.

    ``rel[a, b]`` is ``idx[a] <= idx[b]``; it is overwritten.
    """
    np.fill_diagonal(rel, False)
    return idx[~rel.any(0)]


def reference_weak_ql(pres, ball):
    """``check_weak_ql`` one candidate pair at a time, names from ``canonical_str``."""
    rel = ball.order()
    as_float = rel.astype(np.float32)
    candidates = ((as_float @ as_float.T) > 0) & ~rel & ~rel.T
    findings = []
    for i, j in zip(*np.nonzero(np.triu(candidates, 1))):
        ubs = np.flatnonzero(rel[i] & rel[j])
        bounds = _minimal(ubs, rel[np.ix_(ubs, ubs)])
        if len(bounds) >= 2:
            findings.append(
                {
                    "pair": sorted(pres.canonical_str(ball.elements[k]) for k in (i, j)),
                    "upper_bounds": sorted(pres.canonical_str(ball.elements[m]) for m in bounds),
                    "classification": "violation candidate within ball",
                }
            )
    findings.sort(key=lambda f: (f["pair"], f["upper_bounds"]))
    return findings


WQL_REFERENCE_BALLS = (
    ("sd:nonexample", 4),
    ("sd:nonexample", 5),
    ("sd:nonexample", 6),
    ("graph:path3", 6),
    ("sd:phi-ab", 6),
    ("sd:perm3", 5),
    ("bs:2,3", 6),
    ("hnn+:x,y@x,y", 4),
    ("hnn-:x,y@x,y", 4),
)
_REFERENCE: dict = {}


@pytest.mark.parametrize("cells", [None, 1], ids=["default-chunks", "one-pair-chunks"])
@pytest.mark.parametrize("name, radius", WQL_REFERENCE_BALLS)
def test_check_weak_ql_matches_reference(name, radius, cells, monkeypatch):
    pres, ball = pres_of(name), ball_of(name, radius)
    if (name, radius) not in _REFERENCE:
        _REFERENCE[name, radius] = reference_weak_ql(pres, ball)
    if cells is not None:
        monkeypatch.setattr(order, "SCAN_CHUNK_CELLS", cells)
    findings = check_weak_ql(ball)
    assert findings == _REFERENCE[name, radius]
    assert len(findings) == {("sd:nonexample", 4): 47, ("sd:nonexample", 5): 170,
                             ("sd:nonexample", 6): 541}.get((name, radius), 0)


@pytest.mark.parametrize("name", KERNEL_PRESETS)
def test_ball_names_are_its_sort_keys(name, monkeypatch):
    # Names are made shell by shell on first read, each element once, in
    # one canonical_strs call per read.
    pres = get_presentation(name)
    calls = []
    canonical = pres.canonical_strs
    monkeypatch.setattr(pres, "canonical_strs", lambda xs: calls.append(list(xs)) or canonical(xs))
    ball = pres.enumerate_ball(3)
    assert calls == []
    els, names = ball.core(1)
    assert ball.core(1) == (els, names) and len(calls) == 1
    ball.names
    assert len(calls) == 2
    monkeypatch.undo()
    assert sorted(map(ball.position, calls[0])) == list(range(len(els)))
    assert sorted(map(ball.position, calls[1])) == list(range(len(els), len(ball)))
    assert max(ball.lengths[:len(els)]) <= 1 < min(ball.lengths[len(els):])
    assert ball.names == tuple(pres.canonical_str(x) for x in ball)
    assert list(zip(ball.lengths, ball.names)) == sorted(zip(ball.lengths, ball.names))


# The largest balls of the bench.
LARGE_BALLS = [("hnn-:x,y@x,y", 6), ("sd:nonexample", 5), ("graph:path3", 6)]


@pytest.mark.parametrize("name, radius", [(n, 3) for n in KERNEL_PRESETS] + LARGE_BALLS)
def test_core_is_a_prefix_of_the_ball(name, radius):
    pres, whole = pres_of(name), ball_of(name, radius)
    stepped = pres.enumerate_ball(radius, cap=radius)  # read one radius more each time
    for r in range(radius + 1):
        k = sum(n <= r for n in whole.lengths)
        want = (whole.elements[:k], whole.names[:k])
        assert stepped.core(r) == want
        assert pres.enumerate_ball(radius, cap=radius).core(r) == want  # read at once
    assert stepped.elements == whole.elements and stepped.names == whole.names


def oracle_join_minimal_set(ball, x, y):
    """The oracle as a minimal-set search: a unique minimal common upper bound below all."""
    ubs = np.flatnonzero(ball.leq_row(ball.position(x)) & ball.leq_row(ball.position(y)))
    if ubs.size:
        minimal = _minimal(ubs, np.array([ball.leq_row(z)[ubs] for z in ubs]))
        if len(minimal) == 1 and ball.leq_row(minimal[0])[ubs].all():
            return JoinResult.finite(ball.elements[minimal[0]])
    return JoinResult.inconclusive_within(ball.radius)


@pytest.mark.parametrize("name", README_PRESETS, ids=short)
def test_oracle_least_element_scan_matches_minimal_set(name):
    pres, ball = pres_of(name), ball_of(name, 3)
    finite = 0
    for x in ball:
        for y in ball:
            got = oracle_join(ball, x, y)
            assert got == oracle_join_minimal_set(ball, x, y) and got.radius == (None if got.is_finite else 3)
            finite += got.is_finite
    assert finite >= len(ball)  # x v e = x at least
