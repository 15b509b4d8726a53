"""The ball order relation against the generic order, and pinned scan reports.

Each family's ``order_matrix(xs, ys)`` hook fills ``Ball.order()`` (xs = ys
= the ball), single ball rows (one x) and rectangular blocks; these tests
compare it with the base formula ``is_positive(mul(inv(x), y))`` called
unbound, so a family override cannot hide behind itself.  The batched WQL
scan is compared in the same way with a per-candidate reference scan.
"""

import hashlib
import json
import random

import numpy as np
import pytest

from wqlat import order, words
from wqlat.cli import main
from wqlat.order import DirectSum, IntGroup, JoinResult, Presentation, check_weak_ql, oracle_join
from wqlat.presets import get_presentation
from wqlat.words import FreeGroup, is_positive_word, positive_quotients, word_inv, word_mul

from conftest import ball_of, pres_of

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


# sha256 of the stdout of ``wqlat check-wql P --radius 4 --json``, recorded
# with the LeqTable implementation this scan replaced.
WQL_RADIUS4_DIGESTS = {
    "free:2": "81907469624931a5ecb3e9ce48d5d92ca0a137c7bfe5d67d4db0183e7613e7df",
    "scarparo": "eeef7715c2c0d2b19bfd32d1350fd9df3a0f00858e5fb34f873329e1d2a4fde0",
    "bs:1,2": "b2071d272cf20257c9d4e8e0679ddc9b2781a4734bd48bb92955677c6f3c0447",
    "bs:2,3": "8eb46eebf92506ad5bf270c46ebf84e8cf9d89e666a78890acbedb76cd0191ac",
    "bs:2,-3": "798e6e99f98773ca45fa00d68a2cb14dc8defe4a806da2864621250b842b8cda",
    "bs:1,-1": "c12b12e1c103426b0a3a013d64a0cdd04c2b8d19526bfef5ea37f1ff5c02beba",
    "hnn+:x,y@x,y": "59a3a34de0a88d6d5a499d8a23864f9b41393a4dca1a5bca9423feda9dd240e5",
    "hnn-:x,y@x,y": "9d5f166a8b6b195ffeb78f150f244b691367488eb5669e24e735cf944634b430",
    "graph:path3": "741d00b78da8132772d0cf42f2d65aec1fe58b44bcf3154d461d95bec8e20bf9",
    "graph:noedge2": "fc170b43225edba19a69e4bd5dbc5dc126d705ffcbaf6c3a57f932e8da6fea3f",
    "graph:complete2": "b259d4eb40c72622b1322e2ff2af9facd57d06adb92be6c487e91eb48234f74d",
    "graph:square4.json": "7f2b4774428c82a753af744381eb74b85a72570a2538ae0d256dbc6f4ac7e35c",
    "sd:swap2": "e02bf8ff295b1d72652e1a1b709f9d8f696084d2c045c9848d0e724777c451f1",
    "sd:perm3": "05988b015b778849eb9a0791bd339d890896359adf390147a130b3e8f8d7f9ff",
    "sd:phi-ab": "fc3f8ef0c7f8e610928b080d0db35a6c31ef1217bad106ae85225bea07d6183e",
    "sd:nonexample": "a59476490138c81e02dcc2b06be172ba581d023600b0094a2af5a3cc71594b82",
}
SQUARE4 = {"vertices": ["free:1"] * 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}


@pytest.mark.parametrize("name", sorted(WQL_RADIUS4_DIGESTS))
def test_check_wql_report_digest(name, capsys, tmp_path):
    preset = name
    if name.endswith(".json"):
        path = tmp_path / "square4.json"
        path.write_text(json.dumps(SQUARE4))
        preset = f"graph:{path}"
    code = main(["check-wql", preset, "--radius", "4", "--json"])
    out = capsys.readouterr().out
    assert code == (2 if name == "sd:nonexample" else 0)
    assert hashlib.sha256(out.encode()).hexdigest() == WQL_RADIUS4_DIGESTS[name]


# argv of ``wqlat`` -> (sha256 of stdout, exit code), recorded from the CLI
# of the commit before the batched scan and ``Ball.names``; radius 4 of the
# nonexample is pinned above.
REPORT_DIGESTS = {
    ("check-wql", "sd:nonexample", "--radius", "5", "--json"): (
        "0fc20e7b3830ca0dbd3cbf7668c7f59fb6feb41bf93f43a8857ce2ba59e7c1de", 2),
    ("check-wql", "sd:nonexample", "--radius", "6", "--json"): (
        "e51200e6ae468830710d115d5311d88db5b10c908602d03bc41477fb3191fc9c", 2),
    ("check-wql", "graph:path3", "--radius", "5", "--json"): (
        "3747fc3fbea7695716f13d68cd50954ed765d1eeb03e67fc7fde472d1eeb6d6b", 0),
    ("ball", "hnn-:x,y@x,y", "--radius", "6", "--json"): (
        "270a754f77b6092efa0388019a767a57196742ba17e3fdf22c11f126423e5253", 0),
    ("op", "bs:2,-3", "b a", "--radius", "3", "--json"): (
        "f3f63cd80827283fbf268af50d1dd459fc261830a3f599f155d3beea7f345226", 0),
}


@pytest.mark.parametrize("argv", sorted(REPORT_DIGESTS), ids=" ".join)
def test_report_digest(capsys, argv):
    code = main(list(argv))
    assert (hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(), code) == REPORT_DIGESTS[argv]


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
    findings = check_weak_ql(pres, ball)
    assert findings == _REFERENCE[name, radius]
    assert len(findings) == {("sd:nonexample", 4): 47, ("sd:nonexample", 5): 170,
                             ("sd:nonexample", 6): 541}.get((name, radius), 0)


@pytest.mark.parametrize("name", KERNEL_PRESETS)
def test_ball_names_are_its_sort_keys(name, monkeypatch):
    # One canonical_str per element, all of them made by the sort.
    pres = get_presentation(name)
    calls = []
    canonical = pres.canonical_str
    monkeypatch.setattr(pres, "canonical_str", lambda x: calls.append(x) or canonical(x))
    ball = pres.enumerate_ball(3)
    assert len(calls) == len(ball)
    monkeypatch.undo()
    assert ball.names == tuple(pres.canonical_str(x) for x in ball)
    assert list(zip(ball.lengths, ball.names)) == sorted(zip(ball.lengths, ball.names))


def oracle_join_minimal_set(ball, x, y):
    """The oracle as a minimal-set search: a unique minimal common upper bound below all."""
    ubs = np.flatnonzero(ball.leq_row(ball.position(x)) & ball.leq_row(ball.position(y)))
    if ubs.size:
        minimal = _minimal(ubs, np.array([ball.leq_row(z)[ubs] for z in ubs]))
        if len(minimal) == 1 and ball.leq_row(minimal[0])[ubs].all():
            return JoinResult.finite(ball.elements[minimal[0]])
    return JoinResult.inconclusive_within(ball.radius)


@pytest.mark.parametrize("name", sorted(WQL_RADIUS4_DIGESTS))
def test_oracle_least_element_scan_matches_minimal_set(name, tmp_path):
    if name.endswith(".json"):
        path = tmp_path / "square4.json"
        path.write_text(json.dumps(SQUARE4))
        pres = pres_of(f"graph:{path}")
        ball = pres.enumerate_ball(3)
    else:
        pres, ball = pres_of(name), ball_of(name, 3)
    finite = 0
    for x in ball:
        for y in ball:
            got = oracle_join(pres, x, y, ball)
            assert got == oracle_join_minimal_set(ball, x, y) and got.radius == (None if got.is_finite else 3)
            finite += got.is_finite
    assert finite >= len(ball)  # x v e = x at least
