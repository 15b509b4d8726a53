"""Stem blocks: the stable-letter order matrix and the per-ball join table.

``StableLetterCone.order_matrix``, on HNN extensions and Baumslag-Solitar
groups of both signs, is compared with the unbound ``Presentation``
default, and every ``join_table`` override with the open pairs of a
reference that calls ``_join`` once per pair, so an override cannot hide
behind itself; so are the stable-letter ``mul`` of a base part, against the normal
form of the letters, and ``canonical_strs``, against ``canonical_str``.  The
slow reports of the commit before either hook existed are pinned in
``tests/golden.txt``.
"""

import random

import numpy as np
import pytest

from wqlat.cli import main
from wqlat.controlled import check_sigma_axioms, fibers
from wqlat.order import Presentation, PresentationError
from wqlat.presets import get_presentation

from conftest import README_PRESETS, ball_of, open_join_table, pres_of, short

# Both HNN families: Baumslag-Solitar groups are the HNN extensions of <b>.
HNN_PRESETS = (
    "hnn+:x,y@x,y",
    "hnn-:x,y@x,y",
    "hnn+:xy,yx@x,y",
    "hnn+:xy,x@x,y",
    "hnn-:xy,x@x,y",
    "hnn+:x,yx@x,y",
    "hnn-:xy,yx@x,y",
    "bs:1,2",
    "bs:2,3",
    "bs:3,2",
    "bs:2,1",
    "bs:1,1",
    "bs:2,-3",
    "bs:3,-2",
    "bs:1,-1",
    "bs:2,-1",
)


def default_order(pres, xs, ys):
    return Presentation.order_matrix(pres, xs, ys)


def signed_elements(pres, count, seed):
    """Products of random signed letters, at least one of each kind the stem rule sorts.

    The stable letter is ``t`` (``a`` for Baumslag-Solitar), the base letters
    ``x`` and ``y`` (both ``b``).
    """
    rng = random.Random(seed)
    letters = [(g, s) for g in range(len(pres.gen_names)) for s in (1, -1)]
    out = [pres.normal_form([rng.choice(letters) for _ in range(rng.randrange(1, 9))]) for _ in range(count)]
    t = pres.gen_names[pres.t_index]
    base = [name for name in pres.gen_names if name != t]
    names = {"t": t, "x": base[0], "y": base[-1]}
    # Only t-letters t, one with a negative base part; one with a t^-1.
    for text in ("x^-1 t y^-1", "t x t^-1 y", "y^-2 t x^-1 t"):
        out.append(pres.parse(" ".join(names[token[0]] + token[1:] for token in text.split())))
    return out


class TestHnnOrderMatrix:
    @pytest.mark.parametrize("name", HNN_PRESETS)
    def test_ball_radius_4(self, name):
        els = ball_of(name, 4).elements
        assert np.array_equal(pres_of(name).order_matrix(els, els), default_order(pres_of(name), els, els))

    @pytest.mark.parametrize("name", HNN_PRESETS)
    def test_rectangular_signed_and_single_rows(self, name):
        pres = pres_of(name)
        ball = list(ball_of(name, 3))
        signed = signed_elements(pres, 60, name)
        has_t_inv = [x for x in signed if -1 in x[1]]
        negative_base = [x for x in signed if -1 not in x[1] and not pres.is_positive(x)]
        # Without a^-1 every element of BS with d' < 0 is positive.
        assert has_t_inv and (negative_base or pres.name.startswith("bs:") and pres.has_chain)
        xs, ys = signed[:30] + ball[::3], ball[1::2] + signed[30:]
        assert np.array_equal(pres.order_matrix(xs, ys), default_order(pres, xs, ys))
        assert np.array_equal(pres.order_matrix(signed, signed), default_order(pres, signed, signed))
        for x in has_t_inv[:3] + negative_base[:3] + ball[:3]:
            assert np.array_equal(pres.order_matrix([x], ys), default_order(pres, [x], ys))
        assert pres.order_matrix([], ys).shape == (0, len(ys))
        assert pres.order_matrix(xs, []).shape == (len(xs), 0)


class TestOneStepForms:
    """The one-step forms against the code they replace: the grouped order rows,
    the base-part product and the batch of names."""

    @pytest.mark.parametrize("name", ["hnn+:x,y@x,y", "hnn-:x,y@x,y", "hnn-:xy,x@x,y", "bs:2,3", "bs:2,-3"])
    def test_grouped_rows_radius_5(self, name):
        els = ball_of(name, 5).elements
        assert np.array_equal(pres_of(name).order_matrix(els, els), default_order(pres_of(name), els, els))

    @pytest.mark.parametrize("name", HNN_PRESETS)
    def test_base_part_product(self, name):
        # y without t-letters: one part product, the letters' normal form.
        pres = pres_of(name)
        xs = signed_elements(pres, 40, name) + list(ball_of(name, 3))
        ys = [y for y in xs if not y[1]] + [pres.inv(y) for y in xs if not y[1]]
        assert len(ys) > 4
        for x in xs:
            for y in ys:
                assert pres.mul(x, y) == pres.normal_form(pres._letters(x) + pres._letters(y))

    @pytest.mark.parametrize("name", README_PRESETS, ids=short)
    def test_names_of_a_ball(self, name):
        pres = get_presentation(name)
        els = pres.enumerate_ball(4, cap=4).elements
        assert pres.canonical_strs(els) == [pres.canonical_str(x) for x in els]

    @pytest.mark.parametrize("name", HNN_PRESETS)
    def test_names_of_signed_elements(self, name):
        pres = get_presentation(name)
        xs = signed_elements(pres, 60, name)
        assert pres.canonical_strs(xs + xs[::-1]) == [pres.canonical_str(x) for x in xs + xs[::-1]]
        assert pres.canonical_strs([]) == []
        # The part memo is local to the call.
        state = dict(vars(pres))
        pres.canonical_strs(xs)
        assert vars(pres) == state

    def test_names_are_printed_by_each_presentation(self):
        # The same parts name x, y words in one presentation and a, b words in the other.
        xy, ab = get_presentation("hnn-:x,y@x,y"), get_presentation("hnn-:a,b@a,b")
        els = ball_of("hnn-:x,y@x,y", 3).elements
        for _ in range(2):
            renamed = [name.replace("x", "a").replace("y", "b") for name in xy.canonical_strs(els)]
            assert ab.canonical_strs(els) == renamed == [ab.canonical_str(x) for x in els]


def assert_reference_table(pres, xs, rel=None):
    """``join_table(xs, rel)`` against the open pairs of the one-``_join``-per-pair reference."""
    rel = pres.order_matrix(xs, xs) if rel is None else rel
    table = pres.join_table(xs, rel)
    assert table == open_join_table(pres, xs, rel)
    return table


class TestJoinTable:
    @pytest.mark.parametrize("name", README_PRESETS, ids=short)
    def test_readme_presets_radius_3(self, name):
        pres = get_presentation(name)
        ball = pres.enumerate_ball(3, cap=3)
        table = assert_reference_table(pres, ball.elements, ball.order())
        assert all(i < j for i, j in table) and not any(r.is_infinite for r in table.values())

    @pytest.mark.parametrize(
        "name", ["bs:2,3", "bs:3,2", "bs:2,-3", "hnn+:x,y@x,y", "hnn-:x,y@x,y", "hnn+:xy,yx@x,y",
                 "hnn+:xy,x@x,y", "hnn-:xy,x@x,y"])
    def test_radius_4(self, name):
        pres, ball = pres_of(name), ball_of(name, 4)
        assert_reference_table(pres, ball.elements, ball.order())

    @pytest.mark.parametrize("name", ["bs:2,3", "bs:1,2"])
    def test_sigma_witness_lists(self, name):
        # Minimal elements b^s1 a ... b^sq a, most of them outside any ball.
        pres = pres_of(name)
        by_height = [pres.sigma_witness(q, None) for q in range(1, 6)]
        for sigma in by_height + [sum(by_height[:4], [])]:
            assert_reference_table(pres, sigma)

    @pytest.mark.parametrize("radius", range(6))
    def test_phi_ab_prefix_table(self, radius):
        # phi-ab joins words only when one is a prefix of the other.
        pres, ball = pres_of("sd:phi-ab"), ball_of("sd:phi-ab", radius)
        assert_reference_table(pres, ball.elements, ball.order())
        for q, fiber in fibers(pres.morphism(), ball).items():
            assert_reference_table(pres, pres.sigma_witness(q, fiber))

    def test_join_preservation_reads_the_ball_relation(self, capsys, monkeypatch):
        # check_order_preserving builds the ball's relation; the comparable
        # join table of check_join_preserving reads it instead of building it again.
        pres = pres_of("hnn-:x,y@x,y")
        size = len(ball_of("hnn-:x,y@x,y", 4))
        whole = []
        order_matrix = type(pres).order_matrix

        def counted(self, xs, ys):
            whole.append(len(xs) == len(ys) == size)
            return order_matrix(self, xs, ys)

        monkeypatch.setattr(type(pres), "order_matrix", counted)
        assert main(["check-controlled", "hnn-:x,y@x,y", "--radius", "4", "--mode", "lambda"]) == 0
        assert sum(whole) == 1 and len(whole) > 1


@pytest.mark.parametrize("alone", [False, True], ids=["with-others", "alone"])
def test_sigma_check_rejects_a_non_positive_witness(alone):
    # Each witness is tested once, before the join table; a lone one too.
    pres = pres_of("bs:2,3")
    bad = pres.parse("a^-1")

    def witness(q, fiber):
        if q != 1:
            return pres.sigma_witness(q, fiber)
        return [bad] if alone else pres.sigma_witness(q, fiber) + [bad]

    with pytest.raises(PresentationError, match=r"^element a\^-1 is not positive$"):
        check_sigma_axioms(pres.morphism(), witness, ball_of("bs:2,3", 3))
