"""Hypothesis laws for the semidirect products, the Scarparo cone and free:2.

The same four laws as the stable-letter suite in ``tests/test_stable_letter.py``,
on elements parsed from random signed letter streams over each preset's
alphabet.  Every preset gives a witness exactly for its positive elements:
the semidirect products the letters of the word, then s^q.  The nonexample
has no structural join, so its join law is checked only where the rule
claims a finite join: nowhere.
"""

import pytest
from hypothesis import given, settings, strategies as st

from wqlat.order import oracle_join
from wqlat.words import format_word

from conftest import ball_of, pres_of

# preset -> (alphabet of the element grammar, radius of the operand ball,
# radius of the oracle ball)
LAW_PRESETS = {
    "sd:swap2": (("a", "b", "s"), 3, 5),
    "sd:perm3": (("a", "b", "c", "s"), 2, 4),
    "sd:phi-ab": (("a", "b", "s"), 3, 5),
    "sd:nonexample": (("a", "b", "s"), 3, 5),
    "scarparo": (("a", "b"), 3, 5),
    "free:2": (("a", "b"), 3, 5),
}
WITNESSED = tuple(LAW_PRESETS)

signed = st.lists(st.tuples(st.integers(min_value=0, max_value=3), st.sampled_from((1, -1))), max_size=10)


def element(name, letters):
    """The element a signed stream spells, its letters folded onto the preset's alphabet."""
    alphabet = LAW_PRESETS[name][0]
    return pres_of(name).parse(format_word(tuple((g % len(alphabet), s) for g, s in letters), alphabet))


@pytest.mark.parametrize("name", LAW_PRESETS)
class TestWordFamilyLaws:
    @given(signed)
    def test_print_parse_round_trip(self, name, letters):
        pres = pres_of(name)
        x = element(name, letters)
        assert pres.parse(pres.canonical_str(x)) == x

    @given(signed)
    def test_cone_meets_its_inverse_in_the_identity(self, name, letters):
        pres = pres_of(name)
        x = element(name, letters)
        if pres.is_positive(x) and pres.is_positive(pres.inv(x)):
            assert x == pres.identity()

    @given(signed)
    def test_positive_witness_multiplies_back(self, name, letters):
        pres = pres_of(name)
        x = element(name, letters)
        witness = pres.positive_witness(x)
        if name in WITNESSED:
            assert (witness is not None) == pres.is_positive(x)
        if witness is not None:
            assert pres.is_positive(x) and all(sign == 1 for _, sign in witness)
            assert pres.parse(format_word(witness, LAW_PRESETS[name][0])) == x

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0), st.integers(min_value=0))
    def test_join_agrees_with_the_oracle(self, name, i, j):
        pres = pres_of(name)
        _, small, large = LAW_PRESETS[name]
        ball, big = ball_of(name, small), ball_of(name, large)
        x, y = ball.elements[i % len(ball)], ball.elements[j % len(ball)]
        r = pres.join(x, y)
        if r.is_finite and r.value in big:
            assert oracle_join(big, x, y) == r
        elif r.is_infinite:
            assert not oracle_join(big, x, y).is_finite
