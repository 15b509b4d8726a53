import random

import pytest

from wqlat.order import LETTER_CAP, JoinResult, PresentationError, oracle_join
from wqlat.presets import get_presentation
from wqlat.semidirect import FreeAutomorphism, nonexample
from wqlat.words import EMPTY, FreeGroup, is_positive_word, parse_word, positive_words, reduce_word

from conftest import ball_of, pres_of

SWAP = pres_of("sd:swap2")
PERM3 = pres_of("sd:perm3")
PHIAB = pres_of("sd:phi-ab")
NONEX = pres_of("sd:nonexample")
ALL = (SWAP, PERM3, PHIAB, NONEX)


def random_element(pres, rng, n=6):
    gens = pres.positive_generators()
    x = pres.identity()
    for _ in range(rng.randrange(n + 1)):
        g = rng.choice(gens)
        x = pres.mul(x, g if rng.random() < 0.5 else pres.inv(g))
    return x


def preserves_cone(aut, max_len=4):
    """Spot check phi(F+) <= F+ on all positive words up to max_len."""
    return all(is_positive_word(aut.apply(wd, 1)) for wd in positive_words(aut.base.n_gens, max_len))


class TestAutomorphism:
    def test_inverse_validation(self):
        base = FreeGroup(2, ("a", "b"))
        with pytest.raises(ValueError):
            FreeAutomorphism(base, (base.parse("a b"), base.parse("b")), (base.parse("a"), base.parse("b")))

    def test_cone_preservation_spot_check(self):
        for pres in ALL:
            assert preserves_cone(pres.aut)


class TestGroupLaws:
    @pytest.mark.parametrize("pres", ALL, ids=lambda p: p.name)
    def test_associativity_and_inverses(self, pres):
        rng = random.Random(17)
        e = pres.identity()
        for _ in range(1000):
            x, y, z = (random_element(pres, rng) for _ in range(3))
            assert pres.mul(pres.mul(x, y), z) == pres.mul(x, pres.mul(y, z))
            assert pres.mul(pres.inv(x), x) == e
            assert pres.mul(x, pres.inv(x)) == e

    def test_swap_action_example(self):
        a1 = SWAP.parse("a s")
        a0 = SWAP.parse("a")
        assert SWAP.mul(a1, a0) == SWAP.parse("a b s")
        assert SWAP.mul(SWAP.identity(), a1) == a1
        assert SWAP.inv(a0) == (SWAP.base.parse("a^-1"), 0)


class TestOrder:
    def test_phiab_examples(self):
        assert PHIAB.leq(PHIAB.parse("a s"), PHIAB.parse("a a b s"))
        assert not PHIAB.leq(PHIAB.parse("a s"), PHIAB.parse("a"))
        x = PHIAB.parse("a b s")
        assert PHIAB.leq(x, x)

    @pytest.mark.parametrize("pres", ALL, ids=lambda p: p.name)
    def test_leq_matches_positivity_route(self, pres):
        ball = ball_of(pres.name, 4)
        for x in ball:
            for y in ball:
                direct = pres.leq(x, y)
                generic = pres.is_positive(pres.mul(pres.inv(x), y))
                assert direct == generic


class TestJoins:
    def test_levelwise_examples(self):
        assert SWAP.join(SWAP.parse("a"), SWAP.parse("a s")) == JoinResult.finite(SWAP.parse("a s"))
        assert SWAP.join(SWAP.parse("a"), SWAP.parse("b")).is_infinite
        x = SWAP.parse("a b s")
        assert SWAP.join(x, x) == JoinResult.finite(x)

    def test_phiab_formula_examples(self):
        assert PHIAB.join(PHIAB.parse("a s"), PHIAB.parse("a a")) == JoinResult.finite(
            PHIAB.parse("a a b s")
        )
        assert PHIAB.join(PHIAB.parse("a s"), PHIAB.parse("a b")) == JoinResult.finite(
            PHIAB.parse("a b s")
        )
        p = PHIAB.parse("b a")
        assert PHIAB.join((p[0], 1), (p[0], 3)) == JoinResult.finite((p[0], 3))

    def test_phiab_interior_obstruction(self):
        # p^-1 q = a b a with the interior exponent 1 below the level 2.
        x = PHIAB.parse("a s^2")
        y = PHIAB.parse("a a b a")
        assert PHIAB.join(x, y).is_infinite

    def test_generic_preset_is_inconclusive(self):
        r = NONEX.join(NONEX.parse("a"), NONEX.parse("b"))
        assert r.is_inconclusive

    @pytest.mark.parametrize("pres", [SWAP, PERM3, PHIAB], ids=lambda p: p.name)
    def test_join_matches_oracle_ball4(self, pres):
        ball = ball_of(pres.name, 4)
        big = ball_of(pres.name, 6)
        for x in ball:
            for y in ball:
                r = pres.join(x, y)
                o = oracle_join(big, x, y)
                if r.is_finite and r.value in big:
                    assert o == r
                else:
                    assert not o.is_finite

    @pytest.mark.parametrize("pres", [SWAP, PERM3, PHIAB], ids=lambda p: p.name)
    def test_projection_preserves_joins(self, pres):
        ball = ball_of(pres.name, 4)
        for x in ball:
            for y in ball:
                r = pres.join(x, y)
                if r.is_finite:
                    assert pres.projection(r.value) == max(pres.projection(x), pres.projection(y))


class TestProjection:
    def test_examples(self):
        assert PHIAB.projection(PHIAB.parse("a b s^3")) == 3
        assert PHIAB.projection(PHIAB.identity()) == 0
        assert SWAP.projection((EMPTY, 5)) == 5


class TestNonexampleMetadata:
    def test_bounds_dominate_pair(self):
        p, q = NONEX.metadata["witness_pair"]
        for bound in NONEX.metadata["witness_bounds"]:
            assert NONEX.leq(p, bound)
            assert NONEX.leq(q, bound)

    def test_bounds_incomparable(self):
        n1, n2 = NONEX.metadata["witness_bounds"]
        assert not NONEX.leq(n1, n2)
        assert not NONEX.leq(n2, n1)

    def test_pair_incomparable(self):
        p, q = NONEX.metadata["witness_pair"]
        assert not NONEX.leq(p, q)
        assert not NONEX.leq(q, p)


class TestGrammar:
    def test_round_trip(self):
        for pres in ALL:
            for x in ball_of(pres.name, 3):
                assert pres.parse(pres.canonical_str(x)) == x


def parse_reference(pres, text):
    """The images phi^level(letter) concatenated, then reduced once: ``parse`` before it cancelled as it read."""
    pieces, level = [], 0
    for gen, sign in parse_word(text, pres.gen_names):
        if gen == pres.base.n_gens:
            level += sign
        else:
            pieces.extend(pres._image(((gen, sign),), level))
    return reduce_word(pieces), level


def random_sd_token(rng, pres):
    """Mostly letters and their powers, then levels and ``e``, and a few tokens the grammar refuses."""
    kind = rng.randrange(20)
    if kind < 12:
        return rng.choice(pres.base.gen_names) + rng.choice(("", "", "^-1", "^-1", "^2", "^-3", "^0"))
    if kind < 19:
        return rng.choice(("s", "s^-1", "s^2", "s^-2", "e"))
    return rng.choice(("z", "s^", "a^+1", "e^2"))


def parse_outcome(parse, text):
    """What ``parse`` reads, or the message of the ``PresentationError`` it raises."""
    try:
        return parse(text)
    except PresentationError as err:
        return f"error: {err}"


@pytest.mark.parametrize("pres", ALL, ids=lambda p: p.name)
def test_parse_matches_the_reference_on_a_seeded_stream(pres):
    rng = random.Random(f"sd-parse {pres.name}")
    for _ in range(1000):
        text = " ".join(random_sd_token(rng, pres) for _ in range(rng.randrange(10))) or "e"
        assert parse_outcome(pres.parse, text) == parse_outcome(lambda t: parse_reference(pres, t), text), text


class TestImages:
    def test_trivial_images_take_no_cache_slot(self):
        # s^65536 multiplies the empty word through phi^k for every k < 65536.
        pres = get_presentation("sd:perm3")
        assert pres.parse("s^65536 a") == (((1, 1),), 65536)
        info = pres._image_cache.cache_info()
        assert info.currsize <= 2 and info.misses <= 2

    def test_an_image_past_the_letter_cap_is_refused_after_its_pass(self):
        # phi^k(a) on the nonexample has F(2k + 1) letters (Fibonacci).
        aut = nonexample().aut
        assert len(aut.apply(((0, 1),), 14)) == 514229 <= LETTER_CAP
        with pytest.raises(PresentationError, match=f"word of 1346269 letters exceeds {LETTER_CAP}"):
            aut.apply(((0, 1),), 40)
