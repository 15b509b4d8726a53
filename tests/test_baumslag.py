import random

import pytest

from wqlat.order import JoinResult, PresentationError, oracle_join

from conftest import ball_of, pres_of

BS23 = pres_of("bs:2,3")
BS12 = pres_of("bs:1,2")
BSM23 = pres_of("bs:2,-3")
BSM11 = pres_of("bs:1,-1")


def random_letters(rng, max_len, signed=True):
    n = rng.randrange(max_len + 1)
    signs = (1, -1) if signed else (1,)
    return [(rng.randrange(2), rng.choice(signs)) for _ in range(n)]


class TestCanonicalForm:
    def test_positive_relator_rewrite(self):
        assert BS23.canonical_str(BS23.parse("b^3 a")) == "a b^2"

    def test_negative_relator_collapse(self):
        assert BSM23.parse("b^3 a b^2") == BSM23.parse("a")
        assert BSM23.canonical_str(BSM23.parse("b^3 a b^2")) == "a"

    def test_free_cancellation(self):
        assert BS23.parse("a a^-1") == BS23.identity()

    def test_exponent_windows(self):
        for pres in (BS23, BS12, BSM23, BSM11):
            c, d = pres.params.c, pres.params.d_abs
            for x in ball_of(pres.name, 5):
                exps, eps = x
                for i, e in enumerate(eps):
                    window = d if e == 1 else c
                    assert 0 <= exps[i] < window

    @pytest.mark.parametrize("pres", [BS23, BS12, BSM23, BSM11], ids=lambda p: p.name)
    def test_soundness_fuzz(self, pres):
        rng = random.Random(11)
        for _ in range(1500):
            u = random_letters(rng, 12)
            v = random_letters(rng, 12)
            uv = pres.canon(u + v + [(g, -s) for g, s in reversed(v)])
            assert uv == pres.canon(u)

    @pytest.mark.parametrize("pres", [BS23, BSM23], ids=lambda p: p.name)
    def test_equality_iff_quotient_trivial(self, pres):
        rng = random.Random(5)
        for _ in range(400):
            u = pres.canon(random_letters(rng, 8))
            v = pres.canon(random_letters(rng, 8))
            trivial = pres.mul(pres.inv(u), v) == pres.identity()
            assert trivial == (u == v)


class TestPositivity:
    def test_negative_tail_for_positive_d(self):
        x = BS23.parse("a b^-1")
        assert not BS23.is_positive(x)
        assert x not in ball_of("bs:2,3", 6)

    def test_negative_tail_for_negative_d(self):
        x = BSM23.parse("a b^-7")
        assert BSM23.is_positive(x)
        witness = BSM23.positive_witness(x)
        assert all(sign == 1 for _, sign in witness)
        assert BSM23.canon(witness) == x

    def test_height_zero_needs_nonnegative(self):
        assert not BSM23.is_positive(BSM23.parse("b^-1"))

    @pytest.mark.parametrize("pres", [BS23, BS12, BSM23, BSM11], ids=lambda p: p.name)
    def test_witness_round_trip_on_ball(self, pres):
        for x in ball_of(pres.name, 5):
            witness = pres.positive_witness(x)
            assert witness is not None
            assert all(sign == 1 for _, sign in witness)
            assert pres.canon(witness) == x


class TestOrderAndJoin:
    def test_descending_bound_comparison(self):
        # Relation a b^2 = b^-3 a: the quotient of a b^-3 a^-1 against b^3 a
        # is the positive element b^3 a b^3.
        h = BSM23.parse("a b^-3 a^-1")
        assert BSM23.leq(h, BSM23.parse("b^3 a"))
        q = BSM23.mul(BSM23.inv(h), BSM23.parse("b^3 a"))
        assert q == BSM23.parse("b^3 a b^3")

    def test_join_of_generators(self):
        r = BS12.join(BS12.parse("a"), BS12.parse("b"))
        assert r == JoinResult.finite(BS12.parse("b^2 a"))

    def test_join_incomparable_stems_infinite(self):
        ba, b2a = BSM23.parse("b a"), BSM23.parse("b^2 a")
        assert BSM23.join(ba, b2a).is_infinite
        ball = ball_of("bs:2,-3", 8)
        assert not (ball.leq_row(ball.position(ba)) & ball.leq_row(ball.position(b2a))).any()

    def test_join_idempotent(self):
        for pres in (BS23, BSM23):
            x = pres.parse("b a b")
            assert pres.join(x, x) == JoinResult.finite(x)

    def test_join_requires_positive(self):
        with pytest.raises(PresentationError):
            BS23.join(BS23.parse("a^-1"), BS23.parse("a"))

    @pytest.mark.parametrize("name", ["bs:1,2", "bs:2,3", "bs:2,-3", "bs:1,-1"])
    def test_join_consistent_with_oracle_ball5(self, name):
        pres = pres_of(name)
        ball = ball_of(name, 5)
        big = ball_of(name, 7)
        for x in ball:
            for y in ball:
                r = pres.join(x, y)
                if r.is_finite and r.value in big:
                    assert oracle_join(big, x, y) == r
                elif r.is_infinite:
                    assert not oracle_join(big, x, y).is_finite

    def test_height_is_order_preserving(self):
        for pres in (BS23, BSM23, BSM11):
            for x in ball_of(pres.name, 5):
                for y in ball_of(pres.name, 5):
                    if pres.leq(x, y):
                        assert pres.height(x) <= pres.height(y)

    def test_negative_d_comparability(self):
        for name in ("bs:2,-3", "bs:1,-1"):
            pres = pres_of(name)
            ball = ball_of(name, 5)
            big = ball_of(name, 7)
            for x in ball:
                for y in ball:
                    has_bound = (big.leq_row(big.position(x)) & big.leq_row(big.position(y))).any()
                    if has_bound:
                        assert pres.leq(x, y) or pres.leq(y, x)


class TestHeight:
    def test_counts_a_letters(self):
        assert BS23.height(BS23.parse("b^2 a b a")) == 2
        assert BS23.height(BS23.identity()) == 0
        assert BS23.height(BS23.parse("a^-1")) == -1

    def test_additive(self):
        rng = random.Random(3)
        for _ in range(300):
            x = BSM23.canon(random_letters(rng, 8))
            y = BSM23.canon(random_letters(rng, 8))
            assert BSM23.height(BSM23.mul(x, y)) == BSM23.height(x) + BSM23.height(y)


class TestChainDemo:
    def test_passes_when_c_does_not_divide_d(self):
        assert BSM23.chain_demo(4)["ok"]
        assert pres_of("bs:3,-2").chain_demo(4)["ok"]

    def test_depth_zero_vacuous(self):
        for name in ("bs:2,-3", "bs:3,-2", "bs:1,-1"):
            assert pres_of(name).chain_demo(0)["ok"]

    def test_requires_negative_d(self):
        with pytest.raises(PresentationError):
            BS23.chain_demo(2)

    def test_divisible_case_has_interpolants(self):
        # For c = d = 1 the bounded element collapses to b, and every power
        # of b sits between it and the whole chain; the separation statement
        # genuinely needs c not dividing d.
        report = BSM11.chain_demo(4)
        assert report["bound_failures"] == []
        assert report["descent_failures"] == []
        assert report["interpolants"] == ["b", "b^2", "b^3", "b^4"]
        assert not report["ok"]
