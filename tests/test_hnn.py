import operator
import random

import pytest
from hypothesis import given, strategies as st

from wqlat.baumslag import BaumslagSolitar
from wqlat.hnn import MINUS, POS_CACHE_SIZE, HnnExtension, coset_rep, strip_powers
from wqlat.order import JoinResult, Presentation, PresentationError, oracle_join, verify_join
from wqlat.presets import get_presentation
from wqlat.words import EMPTY, FreeGroup, is_positive_word, positive_words, reduce_word, word_inv, word_mul, word_pow

from conftest import ball_of, pres_of

HM = pres_of("hnn-:x,y@x,y")
HP = pres_of("hnn+:x,y@x,y")
F = FreeGroup(2, ("x", "y"))

# HNN presets with |u| = 1 and with |u| > 1, in both modes.
LAW_PRESETS = ("hnn+:x,y@x,y", "hnn-:x,y@x,y", "hnn+:xy,yx@x,y", "hnn-:xy,x@x,y")

# Signed letters over x, y and t (index 2).
signed_letters = st.lists(st.tuples(st.integers(min_value=0, max_value=2), st.sampled_from((1, -1))), max_size=12)


def omega(u):
    """{e} together with every nonempty suffix of u."""
    if not (u and is_positive_word(u)):
        raise PresentationError("u must be a nonempty positive word")
    return {EMPTY} | {u[i:] for i in range(len(u))}


def power_exponent(base, h):
    """m with h = base^m, or None."""
    if not h:
        return 0
    if len(h) % len(base):
        return None
    m = len(h) // len(base)
    if h == word_pow(base, m):
        return m
    if h == word_pow(base, -m):
        return -m
    return None


def random_free_word(rng, max_len=8, n_gens=2):
    return reduce_word(
        [(rng.randrange(n_gens), rng.choice((1, -1))) for _ in range(rng.randrange(max_len + 1))]
    )


def reference_strip_powers(h, u):
    """``strip_powers`` as it was before the fixed-offset blocks: the whole word re-sliced per step."""
    m = 0
    uinv = word_inv(u)
    while len(u) <= len(h) and h[len(h) - len(u):] == u:
        h = h[: len(h) - len(u)]
        m += 1
    if m == 0:
        while len(u) <= len(h) and h[len(h) - len(u):] == uinv:
            h = h[: len(h) - len(u)]
            m -= 1
    return h, m


@pytest.mark.parametrize("u_text", ["x", "x y", "x x", "x y x", "y x^-1"])
def test_strip_powers_matches_the_slicing_loop(u_text):
    u, rng = F.parse(u_text), random.Random(u_text)
    for _ in range(1500):
        h = word_mul(random_free_word(rng), word_pow(u, rng.randrange(-5, 6)))
        assert strip_powers(h, u) == reference_strip_powers(h, u)


class TestCosetMachinery:
    def test_omega(self):
        f = FreeGroup(2, ("x", "y"))
        xy = f.parse("x y")
        assert omega(xy) == {EMPTY, f.parse("y"), xy}
        assert omega(f.parse("x")) == {EMPTY, f.parse("x")}
        assert omega(f.parse("x x")) == {EMPTY, f.parse("x"), f.parse("x x")}

    def test_rep_of_pure_power(self):
        u = F.parse("x y")
        assert coset_rep(u, F.parse("x y x y")) == (EMPTY, 2)

    def test_rep_with_clean_prefix(self):
        f = FreeGroup(3, ("x", "y", "a"))
        u = f.parse("x y")
        assert coset_rep(u, f.parse("a x y")) == (f.parse("a"), 1)

    def test_rep_of_identity(self):
        assert coset_rep(F.parse("x"), EMPTY) == (EMPTY, 0)

    def test_rep_after_prefix_cancellation(self):
        # x^-1 = y (x y)^-1, and y is anchored on the suffix of u = x y.
        u = F.parse("x y")
        rep, m = coset_rep(u, F.parse("x^-1"))
        assert (rep, m) == (F.parse("y"), -1)

    def test_coset_map_is_memoised_with_a_bound(self):
        u, h = F.parse("x y"), F.parse("y^-1 x^3 y")
        hits = coset_rep.cache_info().hits
        assert coset_rep(u, h) == coset_rep(u, h)
        info = coset_rep.cache_info()
        assert info.maxsize is not None
        assert info.hits > hits

    @pytest.mark.parametrize("u_text", ["x", "x y", "x x", "x y x"])
    def test_rep_properties(self, u_text):
        u = F.parse(u_text)
        rng = random.Random(7)
        seen = {}
        for _ in range(600):
            h = random_free_word(rng)
            rep, m = coset_rep(u, h)
            assert word_mul(rep, word_pow(u, m)) == h
            for power in (1, -1):
                assert not (
                    len(rep) >= len(u) and rep[len(rep) - len(u):] == word_pow(u, power)
                )
            # Distinct representatives must mean distinct cosets.
            key = rep
            quotient = word_mul(word_inv(h), word_mul(rep, word_pow(u, m)))
            assert power_exponent(u, quotient) is not None
            if key in seen:
                assert power_exponent(u, word_mul(word_inv(seen[key]), h)) is not None
            else:
                seen[key] = h


class TestNormalForm:
    def test_single_stable_letter(self):
        same = HnnExtension(FreeGroup(1, ("x",)), ((0, 1),), ((0, 1),), MINUS)
        t = same.parse("t")
        assert t == ((EMPTY, EMPTY), (1,))

    def test_minus_relator_collapses(self):
        assert HM.parse("x t y") == HM.parse("t")

    def test_plus_relator_pushes_right(self):
        assert HP.canonical_str(HP.parse("x t")) == "t y"

    @pytest.mark.parametrize("pres", [HM, HP], ids=lambda p: p.name)
    def test_soundness_fuzz(self, pres):
        rng = random.Random(23)
        names = pres.base.gen_names + ("t",)
        for _ in range(1200):
            u = [(rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randrange(10))]
            v = [(rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randrange(10))]
            left = pres.normal_form(u + v + [(g, -s) for g, s in reversed(v)])
            assert left == pres.normal_form(u)

    @pytest.mark.parametrize("pres", [HM, HP], ids=lambda p: p.name)
    def test_mul_inv_consistency(self, pres):
        rng = random.Random(29)
        for _ in range(400):
            u = pres.normal_form([(rng.randrange(3), rng.choice((1, -1))) for _ in range(8)])
            v = pres.normal_form([(rng.randrange(3), rng.choice((1, -1))) for _ in range(8)])
            assert pres.mul(u, pres.inv(u)) == pres.identity()
            assert pres.inv(pres.inv(u)) == u
            assert pres.mul(pres.mul(u, v), pres.inv(v)) == u


@pytest.mark.parametrize("name", LAW_PRESETS)
class TestSyllableArithmetic:
    """Products and inverses one syllable at a time against the letter sweep."""

    @given(signed_letters, signed_letters)
    def test_mul_matches_letter_at_a_time(self, name, a, b):
        pres = pres_of(name)
        x, y = pres.normal_form(a), pres.normal_form(b)
        assert pres.mul(x, y) == pres.normal_form(pres._letters(x) + pres._letters(y))

    @given(signed_letters)
    def test_inv_matches_reversed_letters(self, name, a):
        pres = pres_of(name)
        x = pres.normal_form(a)
        assert pres.inv(x) == pres.normal_form([(g, -s) for g, s in reversed(pres._letters(x))])

    @given(signed_letters, signed_letters, signed_letters)
    def test_group_laws(self, name, a, b, c):
        pres = pres_of(name)
        x, y, z = pres.normal_form(a), pres.normal_form(b), pres.normal_form(c)
        assert pres.mul(pres.mul(x, y), z) == pres.mul(x, pres.mul(y, z))
        assert pres.mul(x, pres.inv(x)) == pres.identity()
        assert pres.mul(pres.inv(x), x) == pres.identity()


class TestPositivity:
    def test_minus_twisted_tail(self):
        x = HM.parse("t y^-1")
        assert HM.is_positive(x)
        assert x == HM.parse("x t")
        witness = HM.positive_witness(x)
        assert all(sign == 1 for _, sign in witness)
        assert HM.normal_form(witness) == x

    def test_plus_tail(self):
        assert HP.is_positive(HP.parse("t y"))

    def test_negative_stable_letter(self):
        assert not HM.is_positive(HM.parse("t^-1"))
        assert not HP.is_positive(HP.parse("t^-1"))

    def test_minus_positive_words_are_recognised(self):
        # Soundness both ways on the set of honest positive words.
        for letters in positive_words(3, 5):
            x = HM.normal_form(letters)
            assert HM.is_positive(x)

    @pytest.mark.parametrize("pres", [HM, HP], ids=lambda p: p.name)
    def test_criterion_agrees_with_word_enumeration(self, pres):
        # Every value of a positive word of length <= 8 must be accepted,
        # and no element of a short signed word that the criterion rejects
        # may appear among them.
        accepted = {pres.normal_form(letters) for letters in positive_words(3, 8)}
        for x in accepted:
            assert pres.is_positive(x)
        from itertools import product as iproduct

        signed = [(g, s) for g in range(3) for s in (1, -1)]
        for n in range(4):
            for letters in iproduct(signed, repeat=n):
                x = pres.normal_form(letters)
                if not pres.is_positive(x):
                    assert x not in accepted

    @pytest.mark.parametrize("pres", [HM, HP], ids=lambda p: p.name)
    def test_witness_round_trip_on_ball(self, pres):
        for x in ball_of(pres.name, 5):
            witness = pres.positive_witness(x)
            assert witness is not None
            assert all(sign == 1 for _, sign in witness)
            assert pres.normal_form(witness) == x


class TestDoubleCosets:
    def setup_method(self):
        base = FreeGroup(3, ("x", "y", "a"))
        self.pres = HnnExtension(base, base.parse("x"), base.parse("y"), MINUS)
        self.base = base

    def test_positive_word_trivial_witness(self):
        assert self.pres.double_coset_positive(self.base.parse("a x")) is not None

    def test_twisted_witness(self):
        m, n = self.pres.double_coset_positive(self.base.parse("y^-2 a"))
        u, w = self.base.parse("x"), self.base.parse("y")
        h = self.base.parse("y^-2 a")
        assert all(
            s == 1 for _, s in word_mul(word_pow(w, m), word_mul(h, word_pow(u, n)))
        )

    def test_inverse_generator_has_none(self):
        assert self.pres.double_coset_positive(self.base.parse("a^-1")) is None

    def test_closed_forms_are_memoised_with_a_bound(self):
        h = self.base.parse("y^-2 a")
        for search in (self.pres.double_coset_positive, self.pres.w_power_decomposition):
            assert search(h) == search(h)
            info = search.cache_info()
            assert (info.maxsize, info.hits, info.misses) == (4096, 1, 1)

    def test_positivity_memo_is_bounded_and_evicts_nothing_on_the_radius_6_ball(self):
        pres = get_presentation("hnn-:x,y@x,y")
        pres.enumerate_ball(6).order()
        info = pres._pos_cache.cache_info()
        assert (info.maxsize, info.misses, info.currsize) == (POS_CACHE_SIZE, 2857, 2857)

    def test_positivity_misses_reach_the_class_method(self, monkeypatch):
        pres = get_presentation("hnn-:x,y@x,y")
        calls = []
        inner = HnnExtension._is_positive
        monkeypatch.setattr(HnnExtension, "_is_positive", lambda self, x: calls.append(x) or inner(self, x))
        t = pres.t()
        assert [pres.is_positive(t), pres.is_positive(t)] == [True, True] and calls == [t]

    def test_parts_multiply_without_a_wrapper(self):
        assert (HnnExtension._part_mul, HnnExtension._part_inv) == (word_mul, word_inv)
        assert (BaumslagSolitar._part_mul, BaumslagSolitar._part_inv) == (operator.add, operator.neg)

    def test_closed_form_matches_a_doubled_window(self):
        # The closed form finds a positive w^m h u^n exactly when a
        # brute-force search over a doubled (m, n) window, negative powers
        # included, finds one.
        rng = random.Random(41)
        u, w = self.base.parse("x"), self.base.parse("y")
        for _ in range(200):
            h = random_free_word(rng, 6, 3)
            got = self.pres.double_coset_positive(h)
            wide = None
            bound_m = 2 * (len(h) // len(w) + 2)
            bound_n = 2 * (len(h) // len(u) + 2)
            for m in range(-bound_m, bound_m + 1):
                for n in range(-bound_n, bound_n + 1):
                    cand = word_mul(word_pow(w, m), word_mul(h, word_pow(u, n)))
                    if all(s == 1 for _, s in cand):
                        wide = (m, n)
                        break
                if wide:
                    break
            assert (got is None) == (wide is None)


class TestHeightsAndStems:
    def test_heights(self):
        assert HM.height(HM.parse("t t")) == 2
        assert HM.height(HM.parse("x y")) == 0
        assert HM.height(HM.parse("t^-1")) == -1

    def test_stem(self):
        assert HP.stem(HP.parse("t y")) == HP.parse("t")
        assert HP.stem(HP.parse("x t")) == HP.parse("t")
        assert HM.stem(HM.parse("x y")) == HM.identity()

    def test_height_order_preserving(self):
        for pres in (HM, HP):
            ball = ball_of(pres.name, 4)
            for x in ball:
                for y in ball:
                    if pres.leq(x, y):
                        assert pres.height(x) <= pres.height(y)


class TestJoins:
    def test_minus_right_multiple(self):
        t, ty = HM.parse("t"), HM.parse("t y")
        assert HM.join(t, ty) == JoinResult.finite(ty)

    def test_minus_equal_elements(self):
        xt, tyinv = HM.parse("x t"), HM.parse("t y^-1")
        assert HM.join(xt, tyinv) == JoinResult.finite(xt)

    def test_plus_distinct_tail_generators(self):
        pres = get_presentation("hnn+:x,y@x,y,a,b")
        ta, tb = pres.parse("t a"), pres.parse("t b")
        assert pres.join(ta, tb).is_infinite

    def test_join_requires_positive(self):
        with pytest.raises(PresentationError):
            HM.join(HM.parse("t^-1"), HM.parse("t"))

    def test_minus_descending_chain(self):
        w = HM.parse("y")
        chain = [HM.mul(HM.parse("t"), HM.inv(HM.normal_form(((1, 1),) * n))) for n in range(6)]
        for n in range(5):
            assert HM.leq(chain[n + 1], chain[n])
            assert not HM.leq(chain[n], chain[n + 1])
        ball = ball_of(HM.name, 5)
        for x in ball:
            if HM.height(x) == 1:
                assert any(not HM.leq(x, c) for c in chain)

    def test_plus_join_matches_oracle_ball4(self):
        ball = ball_of(HP.name, 4)
        big = ball_of(HP.name, 6)
        for x in ball:
            for y in ball:
                r = HP.join(x, y)
                o = oracle_join(big, x, y)
                if r.is_finite and r.value in big:
                    assert o == r
                elif r.is_infinite:
                    assert not o.is_finite
                else:
                    assert not o.is_finite

    def test_plus_ball4_has_no_inconclusive_join(self):
        ball = ball_of(HP.name, 4)
        assert not [(x, y) for x in ball for y in ball if HP.join(x, y).is_inconclusive]

    def test_plus_unequal_height_join_is_an_upper_bound(self):
        # Against the generic leq, not the family's row hook.
        ball = ball_of(HP.name, 4)
        finite = 0
        for x in ball:
            for y in ball:
                if HP.height(x) == HP.height(y):
                    continue
                r = HP.join(x, y)
                if r.is_finite:
                    finite += 1
                    assert Presentation.leq(HP, x, r.value) and Presentation.leq(HP, y, r.value)
        assert finite

    @pytest.mark.parametrize("name", ["hnn+:xy,x@x,y", "hnn+:x,yx@x,y", "hnn+:xy,yx@x,y"])
    def test_plus_join_matches_oracle_ball3(self, name):
        pres = pres_of(name)
        ball, big = ball_of(name, 3), ball_of(name, 5)
        for x in ball:
            for y in ball:
                r = pres.join(x, y)
                assert not r.is_inconclusive
                if r.is_infinite:
                    assert not (big.leq_row(big.position(x)) & big.leq_row(big.position(y))).any()
                elif r.value in big:
                    assert oracle_join(big, x, y) == r
                else:
                    assert verify_join(big, x, y, r.value)

    def test_minus_comparability(self):
        ball = ball_of(HM.name, 3)
        big = ball_of(HM.name, 5)
        for x in ball:
            for y in ball:
                if (big.leq_row(big.position(x)) & big.leq_row(big.position(y))).any():
                    assert HM.leq(x, y) or HM.leq(y, x)
