import numpy as np
import pytest
from hypothesis import given, strategies as st

from wqlat.order import EXPONENT_CAP, LETTER_CAP, JoinResult, PresentationError, oracle_join
from wqlat.words import (
    EMPTY,
    FreeGroup,
    ScarparoCone,
    parse_word,
    reduce_word,
    word_inv,
    word_mul,
    word_pow,
)

from conftest import ball_of

F2 = FreeGroup(2, ("a", "b"))

letters = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1), st.sampled_from((1, -1))),
    max_size=14,
)


def w(text):
    return F2.parse(text)


class TestReduce:
    def test_forced_cancellation(self):
        assert reduce_word([(0, 1), (1, 1), (1, -1)]) == ((0, 1),)

    def test_empty_is_identity(self):
        assert reduce_word([]) == EMPTY

    def test_leading_cancellation(self):
        assert reduce_word([(0, -1), (0, 1), (1, 1)]) == ((1, 1),)

    @given(letters)
    def test_idempotent_retraction(self, raw):
        once = reduce_word(raw)
        assert reduce_word(once) == once

    @given(letters, letters)
    def test_mul_matches_reduce_of_concat(self, r1, r2):
        assert word_mul(reduce_word(r1), reduce_word(r2)) == reduce_word(r1 + r2)


class TestExponentGrammar:
    """``name^k`` takes an ASCII ``-?[0-9]+`` exponent of at most ``EXPONENT_CAP``."""

    @pytest.mark.parametrize("token", ["a^+3", "a^1_000", "a^\u0663", "a^3.0", "a^--1", "a^ 3"])
    def test_only_ascii_digits(self, token):
        with pytest.raises(PresentationError, match="malformed exponent"):
            parse_word(token, ("a",))

    @pytest.mark.parametrize(
        "text",
        ["a^99999999999999999999999", f"a^{EXPONENT_CAP + 1}", f"a^-{EXPONENT_CAP + 1}", "a^" + "9" * 5000],
        ids=["23-digits", "cap+1", "-(cap+1)", "5000-digits"],
    )
    def test_refused_before_it_is_expanded(self, text):
        with pytest.raises(PresentationError, match=f"exceeds {EXPONENT_CAP}"):
            parse_word(text, ("a",))

    @pytest.mark.parametrize(
        "text,letters",
        [("a^003", [(0, 1)] * 3), ("a^-0", []), ("a^-2", [(0, -1)] * 2), ("a^000000000000000000000001", [(0, 1)])],
    )
    def test_accepted_exponents_read_as_before(self, text, letters):
        assert parse_word(text, ("a",)) == letters

    def test_the_cap_itself_is_accepted(self):
        assert len(parse_word(f"a^-{EXPONENT_CAP}", ("a",))) == EXPONENT_CAP


class TestLetterCap:
    """No word passes ``LETTER_CAP`` letters: parsed text and powers are refused before they are expanded."""

    def test_parsed_letters_are_counted_across_tokens(self):
        tokens = LETTER_CAP // EXPONENT_CAP
        assert len(parse_word(" ".join([f"a^{EXPONENT_CAP}"] * tokens), ("a",))) == LETTER_CAP
        with pytest.raises(PresentationError, match=f"word of {LETTER_CAP + 1} letters exceeds {LETTER_CAP}"):
            parse_word(" ".join([f"a^{EXPONENT_CAP}"] * tokens + ["b"]), ("a", "b"))

    def test_power_refused_before_it_is_expanded(self):
        ab = ((0, 1), (1, 1))
        assert word_pow(ab, -2) == ((1, -1), (0, -1)) * 2
        for n in (LETTER_CAP // 2 + 1, -(10**30)):
            with pytest.raises(PresentationError, match=f"exceeds {LETTER_CAP}"):
                word_pow(ab, n)


def reference_pow(x, n):
    """x^n as it was computed before the one-pass power: n products onto a growing prefix."""
    if n < 0:
        return reference_pow(word_inv(x), -n)
    out = EMPTY
    for _ in range(n):
        out = word_mul(out, x)
    return out


def test_power_matches_the_product_loop():
    # Words that are conjugates a c a^-1 of every depth, c of every length.
    import random

    rng = random.Random(5)
    for _ in range(4000):
        x = reduce_word([(rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randrange(9))])
        a = reduce_word([(rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randrange(4))])
        x = word_mul(word_mul(a, x), word_inv(a))
        n = rng.randrange(-6, 7)
        assert word_pow(x, n) == reference_pow(x, n)


class TestGroupOps:
    def test_mul(self):
        assert F2.mul(w("a"), w("b")) == w("a b")

    def test_inv(self):
        assert F2.inv(w("a b")) == w("b^-1 a^-1")

    def test_mul_cancels(self):
        assert F2.mul(w("a b"), w("b^-1")) == w("a")

    @given(letters)
    def test_mul_inverse_is_identity(self, raw):
        x = reduce_word(raw)
        assert word_mul(x, word_inv(x)) == EMPTY

    def test_alphabet_mismatch(self):
        with pytest.raises(PresentationError):
            F2.mul(((5, 1),), w("a"))


class TestPositivityAndJoin:
    def test_is_positive(self):
        assert F2.is_positive(w("a b"))
        assert not F2.is_positive(w("a^-1"))
        assert F2.is_positive(EMPTY)

    def test_join_prefix(self):
        assert F2.join(w("a"), w("a b")) == JoinResult.finite(w("a b"))

    def test_join_infinite(self):
        assert F2.join(w("a"), w("b")).is_infinite

    def test_join_identity(self):
        assert F2.join(EMPTY, w("b a")) == JoinResult.finite(w("b a"))

    def test_join_rejects_negative(self):
        with pytest.raises(PresentationError):
            F2.join(w("a^-1"), w("a"))

    def test_join_matches_oracle_on_ball(self):
        ball = ball_of("free:2", 4)
        for x in ball:
            for y in ball:
                r = F2.join(x, y)
                o = oracle_join(ball, x, y)
                if r.is_finite and r.value in ball:
                    assert o == r
                else:
                    assert not o.is_finite


class TestPartialOrderAxioms:
    def test_free_ball5_is_partial_order(self):
        ball = ball_of("free:2", 5)
        n = len(ball)
        rel = ball.order()
        assert rel.diagonal().all()
        assert not (rel & rel.T & ~np.eye(n, dtype=bool)).any()
        closure = (rel.astype(int) @ rel.astype(int)) > 0
        assert not (closure & ~rel).any()


class TestScarparo:
    cone = ScarparoCone()

    def test_membership(self):
        assert self.cone.is_positive(self.cone.parse("b a"))
        assert not self.cone.is_positive(self.cone.parse("a"))
        assert self.cone.is_positive(EMPTY)

    def test_cone_closed_under_products(self):
        ball = ball_of("scarparo", 3)
        for x in ball:
            for y in ball:
                assert self.cone.is_positive(self.cone.mul(x, y))

    def test_join_of_comparables(self):
        b, bb = self.cone.parse("b"), self.cone.parse("b^2")
        assert self.cone.join(EMPTY, b) == JoinResult.finite(b)
        assert self.cone.join(b, bb) == JoinResult.finite(bb)

    def test_join_b_ba_has_no_common_upper_bound(self):
        # b^-1(b a) = a lies outside the cone, so b and ba are incomparable
        # there and, the cone being free on {b a^k}, have no upper bound.
        b, ba = self.cone.parse("b"), self.cone.parse("b a")
        assert not self.cone.leq(b, ba)
        assert self.cone.join(b, ba).is_infinite
        ball = ball_of("scarparo", 6)
        i, j = ball.position(b), ball.position(ba)
        assert not (ball.leq_row(i) & ball.leq_row(j)).any()

    def test_join_ba_bb_infinite(self):
        ba, bb = self.cone.parse("b a"), self.cone.parse("b^2")
        assert self.cone.join(ba, bb).is_infinite
        ball = ball_of("scarparo", 6)
        assert not (ball.leq_row(ball.position(ba)) & ball.leq_row(ball.position(bb))).any()

    def test_join_requires_cone_members(self):
        with pytest.raises(PresentationError):
            self.cone.join(self.cone.parse("a"), EMPTY)


def largest_common_suffix(h, u):
    """Longest word that is a suffix of both reduced words."""
    n = 0
    while n < len(h) and n < len(u) and h[len(h) - 1 - n] == u[len(u) - 1 - n]:
        n += 1
    return h[len(h) - n:]


class TestSuffix:
    def test_examples(self):
        f = FreeGroup(3, ("x", "y", "a"))
        assert largest_common_suffix(f.parse("x y"), f.parse("y")) == f.parse("y")
        assert largest_common_suffix(f.parse("x"), f.parse("y")) == EMPTY
        assert largest_common_suffix(f.parse("a x y"), f.parse("x y")) == f.parse("x y")
