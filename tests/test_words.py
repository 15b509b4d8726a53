import random
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wqlat.order import EXPONENT_CAP, LETTER_CAP, JoinResult, PresentationError, check_letter_cap, oracle_join
from wqlat.words import (
    EMPTY,
    CyclicFreeGroup,
    FreeGroup,
    ScarparoCone,
    letter_sum,
    parse_word,
    reduce_word,
    word_inv,
    word_mul,
    word_pow,
)

from conftest import README_PRESETS, ball_of, pres_of, short

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


class TestOddAlphabets:
    """Alphabets the library accepts but no preset uses, read as by the per-token grammar.

    ``e`` is the identity even when it is also a generator name, while
    ``e^k`` still names the letter; the first of equal names wins; and a
    token's name ends at its first ``^``.
    """

    @pytest.mark.parametrize(
        "text,alphabet,letters",
        [
            ("e", ("e",), []),
            ("e^1", ("e",), [(0, 1)]),
            ("e", ("e", "f"), []),
            ("e e^-1", ("e", "f"), [(0, -1)]),
            ("f e e^2 e", ("e", "f"), [(1, 1), (0, 1), (0, 1)]),
        ],
    )
    def test_identity_ahead_of_the_alphabet(self, text, alphabet, letters):
        assert parse_word(text, alphabet) == letters

    def test_first_of_equal_names(self):
        assert parse_word("a a^-1 a^2", ("a", "a")) == [(0, 1), (0, -1), (0, 1), (0, 1)]
        assert FreeGroup(1, ("e",)).parse("e^2 e") == ((0, 1), (0, 1))

    def test_a_name_holding_a_caret_is_never_read(self):
        assert parse_word("a^1 a^-1", ("a^1", "a", "a^-1")) == [(1, 1), (1, -1)]
        with pytest.raises(PresentationError, match="unknown generator 'b'"):
            parse_word("b^c", ("b^c",))


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


_SHORT_EXPONENT = re.compile(r"-?0*[0-9]{1,6}")
_EXPONENT = re.compile(r"-?[0-9]+")


def parse_word_reference(text, gen_names):
    """The grammar read one token at a time, as it was before the token table."""
    letters = []
    for token in text.split():
        if token == "e":
            continue
        name, caret, exp_text = token.partition("^")
        try:
            idx = gen_names.index(name)
        except ValueError:
            raise PresentationError(f"unknown generator {name!r}") from None
        exp = 1
        if caret:
            exp = int(exp_text) if _SHORT_EXPONENT.fullmatch(exp_text) else None
            if exp is None or abs(exp) > EXPONENT_CAP:
                if not _EXPONENT.fullmatch(exp_text):
                    raise PresentationError(f"malformed exponent in token {token!r}")
                raise PresentationError(f"exponent in token {token!r} exceeds {EXPONENT_CAP}")
        check_letter_cap(len(letters) + abs(exp))
        sign = 1 if exp >= 0 else -1
        letters.extend([(idx, sign)] * abs(exp))
    return letters


def parsed(parse, text, alphabet):
    """The letters ``parse`` reads, or the message of the ``PresentationError`` it raises."""
    try:
        return parse(text, alphabet)
    except PresentationError as err:
        return f"error: {err}"


def alphabets(name):
    """The alphabets a preset's element text is read in: its own, or each vertex group's."""
    pres = pres_of(name)
    vertices = getattr(pres, "vertices", None)
    return [v.gen_names for v in vertices] if vertices is not None else [pres.gen_names]


def random_token(rng, alphabet):
    """Mostly ``name`` and ``name^-1``; then exponents, ``e``, unknown names and malformed exponents."""
    name, kind = rng.choice(alphabet), rng.randrange(20)
    if kind < 8:
        return name
    if kind < 12:
        return f"{name}^-1"
    if kind < 14:
        return f"{name}^{rng.choice((0, 1, -1, 2, -3, '003', '-0', EXPONENT_CAP + 1, -EXPONENT_CAP - 1))}"
    if kind == 14:
        return f"{name}^{rng.choice((EXPONENT_CAP, -EXPONENT_CAP))}" if rng.random() < 0.2 else "e"
    if kind < 17:
        return rng.choice(("e", "e", "e^1", "e^-1", "z", "zz", name + name, name.upper(), "^1", "^-1"))
    if kind < 19 and rng.random() < 0.5:
        return name + rng.choice(("^", "^+1", "^1_0", "^\u0663", "^--1", "^-", "^1.0", "^^1", "^-\u0661", "^ 1"))
    return name


# Token streams that cross LETTER_CAP through single-letter tokens and through an exponent token.
FULL = " ".join([f"a^{EXPONENT_CAP}"] * (LETTER_CAP // EXPONENT_CAP - 1))
CAP_TEXTS = (
    FULL + " a" * EXPONENT_CAP,
    FULL + " a" * EXPONENT_CAP + " e b",
    FULL + " a^-1" * EXPONENT_CAP + " a^-1",
    FULL + " b" * (EXPONENT_CAP - 1) + " b^2",
    FULL + " b" * (EXPONENT_CAP - 1) + " e a^1",
    FULL + f" a^{EXPONENT_CAP} e",
    FULL + f" a^-{EXPONENT_CAP} b",
)


class TestTokenTable:
    """The token table reads every text as the per-token reference does, errors and their messages included."""

    @pytest.mark.parametrize("name", README_PRESETS + ("free:1",), ids=short)
    def test_seeded_stream_matches_the_reference(self, name):
        rng = random.Random(f"token-table {short(name)}")
        for alphabet in alphabets(name):
            for _ in range(1500):
                text = rng.choice((" ", "  ", "\t", "\n")).join(
                    random_token(rng, alphabet) for _ in range(rng.randrange(9))
                )
                assert parsed(parse_word, text, alphabet) == parsed(parse_word_reference, text, alphabet), text

    @pytest.mark.parametrize("text", CAP_TEXTS, ids=range(len(CAP_TEXTS)))
    def test_letter_cap_matches_the_reference(self, text):
        assert parsed(parse_word, text, ("a", "b")) == parsed(parse_word_reference, text, ("a", "b"))


def cyclic_sum(text, alphabet):
    return CyclicFreeGroup().parse(text)


def cyclic_sum_reference(text, alphabet):
    """The letters of the text, expanded and then summed: ``CyclicFreeGroup.parse`` before it summed tokens."""
    return letter_sum(parse_word(text, alphabet))


# Besides CAP_TEXTS: the cap crossed by a letter after an exponent token, and by an exponent token.
CYCLIC_CAP_TEXTS = CAP_TEXTS + (FULL + f" a^{EXPONENT_CAP} a", FULL + " a" * (EXPONENT_CAP - 1) + " a^-2")


class TestCyclicSum:
    """``free:1`` sums its tokens to the letter sum of the parsed letters, errors and their messages included."""

    def test_seeded_stream_matches_the_reference(self):
        rng = random.Random("cyclic-sum")
        for _ in range(3000):
            text = rng.choice((" ", "  ", "\t", "\n")).join(random_token(rng, ("a",)) for _ in range(rng.randrange(9)))
            assert parsed(cyclic_sum, text, ("a",)) == parsed(cyclic_sum_reference, text, ("a",)), text

    @pytest.mark.parametrize("text", CYCLIC_CAP_TEXTS, ids=range(len(CYCLIC_CAP_TEXTS)))
    def test_letter_cap_matches_the_reference(self, text):
        assert parsed(cyclic_sum, text, ("a",)) == parsed(cyclic_sum_reference, text, ("a",))


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
