"""Free groups and free monoids on a finite alphabet.

Words are stored as tuples of signed letters ``(gen, sign)`` with ``gen`` a
generator index and ``sign`` in ``{+1, -1}``, always freely reduced.  The
empty tuple is the identity.  On top of the raw word algebra this module
provides the prefix order of the free monoid and Scarparo's cone
``{e} | b * F+``, both of which are exact weak quasi-lattices.  The cone is
a ``FreeGroup`` on a, b with its own positivity, order and join; every
other operation is the free group's.
"""

from __future__ import annotations

import re
import string
from typing import Iterable, Sequence

import numpy as np

from .controlled import Morphism
from .order import EXPONENT_CAP, IntGroup, JoinResult, Presentation, PresentationError, check_letter_cap

FWord = tuple  # tuple[tuple[int, int], ...]

EMPTY: FWord = ()

# Cells of the rows x columns x letters comparison in ``positive_quotients``
# held at once: bounds its memory whatever the number of words.
QUOTIENT_CHUNK_CELLS = 1 << 18

# The exponent of a token ``name^k`` is ASCII ``-?[0-9]+``: ``+3``, ``1_000``
# and non-ASCII digits, all of which ``int`` reads, are refused.  Exponents of
# at most six significant digits take the first pattern, so ``int`` never
# converts a long one; a longer digit string exceeds ``EXPONENT_CAP``.
_SHORT_EXPONENT = re.compile(r"-?0*[0-9]{1,6}")
_EXPONENT = re.compile(r"-?[0-9]+")


def reduce_word(raw: Iterable[tuple[int, int]]) -> FWord:
    """Freely reduce a sequence of signed letters."""
    out: list[tuple[int, int]] = []
    for gen, sign in raw:
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {sign}")
        if out and out[-1][0] == gen and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((gen, sign))
    return tuple(out)


def word_mul(x: FWord, y: FWord) -> FWord:
    """Product of two reduced words, cancelling at the junction only."""
    xs = list(x)
    i = 0
    while xs and i < len(y) and xs[-1][0] == y[i][0] and xs[-1][1] == -y[i][1]:
        xs.pop()
        i += 1
    return tuple(xs) + tuple(y[i:])


def word_inv(x: FWord) -> FWord:
    return tuple((gen, -sign) for gen, sign in reversed(x))


def word_pow(x: FWord, n: int) -> FWord:
    """x^n in one pass: with x = a c a^-1 and c cyclically reduced, x^n = a c^n a^-1, reduced as written."""
    if n < 0:
        x, n = word_inv(x), -n
    check_letter_cap(len(x) * n)
    if n == 0:
        return EMPTY
    k = 0
    while 2 * k + 1 < len(x) and x[k][0] == x[-1 - k][0] and x[k][1] == -x[-1 - k][1]:
        k += 1
    return x[:k] + x[k:len(x) - k] * n + x[len(x) - k:]


def letter_sum(x: FWord) -> int:
    """Exponent sum of a word: its length when the word is positive."""
    return sum(sign for _, sign in x)


def is_positive_word(x: FWord) -> bool:
    return all(sign == 1 for _, sign in x)


def _letter_codes(words: Sequence[FWord], width: int) -> np.ndarray:
    """Words as rows of letter codes sign * (gen + 1), zero-padded to ``width``."""
    flat = [sign * (gen + 1) for word in words for gen, sign in word]
    dtype = np.int8 if max(map(abs, flat), default=0) <= np.iinfo(np.int8).max else np.int32
    codes = np.zeros((len(words), width), dtype=dtype)
    lengths = np.fromiter(map(len, words), dtype=np.intp, count=len(words))
    codes[np.arange(width) < lengths[:, None]] = flat
    return codes


def _suffix_all(mask: np.ndarray) -> np.ndarray:
    """``out[i, k]``: ``mask[i, k:]`` is all true."""
    return np.logical_and.accumulate(mask[:, ::-1], axis=1)[:, ::-1]


def positive_quotients(us: Sequence[FWord], vs: Sequence[FWord]) -> np.ndarray:
    """Boolean ``len(us) x len(vs)`` matrix of "u^-1 v is a positive word".

    Let c be the longest common prefix of the reduced words u and v, so
    u = c u' and v = c v'.  Then u^-1 v = u'^-1 v', and this word is
    reduced: u' and v' do not start with the same letter, so the last
    letter of u'^-1 does not cancel the first letter of v'.  A reduced word
    is positive exactly when every letter is, so u^-1 v is positive iff u'
    has no positive letter and v' no negative one.

    Each word is a row of letter codes with at least one trailing 0.  The
    length k of c is the first column where the rows of u and v differ, or
    the last column if they never do (then u = v and u', v' are empty).
    ``negsuf[u, k]`` (no positive code from column k on) and
    ``possuf[v, k]`` (no negative code from k on) give the entry.  The
    comparison is made in chunks of rows of at most ``QUOTIENT_CHUNK_CELLS``
    cells, or of one row (``len(vs) * width`` cells) if that is more, so its
    memory does not grow with ``len(us)``.
    """
    width = max(map(len, (*us, *vs)), default=0) + 1
    ucodes, vcodes = _letter_codes(us, width), _letter_codes(vs, width)
    negsuf, possuf = _suffix_all(ucodes <= 0), _suffix_all(vcodes >= 0)
    out = np.empty((len(us), len(vs)), dtype=bool)
    cols = np.arange(len(vs))
    step = max(1, QUOTIENT_CHUNK_CELLS // max(1, len(vs) * width))
    for start in range(0, len(us), step):
        stop = min(start + step, len(us))
        differ = ucodes[start:stop, None, :] != vcodes[None, :, :]
        differ[:, :, -1] = True
        k = differ.argmax(axis=2)
        out[start:stop] = np.take_along_axis(negsuf[start:stop], k, axis=1) & possuf[cols, k]
    return out


def is_prefix(x: FWord, y: FWord) -> bool:
    return len(x) <= len(y) and y[: len(x)] == x


def positive_words(n_gens: int, max_len: int) -> list[FWord]:
    """All positive words of length at most ``max_len``, shortest first."""
    out: list[FWord] = [EMPTY]
    layer: list[FWord] = [EMPTY]
    for _ in range(max_len):
        layer = [w + ((g, 1),) for w in layer for g in range(n_gens)]
        out.extend(layer)
    return out


def default_gen_names(n: int) -> tuple[str, ...]:
    """The first n lowercase letters other than ``e``, the identity token."""
    letters = string.ascii_lowercase.replace("e", "")
    if n > len(letters):
        raise PresentationError(f"at most {len(letters)} named generators supported")
    return tuple(letters[:n])


class FreeGroup(Presentation):
    """The pair (F, F+): free group with the free monoid as positive cone.

    The order on F+ is the prefix order; two positive words have a common
    upper bound exactly when one is a prefix of the other, so the join is
    never inconclusive.
    """

    family = "free"

    def __init__(self, n_gens: int, gen_names: Sequence[str] | None = None):
        if n_gens < 1:
            raise PresentationError("need at least one generator")
        self.n_gens = n_gens
        self.gen_names = tuple(gen_names) if gen_names else default_gen_names(n_gens)
        if len(self.gen_names) != n_gens:
            raise ValueError("generator name count mismatch")

    def __repr__(self):
        return f"FreeGroup({self.n_gens})"

    @property
    def name(self) -> str:
        return f"free:{self.n_gens}"

    def identity(self) -> FWord:
        return EMPTY

    def gen(self, i: int, sign: int = 1) -> FWord:
        if not 0 <= i < self.n_gens:
            raise PresentationError(f"generator index {i} out of range")
        return ((i, sign),)

    def mul(self, x: FWord, y: FWord) -> FWord:
        self._check(x)
        self._check(y)
        return word_mul(x, y)

    def inv(self, x: FWord) -> FWord:
        return word_inv(x)

    def is_positive(self, x: FWord) -> bool:
        return is_positive_word(x)

    def positive_witness(self, x: FWord):
        return x if self.is_positive(x) else None

    def order_matrix(self, xs: Sequence[FWord], ys: Sequence[FWord]) -> np.ndarray:
        """x <= y iff x^-1 y is a positive word: the kernel on the elements themselves."""
        return positive_quotients(xs, ys)

    def morphism(self) -> Morphism:
        """Length, extended to the group as the letter sum."""
        return Morphism("length", self, IntGroup(), letter_sum)

    # The prefix order: a common upper bound makes two words comparable.
    join_table = Presentation.comparable_join_table

    def _join(self, x: FWord, y: FWord) -> JoinResult:
        # The prefix order is the cone order, so no product is needed.
        if is_prefix(x, y):
            return JoinResult.finite(y)
        if is_prefix(y, x):
            return JoinResult.finite(x)
        return JoinResult.infinite()

    def positive_generators(self) -> list[FWord]:
        return [self.gen(i) for i in range(self.n_gens)]

    def canonical_str(self, x: FWord) -> str:
        return format_word(x, self.gen_names)

    def parse(self, text: str) -> FWord:
        return reduce_word(parse_word(text, self.gen_names))

    def _check(self, x: FWord) -> None:
        for gen, _ in x:
            if not 0 <= gen < self.n_gens:
                raise PresentationError(f"letter {gen} outside alphabet of size {self.n_gens}")


class CyclicFreeGroup(IntGroup):
    """``free:1``: the free group on the one letter a, with a^k held as the int k.

    Z with cone N is the rank-one free group with its free monoid, so the
    printer, the grammar, the morphism "length" and the joins are those of
    ``FreeGroup(1)`` read on exponents: two positive elements are always
    comparable and the join is the larger one.
    """

    family = "free"
    name = "free:1"
    n_gens = 1
    gen_names = ("a",)

    def positive_witness(self, x: int):
        return ((0, 1),) * x if x >= 0 else None

    def morphism(self) -> Morphism:
        return Morphism("length", self, IntGroup(), int)

    join_table = Presentation.comparable_join_table

    def canonical_str(self, x: int) -> str:
        return "e" if x == 0 else "a" if x == 1 else f"a^{x}"

    def parse(self, text: str) -> int:
        return letter_sum(parse_word(text, self.gen_names))


class ScarparoCone(FreeGroup):
    """The free group ``FreeGroup(2, ("a", "b"))`` ordered by the cone {e} | b * F+.

    The cone is the free monoid on the infinite alphabet ``b a^k`` (k >= 0),
    so any two cone elements with a common upper bound are comparable and
    the join is exact.
    """

    family = "scarparo"
    name = "scarparo"

    def __init__(self):
        super().__init__(2, ("a", "b"))

    def __repr__(self):
        return "ScarparoCone()"

    def is_positive(self, x: FWord) -> bool:
        if x == EMPTY:
            return True
        return is_positive_word(x) and x[0] == (1, 1)

    # Cone order, not the prefix order: x <= y needs x^-1 y in the cone.
    order_matrix = Presentation.order_matrix
    _join = Presentation.comparable_join

    def positive_generators(self) -> list[FWord]:
        # The cone is not finitely generated; balls are enumerated directly.
        raise PresentationError("the cone has no finite generating set; use enumerate_ball")

    def enumerate_ball(self, radius: int, cap: int | None = None):
        from .order import BALL_ELEMENT_CAP, Ball, check_element_cap, check_radius_cap

        check_radius_cap(radius, cap)
        # e, and b w for each positive w shorter than radius; the exponent is
        # bounded first, so a huge radius is refused at once.
        check_element_cap(2 ** min(radius, BALL_ELEMENT_CAP.bit_length()), radius)
        elements = [EMPTY]
        if radius >= 1:
            b = ((1, 1),)
            elements.extend(word_mul(b, w) for w in positive_words(2, radius - 1))
        lengths = {el: len(el) for el in elements}
        return Ball(self, radius, lengths)


def format_word(x: FWord, gen_names: Sequence[str]) -> str:
    """Render a reduced word in the shared grammar, run-length collapsed."""
    if not x:
        return "e"
    runs: list[tuple[int, int]] = []
    for gen, sign in x:
        if runs and runs[-1][0] == gen and (runs[-1][1] > 0) == (sign > 0):
            runs[-1] = (gen, runs[-1][1] + sign)
        else:
            runs.append((gen, sign))
    parts = []
    for gen, exp in runs:
        parts.append(gen_names[gen] if exp == 1 else f"{gen_names[gen]}^{exp}")
    return " ".join(parts)


def parse_word(text: str, gen_names: Sequence[str]) -> list[tuple[int, int]]:
    """Parse the shared grammar into raw signed letters (not yet reduced)."""
    letters: list[tuple[int, int]] = []
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
