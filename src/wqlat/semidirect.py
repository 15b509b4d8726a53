"""Semidirect products (F, F+) x|_phi (Z, N) for automorphisms of a free group.

Elements are pairs (n, k) multiplying by (n, k)(n', k') = (n phi^k(n'), k+k').
The cone is F+ x N.  Joins are computed levelwise when the automorphism
permutes the positive monoid (``LevelwiseProduct``), by the tail-exponent
formula for the phi(a) = ab, phi(b) = b action (``PhiAbProduct``), and are
left to the ball oracle otherwise (the base ``SemidirectProduct``).

Automorphisms are supplied as generator images together with explicit
inverse images; the inverse is validated on construction, not derived.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .controlled import Morphism
from .order import DirectSum, IntGroup, JoinResult, Presentation, check_letter_cap, open_pairs
from .words import (
    EMPTY,
    FWord,
    FreeGroup,
    format_word,
    is_positive_word,
    is_prefix,
    parse_word,
    positive_quotients,
    word_inv,
    word_mul,
)

SdElement = tuple  # (FWord, int)

A, B = 0, 1
# Longest chain of cached phi^(+-1) steps behind one image; see ``_chained_image``.
IMAGE_CHAIN_DEPTH = 64


class FreeAutomorphism:
    """Automorphism of a free group given by generator images and inverses."""

    def __init__(self, base: FreeGroup, images: Sequence[FWord], inv_images: Sequence[FWord]):
        if len(images) != base.n_gens or len(inv_images) != base.n_gens:
            raise ValueError("one image per generator required")
        self.base = base
        self.images = tuple(images)
        self.inv_images = tuple(inv_images)
        # For phi (power 1) and phi^-1 (power -1), the image of each signed letter.
        self._pieces = {
            power: {(g, s): image if s == 1 else word_inv(image) for g, image in enumerate(table) for s in (1, -1)}
            for power, table in ((1, self.images), (-1, self.inv_images))
        }
        for g in range(base.n_gens):
            gen = ((g, 1),)
            if self.apply(self.apply(gen, -1), 1) != gen or self.apply(self.apply(gen, 1), -1) != gen:
                raise ValueError(f"inverse images do not invert the action on generator {g}")

    @staticmethod
    def _substitute(word: FWord, pieces: dict) -> FWord:
        """The images ``pieces`` of the letters of ``word``, appended in one pass that cancels at the top of the list.

        Free reduction is confluent, so this is the reduced product of the images.
        """
        out: list = []
        for letter in word:
            for piece in pieces[letter]:
                if out and out[-1][0] == piece[0] and out[-1][1] == -piece[1]:
                    out.pop()
                else:
                    out.append(piece)
        return tuple(out)

    def apply(self, word: FWord, power: int) -> FWord:
        """phi^power(word), one substitution pass per power, each checked against ``LETTER_CAP``."""
        pieces = self._pieces[1 if power >= 0 else -1]
        for _ in range(abs(power)):
            word = self._substitute(word, pieces)
            check_letter_cap(len(word))
        return word


class SemidirectProduct(Presentation):
    """Base product: the projection map, ``s^q`` witnesses and no structural join."""

    family = "semidirect"

    def __init__(self, aut: FreeAutomorphism, name: str, metadata: dict | None = None):
        self.aut, self.base = aut, aut.base
        self.gen_names = self.base.gen_names + ("s",)
        self.name = name
        self.metadata = metadata or {}
        # phi^k images of nonempty words at k != 0, shared by every order test
        # of this product.
        self._image_cache = lru_cache(maxsize=4096)(self._chained_image)

    def __repr__(self):
        return f"SemidirectProduct({self.name})"

    def _image(self, word: FWord, power: int) -> FWord:
        """phi^power(word).  The empty word and power 0 are their own image and take no cache slot."""
        return self._image_cache(word, power) if word and power else word

    def _chained_image(self, word: FWord, power: int) -> FWord:
        """phi^k(w) as phi^(+-1) of phi^(k-+1)(w), the latter read through ``_image``.

        The order matrix asks for the images phi^-q of a column at q = 0, 1,
        2, ... in turn, so each costs one substitution.  Powers beyond
        ``IMAGE_CHAIN_DEPTH`` (from parsed text, never from a ball) are applied
        directly, which keeps the recursion shallow.
        """
        if abs(power) > IMAGE_CHAIN_DEPTH:
            return self.aut.apply(word, power)
        step = 1 if power > 0 else -1
        return self.aut.apply(self._image(word, power - step), step)

    def identity(self) -> SdElement:
        return (EMPTY, 0)

    def mul(self, x: SdElement, y: SdElement) -> SdElement:
        return (word_mul(x[0], self._image(y[0], x[1])), x[1] + y[1])

    def inv(self, x: SdElement) -> SdElement:
        return (self._image(word_inv(x[0]), -x[1]), -x[1])

    def is_positive(self, x: SdElement) -> bool:
        return is_positive_word(x[0]) and x[1] >= 0

    def leq(self, x: SdElement, y: SdElement) -> bool:
        # (l,q) <= (m,r) iff q <= r and phi^-q(l^-1 m) is positive; this is
        # the generic x^-1 y test unfolded.  phi^-q is a homomorphism and
        # images are reduced words, so phi^-q(l^-1 m) = phi^-q(l)^-1 phi^-q(m).
        (l, q), (m, r) = x, y
        image = self._image
        return r >= q and is_positive_word(word_mul(word_inv(image(l, -q)), image(m, -q)))

    def order_matrix(self, xs: Sequence[SdElement], ys: Sequence[SdElement]) -> np.ndarray:
        """The test of ``leq``, one block per level q of the rows.

        The rows at level q against the columns at levels r >= q are
        ``positive_quotients`` of the phi^-q images; every other entry is False.
        """
        row_levels = np.fromiter((q for _, q in xs), dtype=np.int64, count=len(xs))
        col_levels = np.fromiter((r for _, r in ys), dtype=np.int64, count=len(ys))
        out = np.zeros((len(xs), len(ys)), dtype=bool)
        image = self._image
        for q in sorted({q for _, q in xs}):  # np.unique would import numpy.ma
            rows, cols = np.flatnonzero(row_levels == q), np.flatnonzero(col_levels >= q)
            us = [image(xs[i][0], -q) for i in rows]
            vs = [image(ys[j][0], -q) for j in cols]
            out[np.ix_(rows, cols)] = positive_quotients(us, vs)
        return out

    def projection(self, x: SdElement) -> int:
        return x[1]

    def morphism(self) -> Morphism:
        return Morphism("projection", self, IntGroup(), self.projection)

    def positive_witness(self, x: SdElement):
        """The letters of the word, then s^q: (word, q) = (word, 0)(e, q)."""
        return x[0] + ((self.base.n_gens, 1),) * x[1] if self.is_positive(x) else None

    def sigma_witness(self, q, fiber: list) -> list:
        """``s^q`` alone: the minimal element over q under the projection."""
        return [(EMPTY, q)]

    def _join(self, x: SdElement, y: SdElement) -> JoinResult:
        # No structural rule: the ball oracle is the only recourse.
        return JoinResult.inconclusive_within(0)

    def positive_generators(self) -> list[SdElement]:
        gens = [(((g, 1),), 0) for g in range(self.base.n_gens)]
        gens.append((EMPTY, 1))
        return gens

    def canonical_str(self, x: SdElement) -> str:
        word, level = x
        parts = []
        if word:
            parts.append(format_word(word, self.base.gen_names))
        if level:
            parts.append("s" if level == 1 else f"s^{level}")
        return " ".join(parts) if parts else "e"

    def parse(self, text: str) -> SdElement:
        """The images phi^level(letter) of the base letters, appended with cancellation at the top of the list."""
        out, level, s = [], 0, self.base.n_gens
        for gen, sign in parse_word(text, self.gen_names):
            if gen == s:
                level += sign
                continue
            for piece in self._image(((gen, sign),), level):
                if out and out[-1] == (piece[0], -piece[1]):
                    out.pop()
                else:
                    out.append(piece)
        return tuple(out), level


class LevelwiseProduct(SemidirectProduct):
    """Product whose action permutes the base cone: joins are componentwise."""

    def join_table(self, xs: Sequence[SdElement], rel: np.ndarray) -> dict:
        """The words' order (one ``positive_quotients``): a pair joins when its words are comparable.

        The join is the larger word at the larger level.
        """
        words = [x[0] for x in xs]
        word_rel = self.base.order_matrix(words, words)
        bounded = np.triu(word_rel | word_rel.T) & open_pairs(rel)
        return {
            (i, j): JoinResult.finite((words[j] if word_rel[i, j] else words[i], max(xs[i][1], xs[j][1])))
            for i, j in np.argwhere(bounded).tolist()
        }

    def _join(self, x: SdElement, y: SdElement) -> JoinResult:
        # The words of positive elements are positive: no second guard.
        word_join = self.base._join(x[0], y[0])
        if not word_join.is_finite:
            return word_join
        return JoinResult.finite((word_join.value, max(x[1], y[1])))


class PhiAbProduct(SemidirectProduct):
    """The action phi(a) = ab, phi(b) = b: the tail-exponent join and the exponent-sum pair."""

    def exp_sum_pair(self, x: SdElement) -> tuple[int, int]:
        """(exponent sum of a, level): phi(a) = ab fixes the a-count."""
        return sum(s for g, s in x[0] if g == A), x[1]

    def morphism(self) -> Morphism:
        return Morphism("exp-sum-pair", self, DirectSum((IntGroup(), IntGroup())), self.exp_sum_pair)

    def sigma_witness(self, q, fiber: list) -> list:
        """The fiber over q stripped of trailing b.

        Stripping the trailing b-letters of a fiber member gives the minimal
        element below it, which need not lie in the ball.
        """
        out = set()
        for word, level in fiber:
            while word and word[-1] == (B, 1):
                word = word[:-1]
            out.add((word, level))
        return sorted(out, key=self.canonical_str)

    def join_table(self, xs: Sequence[SdElement], rel: np.ndarray) -> dict:
        """``prefix_join_table`` of the words: ``_join`` is infinite unless one is a prefix of the other."""
        return self.prefix_join_table(xs, [x[0] for x in xs], rel)

    def word_exponents(self, v: FWord) -> list[int]:
        """Exponents [i0..ik] of b around the a-letters in a positive word."""
        exps = [0]
        for gen, _ in v:
            if gen == B:
                exps[-1] += 1
            else:
                exps.append(0)
        return exps

    def _join(self, x: SdElement, y: SdElement) -> JoinResult:
        (p, m), (q, n) = x, y
        if not is_prefix(p, q):
            if is_prefix(q, p):
                (p, m), (q, n) = (q, n), (p, m)
            else:
                return JoinResult.infinite()
        exps = self.word_exponents(word_mul(word_inv(p), q))
        k = len(exps) - 1
        if any(exps[j] < m for j in range(1, k)):
            return JoinResult.infinite()
        level = max(m, n)
        if k == 0 or exps[k] >= m:
            return JoinResult.finite((q, level))
        return JoinResult.finite((word_mul(q, ((B, 1),) * (m - exps[k])), level))


def swap2() -> SemidirectProduct:
    base = FreeGroup(2, ("a", "b"))
    a, b = ((A, 1),), ((B, 1),)
    aut = FreeAutomorphism(base, (b, a), (b, a))
    return LevelwiseProduct(aut, name="sd:swap2")


def perm3() -> SemidirectProduct:
    base = FreeGroup(3, ("a", "b", "c"))
    a, b, c = ((0, 1),), ((1, 1),), ((2, 1),)
    aut = FreeAutomorphism(base, (b, c, a), (c, a, b))
    return LevelwiseProduct(aut, name="sd:perm3")


def phi_ab() -> SemidirectProduct:
    base = FreeGroup(2, ("a", "b"))
    a, b = ((A, 1),), ((B, 1),)
    ab = word_mul(a, b)
    ab_inv = word_mul(a, word_inv(b))
    aut = FreeAutomorphism(base, (ab, b), (ab_inv, b))
    return PhiAbProduct(aut, name="sd:phi-ab")


def nonexample() -> SemidirectProduct:
    """Action phi(a) = ba, phi(b) = b^2 a whose product pair fails (QL2)."""
    base = FreeGroup(2, ("a", "b"))
    parse = base.parse
    aut = FreeAutomorphism(
        base,
        (parse("b a"), parse("b^2 a")),
        (parse("a b^-1 a"), parse("b a^-1")),
    )
    metadata = {
        "witness_pair": ((parse("a"), 2), (parse("a b"), 1)),
        "witness_bounds": ((parse("a b^2 a b a"), 2), (parse("a b^2 a b^2 a b a"), 2)),
    }
    return SemidirectProduct(aut, name="sd:nonexample", metadata=metadata)
