"""HNN extensions with one stable letter, and those of a free group over cyclic subgroups.

``StableLetterCone`` is the layer both HNN families share, this module's and
the Baumslag-Solitar groups (the HNN extension of <b> with stable letter
a).  Its elements are normal forms ``h0 t^{e1} h1 ... t^{ek} hk`` held as
``(parts, eps)``; the family supplies the arithmetic of the base parts hi and
the step that appends one t-letter, and the base builds on them normal forms
by runs, products and inverses by syllables (a product by a base part is one
part product), the printer, heights, stems, the
decreasing chains of the weak families and, by Britton's lemma, the order by
stem blocks and the closed-form joins of the others.

``HnnExtension`` is the HNN extension of a free group whose stable letter t
conjugates u to w (PLUS mode, relator ``u t = t w``) or to w^-1 (MINUS mode,
relator ``u t w = t``).  Each hi preceding t^{+1} is a coset representative
for F/<u> and each hi preceding t^{-1} one for F/<w>; the representative of
a coset is the result of stripping the maximal trailing power of the subgroup
word and, when the remainder absorbs a prefix of it, re-anchoring on the
complementary suffix.  A base part costs one free-group product, a t-letter
one (memoised) coset step.

PLUS is quasi-lattice ordered.  MINUS is a weak quasi-lattice in which
elements with a common upper bound are comparable; its positivity
criterion asks, in closed form, whether double cosets ``<w> h <u>`` have a
representative in the free monoid.
"""

from __future__ import annotations

from functools import cache, lru_cache
from typing import Sequence

import numpy as np

from .controlled import Morphism
from .order import IntGroup, JoinResult, Presentation, PresentationError, prefix_index
from .words import (
    EMPTY,
    FWord,
    FreeGroup,
    format_word,
    is_positive_word,
    parse_word,
    positive_quotients,
    reduce_word,
    word_inv,
    word_mul,
    word_pow,
)

PLUS, MINUS = 1, -1
# Entries of an extension's positivity memo: ``order()`` on the radius-6
# ball of hnn-:x,y@x,y (952 elements) fills 2857, on its radius-7 ball 9632.
POS_CACHE_SIZE = 1 << 14

# Element layout: (parts, eps) with len(parts) == len(eps) + 1,
# parts are reduced FWords over the base alphabet.
HnnWord = tuple


def strip_powers(h: FWord, u: FWord) -> tuple[FWord, int]:
    """Write reduced h as h0 * u^m with h0 not ending in a power of u: one |u|-letter block per step."""
    n, end, m = len(u), len(h), 0
    while end >= n and h[end - n:end] == u:
        end -= n
        m += 1
    if m == 0:
        uinv = word_inv(u)
        while end >= n and h[end - n:end] == uinv:
            end -= n
            m -= 1
    return h[:end], m


@lru_cache(maxsize=4096)
def coset_rep(u: FWord, h: FWord) -> tuple[FWord, int]:
    """Representative of the left coset h<u>: (rep, m) with h = rep u^m.

    The representative never ends in a nontrivial power of u.  When the
    stripped remainder is h1 beta^-1 for the longest proper prefix beta of
    u = beta alpha that one backward scan finds, it is re-anchored on
    h1 alpha u^(m-1), reduced as written: h1 does not end in alpha[0]^-1.
    """
    h0, m = strip_powers(h, u)
    k = 0
    while k < min(len(u) - 1, len(h0)) and h0[-1 - k] == (u[k][0], -u[k][1]):
        k += 1
    return (h0[:len(h0) - k] + u[k:], m - 1) if k else (h0, m)


def negative_run(h: FWord) -> int:
    """Length of the run of negative letters that starts h."""
    return next((i for i, (_, sign) in enumerate(h) if sign == 1), len(h))


class StableLetterCone(Presentation):
    """Elements ``(parts, eps)`` = h0 t^e1 h1 ... t^ek hk, normal by the family's ``_push_t``.

    A family supplies its base parts: the product ``_part_mul``, the inverse
    ``_part_inv``, the text ``_part_str``, the letters ``_part_letters``, the
    identity ``unit`` (the one falsy part, printed as nothing), the part
    ``_part_of`` of a run of base letters, the matrix ``_part_order(us, vs)`` of
    "u^-1 v is positive", the deficit ``_deficit(h)`` (the positive n with
    h = p n^-1, p positive, or None) and ``_rep_positive(h)``, whether the
    representative of h<u> is positive; ``t_index``, the stable letter's
    index in ``gen_names``; and
    ``_push_t(parts, eps, sign)``, which appends t^sign to a normal form and
    keeps it normal: t conjugates <u> to <w> (u t = t w, or u t w = t with
    chains) and a part before a t represents its coset of <u>.
    ``has_chain`` is set from the sign of the relator, and ``descend(n)`` is
    the last part of the n-th element of a decreasing chain.
    """

    unit: object
    t_index: int

    def identity(self) -> HnnWord:
        return ((self.unit,), ())

    def normal_form(self, letters) -> HnnWord:
        """Left-to-right sweep: one ``_push_t`` per stable letter, one part product per run of base letters."""
        parts, eps, run = [self.unit], [], []
        t, push, mul, part_of = self.t_index, self._push_t, self._part_mul, self._part_of
        for letter in letters:
            if letter[0] != t:
                run.append(letter)
                continue
            if run:
                parts[-1], run = mul(parts[-1], part_of(run)), []
            push(parts, eps, letter[1])
        if run:
            parts[-1] = mul(parts[-1], part_of(run))
        return tuple(parts), tuple(eps)

    def _letters(self, x: HnnWord) -> list:
        """The letters of a normal form: those of its parts with the t-letters between them."""
        parts, eps = x
        out = list(self._part_letters(parts[0]))
        for e, h in zip(eps, parts[1:]):
            out.append((self.t_index, e))
            out.extend(self._part_letters(h))
        return out

    def _extend(self, parts: list, eps: list[int], syllables) -> HnnWord:
        """Append t^e h for each (e, h): one ``_push_t`` and one part product each."""
        for e, h in syllables:
            self._push_t(parts, eps, e)
            parts[-1] = self._part_mul(parts[-1], h)
        return tuple(parts), tuple(eps)

    def mul(self, x: HnnWord, y: HnnWord) -> HnnWord:
        """One part product when y is a base part (the last part of a normal form has no coset condition)."""
        if not y[1]:
            return x[0][:-1] + (self._part_mul(x[0][-1], y[0][0]),), x[1]
        parts = list(x[0])
        parts[-1] = self._part_mul(parts[-1], y[0][0])
        return self._extend(parts, list(x[1]), zip(y[1], y[0][1:]))

    def inv(self, x: HnnWord) -> HnnWord:
        parts, eps = x
        part_inv = self._part_inv
        syllables = zip((-e for e in reversed(eps)), map(part_inv, reversed(parts[:-1])))
        return self._extend([part_inv(parts[-1])], [], syllables)

    def parse(self, text: str) -> HnnWord:
        return self.normal_form(parse_word(text, self.gen_names))

    def canonical_str(self, x: HnnWord) -> str:
        return self._name(x, self._part_str)

    def canonical_strs(self, xs: Sequence[HnnWord]) -> list[str]:
        """The names of xs, each distinct part printed once per call: a ball repeats few parts."""
        part_str = cache(self._part_str)
        return [self._name(x, part_str) for x in xs]

    def _name(self, x: HnnWord, part_str) -> str:
        parts, eps = x
        t = self.gen_names[self.t_index]
        tokens = [part_str(parts[0])] if parts[0] else []
        for e, h in zip(eps, parts[1:]):
            tokens.append(t if e == 1 else t + "^-1")
            if h:
                tokens.append(part_str(h))
        return " ".join(tokens) or "e"

    @staticmethod
    def _rep_positive(h) -> bool:
        return True

    def order_matrix(self, xs: Sequence[HnnWord], ys: Sequence[HnnWord]) -> np.ndarray:
        """x <= y by stem blocks: a row without t^-1 tests only the columns that extend its stem.

        Let x = h0 t h1 ... t hj be a normal form with no t^-1.  Then x <= y
        exactly when y = h0 t ... h(j-1) t r (the stem of x, then r) and
        hj^-1 r is positive: for a base part r that is ``_part_order``;
        otherwise y must have no t^-1, and for r = g t ... the representative
        of hj^-1 g modulo <u> positive (``_rep_positive``), before r is
        multiplied out.

        Proof (Britton's lemma, Lyndon and Schupp, ch. IV.2).  If y has that
        shape, x^-1 y = hj^-1 r.  Otherwise let i <= j be the first syllable
        where y departs: it has fewer than i t-letters, or its i-th is t^-1,
        or the part g before it is not h(i-1).  In x^-1 y the matched
        syllables cancel by pinches t^-1 (h^-1 h) t = e, leaving the junction
        t^-1 h(i-1)^-1 g t^e.  A pinch there needs e = 1 and h(i-1)^-1 g in
        <u>; then h(i-1) and g both precede a t, so both represent their
        cosets of <u> and are equal.  So the word is reduced and keeps a
        t^-1, and so does the normal form of x^-1 y: it is not positive.
        Likewise hj^-1 r is reduced with the t-letters of r, and when these
        are all t nothing pinches back into its first part, the
        representative of hj^-1 g, which a positive normal form has positive.
        For Baumslag-Solitar <u> = <b^d'>, and the representatives before an
        a lie in [0, |d'|) for either sign of d': the argument holds as it
        stands.  Rows with a t^-1 keep the default row.

        The columns r = g t ... of a stem are grouped by g: ``first`` = hj^-1 g
        and its coset test depend on (hj, g) alone, so each is made once per
        row and group, and only the columns of passing groups are multiplied.
        """
        # Columns without t^-1 by the prefixes of their stem h0 t ... h(i-1) t.
        index = prefix_index((c, parts[:-1]) for c, (parts, eps) in enumerate(ys) if -1 not in eps)
        stems: dict[tuple, list[int]] = {}
        signed = []
        for r, (parts, eps) in enumerate(xs):
            (signed if -1 in eps else stems.setdefault(parts[:-1], [])).append(r)
        out = np.zeros((len(xs), len(ys)), dtype=bool)
        out[signed] = super().order_matrix([xs[r] for r in signed], ys)
        part_mul, part_inv, rep_positive, extend = self._part_mul, self._part_inv, self._rep_positive, self._extend
        for stem, rows in stems.items():
            j, tails = len(stem), [xs[r][0][-1] for r in rows]
            level, above = [], {}  # r a base part; r = g t ... by g
            for c in index.get(stem, ()):
                y_parts = ys[c][0]
                if len(y_parts) == j + 1:
                    level.append(c)
                else:
                    above.setdefault(y_parts[j], []).append(c)
            if level:
                out[np.ix_(rows, level)] = self._part_order(tails, [ys[c][0][j] for c in level])
            for r, tail in zip(rows, tails):
                tail_inv = part_inv(tail)
                for g, cols in above.items():
                    first = part_mul(tail_inv, g)
                    if rep_positive(first):
                        for c in cols:
                            y_parts, y_eps = ys[c]
                            out[r, c] = self.is_positive(extend([first], [], zip(y_eps[j:], y_parts[j + 1:])))
        return out

    # -- heights, stems, joins ----------------------------------------------

    def height(self, x: HnnWord) -> int:
        return sum(x[1])

    def morphism(self) -> Morphism:
        return Morphism("height", self, IntGroup(), self.height)

    def stem(self, x: HnnWord) -> HnnWord:
        """x with its last part replaced by the identity."""
        return x[0][:-1] + (self.unit,), x[1]

    def _stems(self, fiber: list) -> list[HnnWord]:
        return sorted({self.stem(x) for x in fiber}, key=self.canonical_str)

    def lambda_witness(self, q: int, fiber: list) -> list:
        """With chains: n -> stem descend(n) for each stem of the height-q fiber, labelled by the stem."""
        if not self.has_chain:
            return super().lambda_witness(q, fiber)
        if q == 0:
            return [("e", lambda n: self.identity())]
        return [
            (self.canonical_str(stem), lambda n, stem=stem: (stem[0][:-1] + (self.descend(n),), stem[1]))
            for stem in self._stems(fiber)
        ]

    def join_table(self, xs: Sequence[HnnWord], rel=None) -> dict:
        """With chains ``comparable_join_table``, otherwise ``prefix_join_table`` of the stem parts.

        Without chains, x <= z makes the stem parts of x a prefix of those of
        z: that is the stem argument of ``order_matrix``.
        """
        if self.has_chain:
            return self.comparable_join_table(xs, rel)
        return self.prefix_join_table(xs, [x[0][:-1] for x in xs], rel)

    def _join(self, x: HnnWord, y: HnnWord) -> JoinResult:
        """With chains, the larger of two comparable elements; otherwise the least upper bound in closed form.

        Without chains let hx <= hy and z = x^-1 y.  The join is y n when the
        stem of z is positive and its last part L has a deficit n (L = p n^-1
        with p and n positive); otherwise it is infinite.  At equal heights
        the stems must agree (a common upper bound extends both, by the stem
        argument of ``order_matrix``), and then z is the tails' quotient.

        Proof.  A normal form without chains is positive iff it has no t^-1
        and every part is positive.  The common upper bounds are the y s
        with s and z s positive.  By Britton's lemma the t-exponents of a
        normal form are those of any word for it with the pinched t^-1 t and
        t t^-1 pairs cancelled (Lyndon and Schupp, ch. IV.2), so the t^-1
        of x^-1 come before the t of y in z, and if hz > 0 the last t-letter
        of z is t.  No positive letter appended to z can pinch, so appending
        s changes only the last part of z.  Hence z s is positive only if the
        stem of z is (no t^-1, positive parts before L), and then:

        (a) s is a positive base part.  z s is positive iff L s is; the
            deficit is the least such s: for words L s cancels a suffix of L
            into a prefix of s, so L = p n^-1 and s = n s'; for exponents
            L + s >= 0 iff s = n + s' with n = max(0, -L).  Either way
            s' is positive and the least such y s is y n.
        (b) s = s0 t s1 with s0 a positive base part and s1 positive.  With
            L s0 = rep u^m, z s has the parts of z before L, then rep, then
            those of w^m s1, so rep is positive and w^m s1 is positive.  For
            k = max(0, -m), s' = s0 u^k is of kind (a): L s' = rep u^(m+k)
            is positive.  And y s' <= y s, since s'^-1 s = u^-k t s1 =
            t w^-k s1 is positive (k = 0, or -k = m).

        So a common upper bound exists iff one of kind (a) does, which is the
        rule above, and y n lies below every common upper bound, those with
        t-letters included.
        """
        if self.has_chain:
            return self.comparable_join(x, y)
        if self.height(x) > self.height(y):
            x, y = y, x
        if self.height(x) == self.height(y):
            if self.stem(x) != self.stem(y):
                return JoinResult.infinite()
            z = (self._part_mul(self._part_inv(x[0][-1]), y[0][-1]),), ()
        else:
            z = self.mul(self.inv(x), y)
        n = self._deficit(z[0][-1])
        if n is None or not self.is_positive(self.stem(z)):
            return JoinResult.infinite()
        return JoinResult.finite((y[0][:-1] + (self._part_mul(y[0][-1], n),), y[1]))


class HnnExtension(StableLetterCone):
    """Positive cone of the HNN extension generated by the base alphabet and t."""

    family = "hnn"
    unit = EMPTY

    def __init__(self, base: FreeGroup, u: FWord, w: FWord, mode: int):
        if mode not in (PLUS, MINUS):
            raise ValueError("mode must be PLUS (+1) or MINUS (-1)")
        for word, label in ((u, "u"), (w, "w")):
            if not (word and is_positive_word(word)):
                raise PresentationError(f"{label} must be a nonempty positive word")
        self.base = base
        self.gen_names = base.gen_names + ("t",)
        self.u = u
        self.w = w
        self.mode = mode
        self.has_chain = mode == MINUS
        self.t_index = base.n_gens  # reserved letter index in raw streams
        sign = "+" if mode == PLUS else "-"
        self.name = (
            f"hnn{sign}:{''.join(base.gen_names[g] for g, _ in u)},"
            f"{''.join(base.gen_names[g] for g, _ in w)}@{','.join(base.gen_names)}"
        )
        # Bounded per-instance memos: positivity (``_is_positive`` is looked up
        # on each miss, so a wrapper put on the class method sees every one)
        # and the two closed forms on base words.
        self._pos_cache = lru_cache(maxsize=POS_CACHE_SIZE)(lambda x: self._is_positive(x))
        self.w_power_decomposition = lru_cache(maxsize=4096)(self.w_power_decomposition)
        self.double_coset_positive = lru_cache(maxsize=4096)(self.double_coset_positive)

    def __repr__(self):
        return f"HnnExtension({self.name})"

    # -- base parts: reduced words ----------------------------------------

    _part_mul = staticmethod(word_mul)
    _part_inv = staticmethod(word_inv)
    _part_order = staticmethod(positive_quotients)

    _part_of = staticmethod(reduce_word)

    def _part_str(self, h: FWord) -> str:
        return format_word(h, self.base.gen_names)

    _part_letters = staticmethod(tuple)
    def _rep_positive(self, h: FWord) -> bool:
        return is_positive_word(coset_rep(self.u, h)[0])

    @staticmethod
    def _deficit(h: FWord) -> FWord | None:
        """The inverted negative tail n of h, when n is positive (h = p n^-1)."""
        k = next((i for i, (_, sign) in enumerate(h) if sign == -1), len(h))
        n = word_inv(h[k:])
        return n if is_positive_word(n) else None

    def descend(self, n: int) -> FWord:
        return word_pow(self.w, -n)

    def t(self, sign: int = 1) -> HnnWord:
        return self.normal_form([(self.t_index, sign)])

    def embed(self, word: FWord) -> HnnWord:
        return ((word,), ())

    def _push_t(self, parts: list[FWord], eps: list[int], sign: int) -> None:
        """Append t^sign to the normal form held in ``parts``/``eps``: one coset step."""
        sub = self.u if sign == 1 else self.w
        other = self.w if sign == 1 else self.u
        rep, m = coset_rep(sub, parts[-1])
        if eps and eps[-1] == -sign and rep == EMPTY:
            # Pinch: t^-1 u^m t = w^{dm} resp. t w^m t^-1 = u^{dm}.
            parts.pop()
            eps.pop()
            parts[-1] = word_mul(parts[-1], word_pow(other, self.mode * m))
        else:
            parts[-1] = rep
            parts.append(word_pow(other, self.mode * m))
            eps.append(sign)

    # -- positivity --------------------------------------------------------

    def w_power_decomposition(self, h: FWord) -> int | None:
        """m with h = w^m q for positive q, or None: m = -ceil(a/|w|), a the negative run starting h.

        w^k (k >= 0) cancels only into that run, the same letters for every k|w| >= a.
        """
        k = -(-negative_run(h) // len(self.w))
        return -k if is_positive_word(word_mul(word_pow(self.w, k), h)) else None

    def double_coset_positive(self, h: FWord) -> tuple[int, int] | None:
        """The least (m, n), m first, with w^m h u^n positive, or None.

        If w^m h u^n = p with m < 0, then h u^n = w^-m p is positive, and so
        for n: m, n >= 0 cancel only into the negative runs at the ends of h.
        With a positive letter in h they cover the runs (a and b letters) for
        m = ceil(a/|w|), n = ceil(b/|u|), as do higher powers.  For h = s^-1
        the test is min(m|w|, C) + min(n|u|, P) >= |s|, P the longest prefix
        u u ... of s and C its longest suffix ... w w: m = ceil((|s| - P)/|w|)
        if C >= |s| - P, then n = ceil((|s| - min(m|w|, C))/|u|).  The final
        check fails exactly when no (m, n) exists.
        """
        w, u, a = self.w, self.u, negative_run(h)
        if a < len(h):
            m, n = -(-a // len(w)), -(-negative_run(h[::-1]) // len(u))
        else:
            s = word_inv(h)
            p = next((i for i, g in enumerate(s) if g != u[i % len(u)]), len(s))
            c = next((i for i, g in enumerate(reversed(s)) if g != w[-1 - i % len(w)]), len(s))
            m = -(-(len(s) - p) // len(w))
            n = -(-(len(s) - min(m * len(w), c)) // len(u))
        return (m, n) if is_positive_word(word_mul(word_mul(word_pow(w, m), h), word_pow(u, n))) else None

    def is_positive(self, x: HnnWord) -> bool:
        return self._pos_cache(x)

    def _is_positive(self, x: HnnWord) -> bool:
        parts, eps = x
        if any(e == -1 for e in eps):
            return False
        if not eps:
            return is_positive_word(parts[0])
        if self.mode == PLUS:
            return all(is_positive_word(p) for p in parts)
        if not is_positive_word(parts[0]):
            return False
        if self.w_power_decomposition(parts[-1]) is None:
            return False
        return all(self.double_coset_positive(p) is not None for p in parts[1:-1])

    def positive_witness(self, x: HnnWord):
        """Letters over the positive alphabet (base + t) multiplying to x.

        MINUS, in one sweep: a middle part is w^-m p u^-n with p positive, and
        u^-n t = t w^n carries w^n past the next t; the last part is w^m q.
        """
        if not self.is_positive(x):
            return None
        parts, eps = x
        if self.mode == PLUS or not eps:
            return tuple(self._letters(x))
        w, out, carry = self.w, list(parts[0]), 0
        for h in parts[1:-1]:
            m, n = self.double_coset_positive(h)
            out += self._t_w_block(carry - m)
            out += word_mul(word_mul(word_pow(w, m), h), word_pow(self.u, n))
            carry = n
        m_k = self.w_power_decomposition(parts[-1])
        out += self._t_w_block(carry + m_k)
        out += word_mul(word_pow(w, -m_k), parts[-1])
        return tuple(out)

    def _t_w_block(self, m: int) -> tuple:
        """t w^m rewritten as a positive word (t w^m = u^-m t when m < 0)."""
        if m >= 0:
            return ((self.t_index, 1),) + tuple(word_pow(self.w, m))
        return tuple(word_pow(self.u, -m)) + ((self.t_index, 1),)

    # -- witnesses ----------------------------------------------------------

    def sigma_witness(self, q: int, fiber: list) -> list:
        """PLUS: the stems of the height-q fiber; MINUS: none above height zero."""
        if self.has_chain:
            return [self.identity()] if q == 0 else []
        return self._stems(fiber)

    # -- presentation plumbing ----------------------------------------------

    def positive_generators(self) -> list[HnnWord]:
        gens = [self.embed(((g, 1),)) for g in range(self.base.n_gens)]
        gens.append(self.t())
        return gens
