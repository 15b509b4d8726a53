"""HNN extensions of a free group over cyclic subgroups <u> and <w>.

The stable letter t conjugates u to w (PLUS mode, relator ``u t = t w``) or
to w^-1 (MINUS mode, relator ``u t w = t``).  Elements are kept in the
right normal form ``h0 t^{e1} h1 ... t^{ek} hk`` where each hi preceding
t^{+1} is a coset representative for F/<u> and each hi preceding t^{-1}
one for F/<w>; the representative of a coset is the result of stripping
the maximal trailing power of the subgroup word and, when the remainder
absorbs a prefix of it, re-anchoring on the complementary suffix.

Products and inverses go one syllable at a time: a base part costs one
free-group product, a t-letter one (memoised) coset step.

PLUS is quasi-lattice ordered with joins in closed form: from stems and
free monoid tails at equal heights, and from the quotient x^-1 y by
Britton's lemma at unequal heights.  MINUS is a weak quasi-lattice in
which elements with a common upper bound are comparable; its positivity
criterion runs through double cosets ``<w> h <u>`` having a
representative in the free monoid.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .controlled import Morphism
from .order import IntGroup, JoinResult, Presentation, PresentationError
from .words import (
    EMPTY,
    FWord,
    FreeGroup,
    format_word,
    is_positive_word,
    is_suffix,
    positive_quotients,
    word_inv,
    word_mul,
    word_pow,
)

PLUS, MINUS = 1, -1

# Element layout: (parts, eps) with len(parts) == len(eps) + 1,
# parts are reduced FWords over the base alphabet.
HnnWord = tuple


def strip_powers(h: FWord, u: FWord) -> tuple[FWord, int]:
    """Write reduced h as h0 * u^m with h0 not ending in a power of u."""
    m = 0
    uinv = word_inv(u)
    while is_suffix(u, h):
        h = h[: len(h) - len(u)]
        m += 1
    if m == 0:
        while is_suffix(uinv, h):
            h = h[: len(h) - len(u)]
            m -= 1
    return h, m


@lru_cache(maxsize=4096)
def coset_rep(u: FWord, h: FWord) -> tuple[FWord, int]:
    """Representative of the left coset h<u>: (rep, m) with h = rep u^m.

    The representative never ends in a nontrivial power of u.  When the
    stripped remainder cancels into u (it ends in an inverse prefix), the
    coset is re-anchored on the complementary suffix of u.
    """
    h0, m = strip_powers(h, u)
    if not h0:
        return h0, m
    last = h0[-1]
    if last == u[-1]:
        # h0 ends in a nonempty suffix of u; already a representative.
        return h0, m
    if last == (u[0][0], -u[0][1]):
        # h0 ends in beta^-1 for a proper nonempty prefix beta of u.
        for blen in range(len(u) - 1, 0, -1):
            beta_inv = word_inv(u[:blen])
            if is_suffix(beta_inv, h0):
                h1 = h0[: len(h0) - blen]
                alpha = u[blen:]
                return word_mul(h1, alpha), m - 1
        raise AssertionError("unreachable: cancellation without a matching prefix")
    return h0, m


class HnnExtension(Presentation):
    """Positive cone of the HNN extension generated by the base alphabet and t."""

    family = "hnn"

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
        self.t_index = base.n_gens  # reserved letter index in raw streams
        sign = "+" if mode == PLUS else "-"
        self.name = (
            f"hnn{sign}:{''.join(base.gen_names[g] for g, _ in u)},"
            f"{''.join(base.gen_names[g] for g, _ in w)}@{','.join(base.gen_names)}"
        )
        self._pos_cache: dict[HnnWord, bool] = {}
        # Bounded per-instance memos of the two base-word searches.
        self.w_power_decomposition = lru_cache(maxsize=4096)(self.w_power_decomposition)
        self.double_coset_positive = lru_cache(maxsize=4096)(self.double_coset_positive)

    def __repr__(self):
        return f"HnnExtension({self.name})"

    # -- normal form -------------------------------------------------------

    def identity(self) -> HnnWord:
        return ((EMPTY,), ())

    def t(self, sign: int = 1) -> HnnWord:
        return self.normal_form([(self.t_index, sign)])

    def embed(self, word: FWord) -> HnnWord:
        return ((word,), ())

    def normal_form(self, letters) -> HnnWord:
        """Left-to-right sweep maintaining a residual base-group part."""
        parts: list[FWord] = [EMPTY]
        eps: list[int] = []
        for letter in letters:
            if letter[0] == self.t_index:
                self._push_t(parts, eps, letter[1])
            else:
                parts[-1] = word_mul(parts[-1], (letter,))
        return tuple(parts), tuple(eps)

    def _push_t(self, parts: list[FWord], eps: list[int], sign: int) -> None:
        """Append t^sign to the normal form held in ``parts``/``eps``."""
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

    def _extend(self, parts: list[FWord], eps: list[int], syllables) -> HnnWord:
        """Append t^e h for each (e, h): one coset step per t, one word_mul per base part."""
        for e, h in syllables:
            self._push_t(parts, eps, e)
            parts[-1] = word_mul(parts[-1], h)
        return tuple(parts), tuple(eps)

    def _letters(self, x: HnnWord) -> list:
        parts, eps = x
        out = list(parts[0])
        for i, e in enumerate(eps):
            out.append((self.t_index, e))
            out.extend(parts[i + 1])
        return out

    def mul(self, x: HnnWord, y: HnnWord) -> HnnWord:
        parts = list(x[0])
        parts[-1] = word_mul(parts[-1], y[0][0])
        return self._extend(parts, list(x[1]), zip(y[1], y[0][1:]))

    def inv(self, x: HnnWord) -> HnnWord:
        parts, eps = x
        syllables = zip((-e for e in reversed(eps)), map(word_inv, reversed(parts[:-1])))
        return self._extend([word_inv(parts[-1])], [], syllables)

    # -- positivity --------------------------------------------------------

    def w_power_decomposition(self, h: FWord) -> int | None:
        """m with h = w^m q for positive q, scanning a trimmed window."""
        bound = math.ceil(len(h) / len(self.w)) + 1
        for m in sorted(range(-bound, bound + 1), key=abs):
            if is_positive_word(word_mul(word_pow(self.w, -m), h)):
                return m
        return None

    def double_coset_positive(self, h: FWord) -> tuple[int, int] | None:
        """(m, n) with w^m h u^n positive, or None within the trimmed window.

        Cancellation into w^m or u^n consumes at most len(h) letters and
        surplus positive copies cannot destroy positivity, so any witness
        can be trimmed into the window below.
        """
        mb = math.ceil(len(h) / len(self.w)) + 1
        nb = math.ceil(len(h) / len(self.u)) + 1
        for m in sorted(range(-mb, mb + 1), key=abs):
            wh = word_mul(word_pow(self.w, m), h)
            for n in sorted(range(-nb, nb + 1), key=abs):
                if is_positive_word(word_mul(wh, word_pow(self.u, n))):
                    return m, n
        return None

    def is_positive(self, x: HnnWord) -> bool:
        cached = self._pos_cache.get(x)
        if cached is None:
            cached = self._is_positive(x)
            self._pos_cache[x] = cached
        return cached

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
        """Letters over the positive alphabet (base + t) multiplying to x."""
        if not self.is_positive(x):
            return None
        parts, eps = x
        if self.mode == PLUS:
            return tuple(self._letters(x))
        k = len(eps)
        if k == 0:
            return tuple(parts[0])
        m_k = self.w_power_decomposition(parts[-1])
        q_k = word_mul(word_pow(self.w, -m_k), parts[-1])
        if k == 1:
            return tuple(parts[0]) + self._t_w_block(m_k) + tuple(q_k)
        m_star, n_star = self.double_coset_positive(parts[-2])
        # parts[0] t parts[1] ... t parts[k-2] t (parts[k-1] u^{n*})
        tail = word_mul(parts[-2], word_pow(self.u, n_star))
        prefix = self._extend([parts[0]], [], zip([1] * (k - 1), parts[1:-2] + (tail,)))
        head = self.positive_witness(prefix)
        # u^{-n*} t w^{m_k} collapses to one positive block either way.
        return tuple(head) + self._t_w_block(n_star + m_k) + tuple(q_k)

    def _t_w_block(self, m: int) -> tuple:
        """t w^m rewritten as a positive word (t w^m = u^-m t when m < 0)."""
        if m >= 0:
            return ((self.t_index, 1),) + tuple(word_pow(self.w, m))
        return tuple(word_pow(self.u, -m)) + ((self.t_index, 1),)

    def order_matrix(self, xs: Sequence[HnnWord], ys: Sequence[HnnWord]) -> np.ndarray:
        """x <= y by stem blocks: a row without t^-1 tests only the columns that extend its stem.

        Let x = h0 t h1 ... t hj be a normal form with no t^-1.  Then x <= y
        exactly when y = h0 t ... h(j-1) t r (the stem of x, then r) and
        hj^-1 r is positive: for a base word r that is ``positive_quotients``;
        otherwise y must have no t^-1, and for r = g t ... the representative
        of hj^-1 g modulo <u> a positive word, before r is multiplied out.

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
        Rows with a t^-1 keep the default row.
        """
        # Columns without t^-1 by the parts h0..h(i-1) of a leading
        # h0 t ... h(i-1) t: in ``level`` when only a base part follows.
        level: dict[tuple, list[int]] = {}
        above: dict[tuple, list[int]] = {}
        for c, (parts, eps) in enumerate(ys):
            if -1 not in eps:
                level.setdefault(parts[:-1], []).append(c)
                for i in range(len(eps)):
                    above.setdefault(parts[:i], []).append(c)
        stems: dict[tuple, list[int]] = {}
        signed = []
        for r, (parts, eps) in enumerate(xs):
            (signed if -1 in eps else stems.setdefault(parts[:-1], [])).append(r)
        out = np.zeros((len(xs), len(ys)), dtype=bool)
        out[signed] = super().order_matrix([xs[r] for r in signed], ys)
        for stem, rows in stems.items():
            j, tails = len(stem), [xs[r][0][-1] for r in rows]
            if stem in level:  # r is a base word
                cols = level[stem]
                out[np.ix_(rows, cols)] = positive_quotients(tails, [ys[c][0][j] for c in cols])
            for r, tail in zip(rows, tails):
                tail_inv = word_inv(tail)
                for c in above.get(stem, ()):
                    y_parts, y_eps = ys[c]
                    first = word_mul(tail_inv, y_parts[j])
                    if is_positive_word(coset_rep(self.u, first)[0]):
                        out[r, c] = self.is_positive(self._extend([first], [], zip(y_eps[j:], y_parts[j + 1:])))
        return out

    # -- heights, stems, joins ----------------------------------------------

    def height(self, x: HnnWord) -> int:
        return sum(x[1])

    def stem(self, x: HnnWord) -> HnnWord:
        parts, eps = x
        if not eps:
            return self.identity()
        return parts[:-1] + (EMPTY,), eps

    def tail(self, x: HnnWord) -> FWord:
        return x[0][-1]

    # -- controlled map: the height -----------------------------------------

    @property
    def has_chain(self) -> bool:
        return self.mode == MINUS

    def morphism(self) -> Morphism:
        return Morphism("height", self, IntGroup(), self.height)

    def _stems(self, q: int, ball) -> list[HnnWord]:
        return sorted({self.stem(x) for x in ball if self.height(x) == q}, key=self.canonical_str)

    def sigma_witness(self, q: int, ball) -> list:
        """PLUS: the stems of the height-q fiber; MINUS: none above height zero."""
        if self.has_chain:
            return [self.identity()] if q == 0 else []
        return self._stems(q, ball)

    def lambda_witness(self, q: int, ball) -> list:
        """MINUS: the chain n -> stem w^-n for each stem of the height-q fiber."""
        if not self.has_chain:
            return super().lambda_witness(q, ball)
        if q == 0:
            return [("e", lambda n: self.identity())]
        return [
            (self.canonical_str(stem), lambda n, stem=stem: (stem[0][:-1] + (word_pow(self.w, -n),), stem[1]))
            for stem in self._stems(q, ball)
        ]

    def join_table(self, xs: Sequence[HnnWord], rel=None) -> dict:
        """MINUS: ``comparable_join_table``; PLUS: ``prefix_join_table`` of the stem parts.

        In PLUS x <= z makes the stem of x a prefix of that of z (``order_matrix``).
        """
        if self.mode == MINUS:
            return self.comparable_join_table(xs, rel)
        return self.prefix_join_table(xs, [x[0][:-1] for x in xs])

    def _join(self, x: HnnWord, y: HnnWord) -> JoinResult:
        """Least common upper bound of positive x and y, in closed form.

        MINUS: elements with a common upper bound are comparable, so the join
        is the larger of the two or does not exist.

        PLUS, equal heights: a common upper bound exists only when the stems
        agree and one tail is a prefix of the other; the longer tail wins.

        PLUS, hx < hy: with z = x^-1 y, the common upper bounds are the y s
        with s and z s positive.  The join is y n when z has no t^-1, every
        part of z but the last is a positive word, and the last part L
        reduces to p n^-1 with p and n positive words; otherwise it is
        infinite.

        Proof.  A PLUS normal form is positive iff it has no t^-1 and every
        part is a positive word.  By Britton's lemma the t-exponents of a
        normal form are those of any word for it with the pinched t^-1 t and
        t t^-1 pairs cancelled (Lyndon and Schupp, ch. IV.2), so the t^-1
        of x^-1 come before the t of y in z, and as hz > 0 the last t-letter
        of z is t.  No positive letter appended to z can pinch, so appending
        s changes only the last part of z.  Hence z s is positive only if z
        has no t^-1 and positive parts before L, and then:

        (a) s is a positive base word.  z s is positive iff L s is a
            positive word.  L s cancels a suffix of L into a prefix of s, so
            this holds iff L = p n^-1 and s = n s' with s' positive; the
            least such y s is y n.
        (b) s = s0 t s1 with s0 a positive base word and s1 positive.  With
            L s0 = rep u^m (``coset_rep``), z s has the parts of z before L,
            then rep, then those of w^m s1, so rep is a positive word and
            w^m s1 is positive.  For k = max(0, -m), s' = s0 u^k is of kind
            (a): L s' = rep u^(m+k) is a positive word.  And y s' <= y s,
            since s'^-1 s = u^-k t s1 = t w^-k s1 is positive (k = 0, or
            -k = m).

        So a common upper bound exists iff one of kind (a) does, which is the
        rule above, and y n lies below every common upper bound, those with
        t-letters included.
        """
        if self.mode == MINUS:
            return self.comparable_join(x, y)
        hx, hy = self.height(x), self.height(y)
        if hx > hy:
            x, y = y, x
            hx, hy = hy, hx
        if hx == hy:
            if self.stem(x) != self.stem(y):
                return JoinResult.infinite()
            p, q = self.tail(x), self.tail(y)
            if len(p) > len(q):
                p, q = q, p
            if q[: len(p)] != p:
                return JoinResult.infinite()
            return JoinResult.finite((x[0][:-1] + (q,), x[1]))
        z_parts, z_eps = self.mul(self.inv(x), y)
        last = z_parts[-1]
        k = next((i for i, (_, sign) in enumerate(last) if sign == -1), len(last))
        n = word_inv(last[k:])
        if -1 in z_eps or not all(map(is_positive_word, z_parts[:-1] + (n,))):
            return JoinResult.infinite()
        return JoinResult.finite((y[0][:-1] + (word_mul(self.tail(y), n),), y[1]))

    # -- presentation plumbing ----------------------------------------------

    def positive_generators(self) -> list[HnnWord]:
        gens = [self.embed(((g, 1),)) for g in range(self.base.n_gens)]
        gens.append(self.t())
        return gens

    def canonical_str(self, x: HnnWord) -> str:
        parts, eps = x
        tokens = []
        if parts[0]:
            tokens.append(format_word(parts[0], self.base.gen_names))
        for i, e in enumerate(eps):
            tokens.append("t" if e == 1 else "t^-1")
            if parts[i + 1]:
                tokens.append(format_word(parts[i + 1], self.base.gen_names))
        return " ".join(tokens) if tokens else "e"

    def parse(self, text: str) -> HnnWord:
        from .words import parse_word

        return self.normal_form(parse_word(text, self.gen_names))
