"""Baumslag-Solitar groups <a, b : a b^c = b^d' a> with c >= 1 and d' nonzero.

Elements are kept in a canonical alternating form
``b^{m0} a^{e1} b^{m1} ... a^{ek} b^{mk}`` where every exponent preceding
``a`` lies in ``[0, |d'|)`` and every exponent preceding ``a^-1`` lies in
``[0, c)``.  Canonicalisation is pinch elimination (no ``a b^{jc} a^-1`` or
``a^-1 b^{jd'} a`` subword survives) followed by a left-to-right exponent
ranging pass that pushes carries rightward through ``b^{d'} a = a b^c``.

For d' >= 1 the cone is quasi-lattice ordered and the join has the shape
``y b^t``; for d' <= -1 it is a weak quasi-lattice in which any two
elements with a common upper bound are comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .controlled import Morphism
from .order import IntGroup, JoinResult, Presentation, PresentationError
from .words import parse_word

# Element layout: (exps, eps) with len(exps) == len(eps) + 1.
BsWord = tuple

A, B = 0, 1  # generator indices in the shared grammar


@dataclass(frozen=True)
class BsParams:
    c: int
    d_signed: int

    def __post_init__(self):
        if self.c < 1:
            raise PresentationError("c must be >= 1")
        if self.d_signed == 0:
            raise PresentationError("d' must be nonzero")

    @property
    def d_abs(self) -> int:
        return abs(self.d_signed)


def canon_stream(params: BsParams, exps, eps) -> BsWord:
    """Canonical form of an alternating syllable stream (not yet reduced)."""
    c, d = params.c, params.d_signed
    sexps = [exps[0]]
    seps: list[int] = []
    for t, eps_t in enumerate(eps):
        if seps and seps[-1] == -eps_t:
            m = sexps[-1]
            if eps_t == -1 and m % c == 0:
                # a b^{jc} a^-1 -> b^{j d'}
                sexps.pop()
                seps.pop()
                sexps[-1] += (m // c) * d
                sexps[-1] += exps[t + 1]
                continue
            if eps_t == 1 and m % d == 0:
                # a^-1 b^{j d'} a -> b^{jc}
                sexps.pop()
                seps.pop()
                sexps[-1] += (m // d) * c
                sexps[-1] += exps[t + 1]
                continue
        seps.append(eps_t)
        sexps.append(exps[t + 1])
    # Exponent ranging: left to right, carries move rightward and never
    # create a new pinch (they preserve residues mod c and mod |d'|).
    for i, e in enumerate(seps):
        m = sexps[i]
        if e == 1:
            s = m % abs(d)
            sexps[i] = s
            sexps[i + 1] += ((m - s) // d) * c
        else:
            s = m % c
            sexps[i] = s
            sexps[i + 1] += ((m - s) // c) * d
    return (tuple(sexps), tuple(seps))


def letters_to_stream(letters) -> tuple[list[int], list[int]]:
    exps = [0]
    eps: list[int] = []
    for gen, sign in letters:
        if gen == B:
            exps[-1] += sign
        elif gen == A:
            eps.append(sign)
            exps.append(0)
        else:
            raise PresentationError("alphabet is {a, b}")
    return exps, eps


class BaumslagSolitar(Presentation):
    """Positive cone of <a, b : a b^c = b^{d'} a> generated by a and b."""

    family = "bs"

    def __init__(self, c: int, d_signed: int):
        self.params = BsParams(c, d_signed)
        self.gen_names = ("a", "b")
        self.name = f"bs:{c},{d_signed}"

    def __repr__(self):
        return f"BaumslagSolitar(c={self.params.c}, d={self.params.d_signed})"

    def identity(self) -> BsWord:
        return ((0,), ())

    def canon(self, letters) -> BsWord:
        exps, eps = letters_to_stream(letters)
        return canon_stream(self.params, exps, eps)

    def mul(self, x: BsWord, y: BsWord) -> BsWord:
        xe, xs = x
        ye, ys = y
        exps = list(xe[:-1]) + [xe[-1] + ye[0]] + list(ye[1:])
        return canon_stream(self.params, exps, list(xs) + list(ys))

    def inv(self, x: BsWord) -> BsWord:
        xe, xs = x
        exps = [-m for m in reversed(xe)]
        eps = [-e for e in reversed(xs)]
        return canon_stream(self.params, exps, eps)

    def is_positive(self, x: BsWord) -> bool:
        exps, eps = x
        if any(e == -1 for e in eps):
            return False
        if not eps:
            return exps[0] >= 0
        if self.params.d_signed > 0:
            return exps[-1] >= 0
        return True

    def positive_witness(self, x: BsWord):
        """A word in {a, b} only that multiplies back to x, or None."""
        if not self.is_positive(x):
            return None
        exps, eps = x
        exps = list(exps)
        if eps and exps[-1] < 0:
            # Only reachable for d' < 0: lift a b^m with m < 0 through
            # a = b^d a b^c until the trailing exponent is nonnegative.
            k = math.ceil(-exps[-1] / self.params.c)
            exps[-2] += k * self.params.d_abs
            exps[-1] += k * self.params.c
        letters = [(B, 1)] * exps[0]
        for i, _ in enumerate(eps):
            letters.append((A, 1))
            letters.extend([(B, 1)] * exps[i + 1])
        return tuple(letters)

    def height(self, x: BsWord) -> int:
        return sum(x[1])

    # -- controlled map: the height -----------------------------------------

    @property
    def has_chain(self) -> bool:
        return self.params.d_signed < 0

    def morphism(self) -> Morphism:
        return Morphism("height", self, IntGroup(), self.height)

    def sigma_witness(self, q: int, ball) -> list:
        """Minimal elements of height q: the words b^s1 a ... b^sq a with 0 <= s_i < d'.

        For d' < 0 no fiber above height zero has minimal elements.
        """
        if q == 0:
            return [self.identity()]
        if self.has_chain:
            return []
        return [(s + (0,), (1,) * q) for s in product(range(self.params.d_signed), repeat=q)]

    def lambda_witness(self, q: int, ball) -> list:
        """For d' < 0, the chain n -> p b^-n for each prefix p = b^l1 a ... b^lq a in the fiber."""
        if not self.has_chain:
            return super().lambda_witness(q, ball)
        if q == 0:
            return [("e", lambda n: self.identity())]
        labels = sorted({x[0][:q] for x in ball if self.height(x) == q})
        return [(str(label), lambda n, label=label: (label + (-n,), (1,) * q)) for label in labels]

    def join_table(self, xs) -> dict:
        """d' < 0: ``comparable_join_table``; d' > 0: ``prefix_join_table`` of the exponents before each a.

        For d' > 0 this is the HNN extension of <b> with a^-1 b^d' a = b^c,
        and those exponents are coset representatives 0 <= m < d'.  The stem
        argument of ``HnnExtension.order_matrix`` holds word for word: the
        pinch a^-1 b^(g-h) a needs d' | g - h, so g = h.
        """
        if self.params.d_signed < 0:
            return self.comparable_join_table(xs)
        return self.prefix_join_table(xs, [x[0][:-1] for x in xs])

    def _join(self, x: BsWord, y: BsWord) -> JoinResult:
        if self.params.d_signed < 0:
            # Elements with a common upper bound are comparable.
            return self.comparable_join(x, y)
        if self.height(x) > self.height(y):
            x, y = y, x
        v_exps, v_eps = self.mul(self.inv(x), y)
        if any(e == -1 for e in v_eps):
            return JoinResult.infinite()
        # x <= y b^t iff the trailing exponent of x^-1 y b^t is >= 0, so the
        # least t is determined by the carried final exponent alone.
        t = max(0, -v_exps[-1])
        return JoinResult.finite(self.mul(y, ((t,), ())))

    def positive_generators(self) -> list[BsWord]:
        return [self.canon([(A, 1)]), self.canon([(B, 1)])]

    def canonical_str(self, x: BsWord) -> str:
        exps, eps = x
        parts = []
        if exps[0] != 0:
            parts.append("b" if exps[0] == 1 else f"b^{exps[0]}")
        for i, e in enumerate(eps):
            parts.append("a" if e == 1 else "a^-1")
            m = exps[i + 1]
            if m != 0:
                parts.append("b" if m == 1 else f"b^{m}")
        return " ".join(parts) if parts else "e"

    def parse(self, text: str) -> BsWord:
        return self.canon(parse_word(text, self.gen_names))

    # -- demonstration of the infinite descending chain (d' < 0) ----------

    def chain_element(self, n: int) -> BsWord:
        """b^{nd} a, the n-th element of the descending chain."""
        return self.canon([(B, 1)] * (n * self.params.d_abs) + [(A, 1)])

    def chain_demo(self, depth: int) -> dict:
        """Exercise the descending chain b^{nd} a below a, above h = a b^-d a^-1.

        Checks, on the ball of radius ``depth``: h <= b^{nd} a for n <= depth
        with the explicit positive quotient b^{nd} a b^d, strict descent of
        the chain, and that no ball element above h sits below the whole
        truncated chain.  The ball comes first, so a depth whose ball the
        element cap refuses builds no chain.
        """
        if self.params.d_signed > 0:
            raise PresentationError("chain demo requires d' < 0")
        ball = self.enumerate_ball(depth, cap=depth)
        d = self.params.d_abs
        h = self.canon([(A, 1)] + [(B, -1)] * d + [(A, -1)])
        chain = [self.chain_element(n) for n in range(depth + 1)]
        bound_failures = []
        for n, p in enumerate(chain):
            quotient = self.mul(self.inv(h), p)
            expected = self.canon([(B, 1)] * (n * d) + [(A, 1)] + [(B, 1)] * d)
            if not (self.is_positive(quotient) and quotient == expected):
                bound_failures.append(n)
        descent_failures = [
            n
            for n in range(depth)
            if not (self.leq(chain[n + 1], chain[n]) and not self.leq(chain[n], chain[n + 1]))
        ]
        interpolants = [
            self.canonical_str(x)
            for x in ball
            if self.leq(h, x) and all(self.leq(x, p) for p in chain)
        ]
        return {
            "h": self.canonical_str(h),
            "depth": depth,
            "bound_failures": bound_failures,
            "descent_failures": descent_failures,
            "interpolants": sorted(interpolants),
            "ok": not bound_failures and not descent_failures and not interpolants,
        }
