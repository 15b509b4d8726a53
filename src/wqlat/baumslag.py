"""Baumslag-Solitar groups <a, b : a b^c = b^d' a> with c >= 1 and d' nonzero.

BS(c, d') is the HNN extension of <b> with stable letter a, where
a^-1 b^d' a = b^c, so it is a ``StableLetterCone`` whose base parts are the
integer exponents of b.  Elements are kept in the canonical alternating form
``b^{m0} a^{e1} b^{m1} ... a^{ek} b^{mk}`` where every exponent preceding
``a`` lies in ``[0, |d'|)`` and every exponent preceding ``a^-1`` lies in
``[0, c)``.  Appending one a-letter is one coset step: write the last
exponent m = r + k d' (before a) or m = r + k c (before a^-1), keep r and
start the next part with the carry k c or k d'; when r = 0 right after the
inverse letter, the pair pinches instead and the carry joins the part
before it.

A part b^k counts as |k| letters, so parts past ``LETTER_CAP`` are refused
(on bs:2,1, b a^n = a^n b^(2^n)).  For d' >= 1 the cone is quasi-lattice
ordered and the join has the shape ``y b^n``; for d' <= -1 it is a weak
quasi-lattice in which any two elements with a common upper bound are
comparable.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import product

import numpy as np

from .hnn import StableLetterCone
from .order import BALL_ELEMENT_CAP, BallCapExceeded, PresentationError, check_letter_cap

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


class BaumslagSolitar(StableLetterCone):
    """Positive cone of <a, b : a b^c = b^{d'} a> generated by a and b."""

    family = "bs"
    unit = 0
    t_index = A

    def __init__(self, c: int, d_signed: int):
        self.params = BsParams(c, d_signed)
        self.has_chain = d_signed < 0
        self.gen_names = ("a", "b")
        self.name = f"bs:{c},{d_signed}"

    def __repr__(self):
        return f"BaumslagSolitar(c={self.params.c}, d={self.params.d_signed})"

    # -- base parts: exponents of b ------------------------------------------

    _part_mul = staticmethod(operator.add)
    _part_inv = staticmethod(operator.neg)

    def _part_of(self, run) -> int:
        total = 0
        for g, sign in run:
            if g != B:
                raise PresentationError("alphabet is {a, b}")
            total += sign
        return total

    def _part_str(self, m: int) -> str:
        return "b" if m == 1 else f"b^{m}"

    @staticmethod
    def _part_letters(m: int) -> tuple:
        return ((B, 1),) * m if m >= 0 else ((B, -1),) * -m

    _part_order = staticmethod(np.less_equal.outer)

    @staticmethod
    def _deficit(m: int) -> int:
        return max(0, -m)

    def descend(self, n: int) -> int:
        return -n

    def _push_t(self, parts: list[int], eps: list[int], sign: int) -> None:
        """Append a^sign: b^(r + k d') a = b^r a b^(kc), and b^(r + kc) a^-1 = b^r a^-1 b^(k d').

        0 <= r < |d'| before a and 0 <= r < c before a^-1.  When r = 0 right
        after a^-sign, the pair pinches (a^-1 b^(kd') a = b^(kc), a b^(kc)
        a^-1 = b^(kd')) and the carry joins the part before it.
        """
        c, d = self.params.c, self.params.d_signed
        m = parts[-1]
        if sign == 1:
            r = m % abs(d)
            carry = (m - r) // d * c
        else:
            r = m % c
            carry = (m - r) // c * d
        if r == 0 and eps and eps[-1] == -sign:
            parts.pop()
            eps.pop()
            parts[-1] += carry
        else:
            parts[-1] = r
            parts.append(carry)
            eps.append(sign)
        check_letter_cap(abs(parts[-1]))

    canon = StableLetterCone.normal_form

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
        if eps and exps[-1] < 0:
            # Only reachable for d' < 0: lift a b^m with m < 0 through
            # a = b^d a b^c until the trailing exponent is nonnegative.
            k = -(exps[-1] // self.params.c)
            exps = exps[:-2] + (exps[-2] + k * self.params.d_abs, exps[-1] + k * self.params.c)
        check_letter_cap(len(eps) + sum(map(abs, exps)))
        return tuple(self._letters((exps, eps)))

    # -- controlled map: the height -----------------------------------------

    def sigma_witness(self, q: int, fiber: list) -> list:
        """Minimal elements of height q: the words b^s1 a ... b^sq a with 0 <= s_i < d'.

        For d' < 0 no fiber above height zero has minimal elements.  More
        than ``BALL_ELEMENT_CAP`` of them are refused before any is made.
        """
        if q == 0:
            return [self.identity()]
        if self.has_chain:
            return []
        d = self.params.d_signed
        if d ** q > BALL_ELEMENT_CAP:
            raise BallCapExceeded(f"sigma witness of height {q} has {d}^{q} elements, over {BALL_ELEMENT_CAP}")
        return [(s + (0,), (1,) * q) for s in product(range(d), repeat=q)]

    def positive_generators(self) -> list[BsWord]:
        return [self.canon([(A, 1)]), self.canon([(B, 1)])]

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
