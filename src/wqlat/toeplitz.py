"""Finite truncation of the left-regular representation on the cone.

The shift by a positive element acts on a ball as a partial injection of
indices, one index array built by :func:`toeplitz_op`; compositions are
gathers, adjoints scatters, and range projections and restrictions masks,
so every identity in scope holds exactly with no floating point.
Comparisons are restricted to a safe region, a smaller concentric ball on
which truncation cannot cut off the compositions under test; the checks
read the presentation from the ball.  The region is the ball's first
indices, and it takes their elements and names from ``Ball.core``, so a
check that reads only the region names only its shells.  There the Nica
check reads the range of T_z as "z^-1 p in the ball", with one inverse
per shift and no whole-ball shift; the masks of each distinct shift are
made once per safe region, which keeps them for every pair that shift
enters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .controlled import Morphism
from .order import Ball, PresentationError


class PartialInjection:
    """Injective partial self-map of ball indices.

    ``arr[i]`` is the image of i, or -1 off the domain.
    """

    __slots__ = ("arr",)

    def __init__(self, size: int, mapping: dict[int, int]):
        values = list(mapping.values())
        if len(set(values)) != len(values):
            raise ValueError("mapping is not injective")
        arr = np.full(size, -1, dtype=np.int32)
        arr[list(mapping)] = values
        self.arr = arr

    @classmethod
    def of_array(cls, arr: np.ndarray) -> "PartialInjection":
        """Wrap an index array already known to be injective off -1."""
        op = cls.__new__(cls)
        op.arr = arr
        return op

    @classmethod
    def identity(cls, size: int) -> "PartialInjection":
        return cls.of_array(np.arange(size, dtype=np.int32))

    @classmethod
    def zero(cls, size: int) -> "PartialInjection":
        return cls.of_array(np.full(size, -1, dtype=np.int32))

    @classmethod
    def partial_identity(cls, mask: np.ndarray) -> "PartialInjection":
        return cls.of_array(np.where(mask, np.arange(len(mask), dtype=np.int32), np.int32(-1)))

    @property
    def size(self) -> int:
        return len(self.arr)

    @property
    def pairs(self) -> tuple:
        dom = np.flatnonzero(self.arr >= 0)
        return tuple(zip(dom.tolist(), self.arr[dom].tolist()))

    def __call__(self, i: int):
        j = int(self.arr[i])
        return None if j < 0 else j

    def image_mask(self) -> np.ndarray:
        out = np.zeros(self.size, dtype=bool)
        out[self.arr[self.arr >= 0]] = True
        return out

    def domain(self) -> set[int]:
        return set(np.flatnonzero(self.arr >= 0).tolist())

    def image(self) -> set[int]:
        return set(self.arr[self.arr >= 0].tolist())

    def compose(self, other: "PartialInjection") -> "PartialInjection":
        """self after other (operator product: apply other first)."""
        o = other.arr
        return PartialInjection.of_array(np.where(o >= 0, self.arr[o], np.int32(-1)))

    def adjoint(self) -> "PartialInjection":
        out = np.full(self.size, -1, dtype=np.int32)
        dom = np.flatnonzero(self.arr >= 0)
        out[self.arr[dom]] = dom
        return PartialInjection.of_array(out)

    def restrict(self, indices) -> "PartialInjection":
        keep = np.zeros(self.size, dtype=bool)
        keep[list(indices)] = True
        return PartialInjection.of_array(np.where(keep, self.arr, np.int32(-1)))

    def is_zero(self) -> bool:
        return not (self.arr >= 0).any()

    def is_partial_identity(self) -> bool:
        dom = self.arr >= 0
        return bool((self.arr[dom] == np.flatnonzero(dom)).all())

    def __eq__(self, other):
        return isinstance(other, PartialInjection) and np.array_equal(self.arr, other.arr)

    def __hash__(self):
        return hash((self.size, self.arr.tobytes()))

    def __repr__(self):
        return f"PartialInjection({dict(self.pairs)})"

    def to_dense(self) -> np.ndarray:
        """0/1 matrix export, rows indexed by output basis vectors."""
        out = np.zeros((self.size, self.size), dtype=np.int8)
        dom = np.flatnonzero(self.arr >= 0)
        out[self.arr[dom], dom] = 1
        return out


@dataclass(frozen=True)
class SafeRegion:
    """Sub-ball of indices whose images under the operators stay in the ball.

    Its indices are the ball's first ones, the shells up to its radius:
    it keeps their elements and names from ``ball.core(radius)``, the ball
    it was cut from and, for each shift z asked about, the two masks of
    :func:`safe_masks`.
    """

    radius: int
    indices: tuple
    ball: Ball = field(repr=False)
    elements: tuple = field(repr=False, compare=False)
    names: tuple = field(repr=False, compare=False)
    _masks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def of(cls, ball: Ball, radius: int) -> "SafeRegion":
        if radius < 0:
            raise PresentationError("safe radius must be nonnegative")
        if radius > ball.radius:
            raise PresentationError("safe region cannot exceed the ball")
        elements, names = ball.core(radius)
        return cls(radius, tuple(range(len(elements))), ball, elements, names)

    def masks(self, z) -> tuple[np.ndarray, np.ndarray]:
        """``safe_masks(self.ball, self, z)``, made on the first call for each z."""
        found = self._masks.get(z)
        if found is None:
            found = self._masks[z] = safe_masks(self.ball, self, z)
        return found


def toeplitz_op(ball: Ball, x) -> PartialInjection:
    """Shift p -> x p wherever the product stays inside the ball.

    Left multiplication is injective, so the index array is a partial
    injection.
    """
    pres, index = ball.pres, ball.index
    if x not in index:  # ball elements are positive by construction
        pres.require_positive(x)
    products = (index.get(pres.mul(x, p), -1) for p in ball.elements)
    return PartialInjection.of_array(np.fromiter(products, dtype=np.int32, count=len(ball)))


def diagonal_expectation(op: PartialInjection) -> PartialInjection:
    """Keep only the fixed points: the compression onto the diagonal."""
    return PartialInjection.partial_identity(op.arr == np.arange(op.size))


def safe_masks(ball: Ball, safe: SafeRegion, z) -> tuple[np.ndarray, np.ndarray]:
    """Over safe p: z <= p (z^-1 p positive) and p in the range of T_z (z^-1 p in the ball)."""
    pres = ball.pres
    zi = pres.inv(z)
    quotients = [pres.mul(zi, p) for p in safe.elements]
    up = np.array([pres.is_positive(q) for q in quotients], dtype=bool)
    return up, np.array([q in ball for q in quotients], dtype=bool)


def check_nica(ball: Ball, safe: SafeRegion, x, y) -> dict:
    """Covariance of the range projections of two positive shifts, on the safe region.

    Operator form: the product of the range projections of T_x and T_y is
    that of T_{x v y}, zero when the join is infinite; a safe p is in the
    range of T_z iff z^-1 p is in the ball.  Logical form: x <= p and
    y <= p exactly when the join is finite and below p.  They are one
    comparison: ball elements are positive, so each range mask lies inside
    the order mask ``z <= p``, and the guard returns "truncated" (the
    adjoint of T_z cuts off a positive quotient) unless the reverse holds
    too.  Past it the masks are equal, so ``ux & uy == uj`` is both forms.
    """
    if safe.ball is not ball:
        raise ValueError("the safe region was cut from another ball")
    join = ball.pres.join(x, y)
    if join.is_inconclusive:
        return {"verdict": "inconclusive", "join": join}
    for z in (x, y):
        if z not in ball:
            raise ball.outside(z)
    above = []
    for z in [x, y] + ([join.value] if join.is_finite else []):
        up, rng = safe.masks(z)
        if (up & ~rng).any():
            return {"verdict": "truncated", "join": join, "shift": z}
        above.append(up)
    if not join.is_finite:
        above.append(np.zeros(len(safe.indices), dtype=bool))  # no shift: the range projection is zero
    ux, uy, uj = above
    return {"verdict": "pass" if np.array_equal(ux & uy, uj) else "fail", "join": join}


def matrix_units_check(ball: Ball, safe: SafeRegion, chains: list, n: int) -> dict:
    """Matrix-unit relations for E_lr = T_{s_n^l} T_{s_n^r}^* on the safe region.

    ``chains`` lists (label, chain) pairs from a decreasing-chain witness;
    the relations E_lr E_l'r' = delta_{r l'} E_lr' follow from the classes
    having pairwise infinite joins.  Each shift and each of the L^2 units is
    built once, and the L^4 relations are read off them.
    """
    shifts = {}
    for label, chain in chains:
        s = chain(n)
        if not ball.pres.is_positive(s):
            raise PresentationError("chain entries must be positive")
        shifts[label] = toeplitz_op(ball, s)
    labels = [label for label, _ in chains]
    units = {(l, r): shifts[l].compose(shifts[r].adjoint()) for l in labels for r in labels}
    zero = PartialInjection.zero(len(ball))
    failures = []
    for l1, r1, l2, r2 in product(labels, repeat=4):
        want = units[l1, r2].restrict(safe.indices) if r1 == l2 else zero
        if units[l1, r1].compose(units[l2, r2]).restrict(safe.indices) != want:
            failures.append((l1, r1, l2, r2))
    return {"ok": not failures, "failures": failures, "labels": labels, "n": n}


def spanning_product(mor: Morphism, p, q, r, s):
    """Normal form of the product of two spanning pairs (p,q*), (r,s*) in ``mor.source``.

    Requires both pairs to sit in single fibers of the morphism.  Returns
    the new pair, or None when the middle join is infinite and the product
    vanishes.
    """
    if mor(p) != mor(q) or mor(r) != mor(s):
        raise PresentationError("spanning pairs must have matching fiber values")
    pres = mor.source
    join = pres.join(q, r)
    if join.is_infinite:
        return None
    if join.is_inconclusive:
        raise PresentationError("middle join is inconclusive; larger search needed")
    v = join.value
    left = pres.mul(p, pres.mul(pres.inv(q), v))
    right = pres.mul(s, pres.mul(pres.inv(r), v))
    for el in (left, right):
        if not pres.is_positive(el):
            raise AssertionError("spanning product left the cone")
    return left, right


def pair_operator(ball: Ball, p, q) -> PartialInjection:
    """T_p T_q^* as a partial injection."""
    tp, tq = toeplitz_op(ball, p), toeplitz_op(ball, q)
    return tp.compose(tq.adjoint())
