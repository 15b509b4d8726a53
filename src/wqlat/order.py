"""Presentation-independent order machinery.

A :class:`Presentation` packages one positive cone P inside a group G with
the capability set used everywhere else: identity, multiplication, inverse,
positivity, the induced left-invariant order ``x <= y iff x^-1 y in P``,
a structural join where the family has one, and canonical strings.
``join`` checks once that both operands are positive and then calls the
family rule ``_join``.
It also carries the family's controlled-map data: the canonical morphism
into an amenable ordered group, minimal-element and decreasing-chain
witnesses, and positive-letter witnesses of positivity.

On top of that sit finite balls (breadth-first closure of {e} under the
positive generators, at most ``BALL_ELEMENT_CAP`` elements) with their order
relation, a conservative brute-force join oracle, and the
weak-quasi-lattice violation scan.  The relation has one family hook,
``Presentation.order_matrix(xs, ys)``, the boolean matrix of ``x <= y``:
by default one inverse per x and one product per pair, in the free groups
and semidirect products numpy kernels, in the integers and direct sums
array comparisons.  ``Ball.order()`` is the hook over the ball squared;
``Ball.leq_row(i)`` is its single row ``elements[i] <= .``, memoised until
the matrix exists and served from it afterwards, so a ball holds one
relation.  The oracle reads only the rows it needs, so large balls never
pay for the matrix.  The second hook on a ball is ``join_table(xs)``, the
joins of all pairs that are not infinite, which the controlled-map checks
read instead of joining pair by pair.
The oracle is three-valued on purpose: a finite ball can certify a least
upper bound but never the absence of one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:
    from .controlled import Morphism

DEFAULT_RADIUS_CAP = 6
# Element count past which a ball is refused: the largest ball a check
# builds today has under 5000 elements, and the n x n relation of 8192
# elements is 64 MB.
BALL_ELEMENT_CAP = 8192

Element = Any


class PresentationError(ValueError):
    """Misuse of a presentation: bad element, wrong cone, unsupported call."""


class BallCapExceeded(PresentationError):
    """Requested ball exceeds the radius cap or ``BALL_ELEMENT_CAP``."""


class ElementOutsideBall(PresentationError):
    """Oracle query for an element the ball does not contain."""


def check_radius_cap(radius: int, cap: int | None) -> None:
    if radius < 0:
        raise PresentationError("radius must be nonnegative")
    limit = DEFAULT_RADIUS_CAP if cap is None else cap
    if radius > limit:
        raise BallCapExceeded(f"radius {radius} exceeds cap {limit}")


def check_element_cap(count: int, radius: int) -> None:
    if count > BALL_ELEMENT_CAP:
        raise BallCapExceeded(f"ball of radius {radius} exceeds {BALL_ELEMENT_CAP} elements")


class JoinResult:
    """Outcome of a least-upper-bound computation.

    ``finite(j)`` carries the join, ``infinite()`` certifies that no common
    upper bound exists, and ``inconclusive_within(r)`` records that a search
    bounded by radius r could not decide either way.
    """

    FINITE = "finite"
    INFINITE = "infinite"
    INCONCLUSIVE = "inconclusive"

    __slots__ = ("kind", "value", "radius")

    def __init__(self, kind: str, value: Element = None, radius: int | None = None):
        self.kind = kind
        self.value = value
        self.radius = radius

    @classmethod
    def finite(cls, value: Element) -> "JoinResult":
        return cls(cls.FINITE, value=value)

    @classmethod
    def infinite(cls) -> "JoinResult":
        return cls(cls.INFINITE)

    @classmethod
    def inconclusive_within(cls, radius: int) -> "JoinResult":
        return cls(cls.INCONCLUSIVE, radius=radius)

    @property
    def is_finite(self) -> bool:
        return self.kind == self.FINITE

    @property
    def is_infinite(self) -> bool:
        return self.kind == self.INFINITE

    @property
    def is_inconclusive(self) -> bool:
        return self.kind == self.INCONCLUSIVE

    def __eq__(self, other):
        return (
            isinstance(other, JoinResult)
            and self.kind == other.kind
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.kind, self.value))

    def __repr__(self):
        if self.is_finite:
            return f"Finite({self.value!r})"
        if self.is_infinite:
            return "Infinite"
        return f"InconclusiveWithinBall({self.radius})"

    def describe(self, pres: "Presentation") -> str:
        if self.is_finite:
            return f"finite {pres.canonical_str(self.value)}"
        if self.is_infinite:
            return "infinite"
        return f"inconclusive within ball {self.radius}"


class Presentation:
    """Capability set shared by every family in this project.

    Elements are immutable hashable values canonical within their family;
    all operations are pure, so presentations and their balls are safe to
    share across threads.
    """

    family = "abstract"
    name = "abstract"
    # True where the family's controlled map is verified by decreasing
    # chains rather than by minimal elements.
    has_chain = False

    def identity(self) -> Element:
        raise NotImplementedError

    def mul(self, x: Element, y: Element) -> Element:
        raise NotImplementedError

    def inv(self, x: Element) -> Element:
        raise NotImplementedError

    def is_positive(self, x: Element) -> bool:
        raise NotImplementedError

    def require_positive(self, *xs: Element) -> None:
        """Raise ``PresentationError`` on the first of xs that is not positive."""
        for z in xs:
            if not self.is_positive(z):
                raise PresentationError(f"element {self.canonical_str(z)} is not positive")

    def join(self, x: Element, y: Element) -> JoinResult:
        """Least upper bound of positive x and y, by the family rule ``_join``."""
        self.require_positive(x, y)
        return self._join(x, y)

    def _join(self, x: Element, y: Element) -> JoinResult:
        raise NotImplementedError

    def join_table(self, xs: Sequence[Element]) -> dict[tuple[int, int], JoinResult]:
        """``{(i, j): _join(xs[i], xs[j])}`` over i <= j, infinite joins left out, keys in no set order.

        One unguarded ``_join`` per pair of positive elements; families
        override it where the infinite pairs can be found in bulk.
        """
        table = {}
        for i, x in enumerate(xs):
            for j in range(i, len(xs)):
                r = self._join(x, xs[j])
                if not r.is_infinite:
                    table[i, j] = r
        return table

    def comparable_join(self, x: Element, y: Element) -> JoinResult:
        """Join where a common upper bound forces comparability: the larger one, or none."""
        if self.leq(x, y):
            return JoinResult.finite(y)
        if self.leq(y, x):
            return JoinResult.finite(x)
        return JoinResult.infinite()

    def comparable_join_table(self, xs: Sequence[Element]) -> dict[tuple[int, int], JoinResult]:
        """``join_table`` of ``comparable_join``: finite exactly on the comparable pairs of ``order_matrix``."""
        rel = self.order_matrix(xs, xs)
        return {
            (i, j): JoinResult.finite(xs[j] if rel[i, j] else xs[i])
            for i, j in np.argwhere(np.triu(rel | rel.T)).tolist()
        }

    def prefix_join_table(self, xs: Sequence[Element], stems: Sequence[tuple]) -> dict[tuple[int, int], JoinResult]:
        """``join_table`` with ``_join`` only on prefix-comparable stems.

        Exact where x <= z makes the stem of x a prefix of the stem of z.
        """
        above: dict[tuple, list[int]] = {}  # stem s -> indices whose stem starts with s
        for b, s in enumerate(stems):
            for k in range(len(s) + 1):
                above.setdefault(s[:k], []).append(b)
        table = {}
        for a, s in enumerate(stems):
            for b in above[s]:
                if a <= b or len(stems[b]) > len(s):  # each pair once, from its shorter stem
                    i, j = min(a, b), max(a, b)
                    r = self._join(xs[i], xs[j])
                    if not r.is_infinite:
                        table[i, j] = r
        return table

    def canonical_str(self, x: Element) -> str:
        raise NotImplementedError

    def parse(self, text: str) -> Element:
        raise NotImplementedError

    def positive_generators(self) -> list[Element]:
        raise NotImplementedError

    def leq(self, x: Element, y: Element) -> bool:
        """Left-invariant order: x <= y iff x^-1 y is positive."""
        return self.is_positive(self.mul(self.inv(x), y))

    def order_matrix(self, xs: Sequence[Element], ys: Sequence[Element]) -> np.ndarray:
        """Boolean ``len(xs) x len(ys)`` matrix of ``x <= y``, inverting each x once."""
        mul, positive = self.mul, self.is_positive
        out = np.empty((len(xs), len(ys)), dtype=bool)
        for i, x in enumerate(xs):
            xi = self.inv(x)
            out[i] = np.fromiter((positive(mul(xi, y)) for y in ys), dtype=bool, count=len(ys))
        return out

    def chain_demo(self, depth: int) -> dict:
        raise PresentationError(f"{self.name} has no descending chain demonstration")

    def positive_witness(self, x: Element):
        """Word in the positive letters ``gen_names`` multiplying back to x, or None."""
        return None

    def morphism(self) -> "Morphism":
        """Canonical controlled map of the family into an amenable ordered group."""
        raise PresentationError(f"{self.name} has no canonical controlled map")

    def sigma_witness(self, q, ball: "Ball") -> list:
        """Minimal-element witness Sigma_q, sliced to a ball: here the fiber over q."""
        mor = self.morphism()
        return [x for x in ball if mor(x) == q]

    def lambda_witness(self, q, ball: "Ball") -> list:
        """Decreasing-chain witness ``(label, chain)``: here constant chains on Sigma_q."""
        return [(f"const{k}", lambda n, s=s: s) for k, s in enumerate(self.sigma_witness(q, ball))]

    def enumerate_ball(self, radius: int, cap: int | None = None) -> "Ball":
        """Breadth-first closure of {e} under right multiplication."""
        check_radius_cap(radius, cap)
        lengths: dict[Element, int] = {self.identity(): 0}
        frontier = [self.identity()]
        gens = self.positive_generators()
        for depth in range(1, radius + 1):
            new: list[Element] = []
            for x in frontier:
                for g in gens:
                    y = self.mul(x, g)
                    if y not in lengths:
                        lengths[y] = depth
                        new.append(y)
                        check_element_cap(len(lengths), radius)
            frontier = new
        return Ball.build(self, radius, lengths)


class Ball:
    """Finite ordered stand-in for P: all elements of generator length <= radius.

    Elements are sorted by (length, canonical string) so reports and indices
    are reproducible.  The identity sits at index 0.  Besides the elements a
    ball holds one thing, their order relation from the family's
    ``order_matrix``: read by rows (``leq_row``, memoised) or whole
    (``order()``); after ``order()`` the rows are its rows.
    """

    def __init__(self, pres: Presentation, radius: int, elements: Sequence[Element], lengths: Sequence[int]):
        self.pres = pres
        self.radius = radius
        self.elements = tuple(elements)
        self.lengths = tuple(lengths)
        self.index = {el: i for i, el in enumerate(self.elements)}
        self._rows: dict[int, np.ndarray] = {}
        self._order: np.ndarray | None = None

    @classmethod
    def build(cls, pres: Presentation, radius: int, lengths: dict[Element, int]) -> "Ball":
        ordered = sorted(lengths, key=lambda el: (lengths[el], pres.canonical_str(el)))
        return cls(pres, radius, ordered, [lengths[el] for el in ordered])

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def __contains__(self, el: Element) -> bool:
        return el in self.index

    def position(self, el: Element) -> int:
        try:
            return self.index[el]
        except KeyError:
            raise ElementOutsideBall(
                f"element {self.pres.canonical_str(el)} not in ball of radius {self.radius}"
            ) from None

    def indices_within(self, radius: int) -> list[int]:
        return [i for i, n in enumerate(self.lengths) if n <= radius]

    def leq_row(self, i: int) -> np.ndarray:
        """Read-only boolean row ``elements[i] <= elements[j]`` over j.

        A row of ``order()`` once the matrix exists, else built alone and
        memoised.
        """
        if self._order is not None:
            return self._order[i]
        row = self._rows.get(i)
        if row is None:
            row = self.pres.order_matrix((self.elements[i],), self.elements)[0]
            row.flags.writeable = False
            self._rows[i] = row
        return row

    def order(self) -> np.ndarray:
        """Read-only n x n order relation from ``Presentation.order_matrix``, built on first use."""
        if self._order is None:
            self._order = self.pres.order_matrix(self.elements, self.elements)
            self._order.flags.writeable = False
            self._rows.clear()
        return self._order


def _minimal(idx: np.ndarray, rel: np.ndarray) -> np.ndarray:
    """Members of ``idx`` with no other member strictly below them.

    ``rel[a, b]`` is ``idx[a] <= idx[b]``; it is overwritten.
    """
    np.fill_diagonal(rel, False)
    return idx[~rel.any(0)]


def oracle_join(pres: Presentation, x: Element, y: Element, ball: Ball) -> JoinResult:
    """Brute-force join over a ball, independent of any structural algorithm.

    Returns Finite(m) for the first common upper bound m in ball order that
    lies below all of them (unique: the order is antisymmetric), otherwise
    inconclusive, even for an empty candidate set.  Reads the rows of x, y
    and the scanned bounds only.
    """
    ubs = np.flatnonzero(ball.leq_row(ball.position(x)) & ball.leq_row(ball.position(y)))
    for z in ubs:
        if ball.leq_row(z)[ubs].all():
            return JoinResult.finite(ball.elements[z])
    return JoinResult.inconclusive_within(ball.radius)


def verify_join(pres: Presentation, x: Element, y: Element, j: Element, ball: Ball) -> bool:
    """Soundness harness: j is an upper bound of x, y minimal on the ball."""
    if not (pres.leq(x, j) and pres.leq(y, j)):
        return False
    ubs = np.flatnonzero(ball.leq_row(ball.position(x)) & ball.leq_row(ball.position(y)))
    return bool(pres.order_matrix((j,), [ball.elements[z] for z in ubs]).all())


def check_weak_ql(pres: Presentation, ball: Ball) -> list[dict]:
    """Scan all ball pairs for failures of the least-upper-bound property.

    A finding records a pair with at least two mutually incomparable minimal
    upper bounds in the ball and no ball element that is a common upper
    bound lying below both.  Findings are candidates only: the true join
    could live outside the ball.

    Only incomparable pairs with a common upper bound can fail: if x <= y,
    y is the least upper bound.  The second clause follows from the first:
    a common upper bound below two distinct minimal ones equals both.
    """
    rel = ball.order()
    as_float = rel.astype(np.float32)  # exact counts; uint8 would wrap at 256
    bounded = (as_float @ as_float.T) > 0
    candidates = bounded & ~rel & ~rel.T
    findings: list[dict] = []
    for i, j in zip(*np.nonzero(np.triu(candidates, 1))):
        ubs = np.flatnonzero(rel[i] & rel[j])
        minimal = _minimal(ubs, rel[np.ix_(ubs, ubs)])
        if len(minimal) >= 2:
            findings.append(
                {
                    "pair": sorted(pres.canonical_str(ball.elements[k]) for k in (i, j)),
                    "upper_bounds": sorted(pres.canonical_str(ball.elements[m]) for m in minimal),
                    "classification": "violation candidate within ball",
                }
            )
    findings.sort(key=lambda f: (f["pair"], f["upper_bounds"]))
    return findings


class IntGroup(Presentation):
    """(Z, N) with the usual order; joins are maxima and always exist."""

    family = "int"
    name = "int"

    def identity(self) -> int:
        return 0

    def mul(self, x: int, y: int) -> int:
        return x + y

    def inv(self, x: int) -> int:
        return -x

    def is_positive(self, x: int) -> bool:
        return x >= 0

    def _join(self, x: int, y: int) -> JoinResult:
        return JoinResult.finite(max(x, y))

    def leq(self, x: int, y: int) -> bool:
        return x <= y

    def order_matrix(self, xs: Sequence[int], ys: Sequence[int]) -> np.ndarray:
        return np.less_equal.outer(np.asarray(xs), np.asarray(ys))

    def positive_generators(self) -> list[int]:
        return [1]

    def canonical_str(self, x: int) -> str:
        return str(x)

    def parse(self, text: str) -> int:
        return int(text)


class DirectSum(Presentation):
    """Componentwise direct sum of presentations, ordered componentwise.

    The join is the tuple of component joins; it is infinite as soon as one
    component join is, whatever the order of the components, and otherwise
    inconclusive if a component is.
    """

    family = "directsum"

    def __init__(self, parts: Sequence[Presentation]):
        self.parts = tuple(parts)
        self.name = "sum(" + ",".join(p.name for p in self.parts) + ")"

    def identity(self) -> tuple:
        return tuple(p.identity() for p in self.parts)

    def mul(self, x: tuple, y: tuple) -> tuple:
        return tuple(p.mul(a, b) for p, a, b in zip(self.parts, x, y))

    def inv(self, x: tuple) -> tuple:
        return tuple(p.inv(a) for p, a in zip(self.parts, x))

    def is_positive(self, x: tuple) -> bool:
        return all(p.is_positive(a) for p, a in zip(self.parts, x))

    def _join(self, x: tuple, y: tuple) -> JoinResult:
        comps, undecided = [], None
        for p, a, b in zip(self.parts, x, y):
            r = p._join(a, b)
            if r.is_infinite:
                return JoinResult.infinite()
            if r.is_inconclusive:
                undecided = undecided or r
            else:
                comps.append(r.value)
        return undecided or JoinResult.finite(tuple(comps))

    def leq(self, x: tuple, y: tuple) -> bool:
        return all(p.leq(a, b) for p, a, b in zip(self.parts, x, y))

    def order_matrix(self, xs: Sequence[tuple], ys: Sequence[tuple]) -> np.ndarray:
        out = np.ones((len(xs), len(ys)), dtype=bool)
        for k, p in enumerate(self.parts):
            out &= p.order_matrix([x[k] for x in xs], [y[k] for y in ys])
        return out

    def positive_generators(self) -> list[tuple]:
        gens = []
        e = self.identity()
        for k, p in enumerate(self.parts):
            for g in p.positive_generators():
                gens.append(e[:k] + (g,) + e[k + 1:])
        return gens

    def canonical_str(self, x: tuple) -> str:
        return "(" + ", ".join(p.canonical_str(a) for p, a in zip(self.parts, x)) + ")"
