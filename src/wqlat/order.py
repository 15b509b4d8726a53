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
positive generators, at most ``BALL_ELEMENT_CAP`` elements) with their
canonical names and order relation, a conservative brute-force join
oracle, and the weak-quasi-lattice violation scan.  The relation has one
family hook, ``Presentation.order_matrix(xs, ys)``, the boolean matrix of ``x <= y``:
by default one inverse per x and one product per pair, in the free groups
and semidirect products numpy kernels, in the integers and direct sums
array comparisons, in the stable-letter families by stem blocks whose
longer columns are grouped by their part at the stem's length.  The
search for a ball's elements is one ``mul`` per element and generator (on
the stable-letter layer one base product when the generator is a base
letter).  ``Ball.order()`` is the hook over the ball squared;
``Ball.leq_row(i)`` is its single row ``elements[i] <= .``, memoised until
the matrix exists and served from it afterwards, so a ball holds one
relation.  The oracle reads only the rows it needs, so large balls never
pay for the matrix.  The second hook is ``join_table(xs, rel)``, handed
``rel = order_matrix(xs, xs)``: the joins that are not infinite of the open
pairs i < j, those ``rel`` leaves incomparable (the join of x <= y is y),
which the controlled-map checks read instead of joining pair by pair.
The oracle is three-valued on purpose: a finite ball can certify a least
upper bound but never the absence of one.

The scan reads the whole relation.  It finds the minimal upper bounds of
all candidate pairs by one float32 matrix product per chunk of pairs (the
proof is in ``check_weak_ql``); after the bounded pairs are found it holds
one n x n float32 matrix and one chunk of at most ``SCAN_CHUNK_CELLS``
cells besides the relation.
Every report that lists ball elements reads their names from
``Ball.names``, the strings the ball was sorted by.  They are made shell
by shell on first read: ``Ball.core(r)`` names the shells of length <= r
not yet named in one ``canonical_strs(xs)`` call (by default one
``canonical_str`` per element; the stable-letter families print each
distinct part once per call), so a full read is one call over the ball and
a read of the core names the core alone.
``prefix_index`` is the one "stem prefix -> indices" map, read by the
stable-letter order and by the pair mask of ``prefix_join_table``, which
shares one pair loop, ``_join_pairs(xs, mask)``, with ``join_table``.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:
    from .controlled import Morphism

DEFAULT_RADIUS_CAP = 6
# Element count past which a ball is refused: the largest ball a check
# builds today has under 5000 elements, and the n x n relation of 8192
# elements is 64 MB.
BALL_ELEMENT_CAP = 8192
# Largest |k| of a token ``name^k`` that the element grammar accepts.  A
# token is expanded letter by letter, so this bounds what one token costs;
# larger exponents are refused before any letter is made.
EXPONENT_CAP = 1 << 16
# Most letters one word may hold: a parsed element, a power and an image of
# a free automorphism are refused before (or, for an image, as soon as) they
# pass it.  Images on the nonexample grow about 2.6x per power of phi, so
# ``s^14 a`` (514 229 letters) is read and ``s^15 a`` refused.
LETTER_CAP = 1 << 20
# Largest ``--chain-depth`` of the decreasing-chain check, whose cost grows
# with depth^2 times the fiber size: depth 1000 on the radius-2 ball of
# hnn-:x,y@x,y takes about 1.5 s on 2 cores.
CHAIN_DEPTH_CAP = 1 << 10
# Cell cap of one chunk of candidate pairs in ``check_weak_ql``.  A chunk
# takes 9 bytes a cell (bounds, their float32 copy, the counts), under 300 KB,
# so on balls of 250 elements or more it stays below the 9 n^2 bytes of the
# bounded-pair product before it; 2**18 cells was faster on larger balls but
# raised the scan's peak memory.
SCAN_CHUNK_CELLS = 1 << 15

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


def check_letter_cap(count: int) -> None:
    if count > LETTER_CAP:
        raise PresentationError(f"word of {count} letters exceeds {LETTER_CAP}")


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

    def join_table(self, xs: Sequence[Element], rel: np.ndarray) -> dict[tuple[int, int], JoinResult]:
        """``{(i, j): _join(xs[i], xs[j])}`` over the open pairs of ``rel``, infinite joins left out.

        ``rel = order_matrix(xs, xs)``.  The open pairs are the i < j it leaves
        incomparable (the join of x <= y is y); keys are in no set order.  One
        unguarded ``_join`` per open pair of positive elements; families
        override it where the infinite pairs can be found in bulk.
        """
        return self._join_pairs(xs, open_pairs(rel))

    def _join_pairs(self, xs: Sequence[Element], mask: np.ndarray) -> dict[tuple[int, int], JoinResult]:
        """``{(i, j): _join(xs[i], xs[j])}`` over the pairs ``mask`` holds, infinite joins left out."""
        table = {}
        for i, j in np.argwhere(mask).tolist():
            if not (r := self._join(xs[i], xs[j])).is_infinite:
                table[i, j] = r
        return table

    def comparable_join(self, x: Element, y: Element) -> JoinResult:
        """Join where a common upper bound forces comparability: the larger one, or none."""
        if self.leq(x, y):
            return JoinResult.finite(y)
        if self.leq(y, x):
            return JoinResult.finite(x)
        return JoinResult.infinite()

    def comparable_join_table(self, xs: Sequence[Element], rel: np.ndarray) -> dict[tuple[int, int], JoinResult]:
        """``join_table`` of ``comparable_join``: no open pair has a join, so the table is empty."""
        return {}

    def prefix_join_table(
        self, xs: Sequence[Element], stems: Sequence[tuple], rel: np.ndarray
    ) -> dict[tuple[int, int], JoinResult]:
        """``join_table`` with ``_join`` only on the open pairs with prefix-comparable stems.

        Exact where x <= z makes the stem of x a prefix of the stem of z.
        """
        above = prefix_index(enumerate(stems))
        extends = np.zeros((len(xs), len(xs)), dtype=bool)  # row a: the stems that extend stem a
        for a, s in enumerate(stems):
            extends[a, above[s]] = True
        return self._join_pairs(xs, (extends | extends.T) & open_pairs(rel))

    def canonical_str(self, x: Element) -> str:
        raise NotImplementedError

    def canonical_strs(self, xs: Sequence[Element]) -> list[str]:
        """``canonical_str`` of each of xs, in order: the names of the shells a ball read names, in one call."""
        return [self.canonical_str(x) for x in xs]

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

    def sigma_witness(self, q, fiber: list) -> list:
        """Minimal-element witness Sigma_q for the ball's fiber over q: here the fiber itself."""
        return fiber

    def lambda_witness(self, q, fiber: list) -> list:
        """Decreasing-chain witness ``(label, chain)`` for the fiber over q: here constant chains on Sigma_q."""
        return [(f"const{k}", lambda n, s=s: s) for k, s in enumerate(self.sigma_witness(q, fiber))]

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
        return Ball(self, radius, lengths)


class Ball:
    """Finite ordered stand-in for P: all elements of generator length <= radius.

    The search's ``{element: length}`` map answers ``len`` and ``in``.
    Elements are sorted by (length, canonical string) so reports and indices
    are reproducible; ``names`` keeps those strings, aligned with
    ``elements``.  The identity sits at index 0.  So the shells of length
    <= r are a prefix of the ball, sorted by their own names: ``core(r)``
    names and sorts them one shell at a time, on first read, and
    ``elements``, ``names``, ``lengths`` and ``index`` read the whole
    ``core(radius)``.  Besides the elements a ball holds one thing, their
    order relation from the family's ``order_matrix``: read by rows
    (``leq_row``, memoised) or whole (``order()``); after ``order()`` the
    rows are its rows.
    """

    def __init__(self, pres: Presentation, radius: int, lengths: dict[Element, int]):
        self.pres = pres
        self.radius = radius
        self._length = lengths
        self._sorted: list[Element] = []
        self._names: list[str] = []
        self._ends: list[int] = []  # _ends[n]: how many elements the named shells of length <= n hold
        self._rows: dict[int, np.ndarray] = {}
        self._order: np.ndarray | None = None

    @functools.cached_property
    def _shells(self) -> list[list[Element]]:
        shells: list[list[Element]] = [[] for _ in range(self.radius + 1)]
        for el, n in self._length.items():
            shells[n].append(el)
        return shells

    def core(self, radius: int) -> tuple[tuple[Element, ...], tuple[str, ...]]:
        """Elements and names of the shells of length <= radius: the first entries of ``elements`` and ``names``.

        The shells up to radius not yet named are named in one
        ``canonical_strs`` call, and each is sorted by its names.
        """
        r = min(radius, self.radius)
        if r >= len(self._ends):
            shells = self._shells[len(self._ends):r + 1]
            fresh = [el for shell in shells for el in shell]
            names = self.pres.canonical_strs(fresh)
            start = 0
            for shell in shells:
                stop = start + len(shell)
                by_name = sorted(range(start, stop), key=names.__getitem__)
                self._sorted += [fresh[k] for k in by_name]
                self._names += [names[k] for k in by_name]
                self._ends.append(len(self._sorted))
                start = stop
        k = self._ends[r] if r >= 0 else 0
        return tuple(self._sorted[:k]), tuple(self._names[:k])

    @functools.cached_property
    def elements(self) -> tuple[Element, ...]:
        return self.core(self.radius)[0]

    @functools.cached_property
    def names(self) -> tuple[str, ...]:
        return self.core(self.radius)[1]

    @functools.cached_property
    def lengths(self) -> tuple[int, ...]:
        return tuple(map(self._length.__getitem__, self.elements))

    @functools.cached_property
    def index(self) -> dict[Element, int]:
        return {el: i for i, el in enumerate(self.elements)}

    def __len__(self) -> int:
        return len(self._length)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def __contains__(self, el: Element) -> bool:
        return el in self._length

    def position(self, el: Element) -> int:
        try:
            return self.index[el]
        except KeyError:
            raise self.outside(el) from None

    def outside(self, el: Element) -> ElementOutsideBall:
        """The error for el, which the ball does not contain."""
        return ElementOutsideBall(f"element {self.pres.canonical_str(el)} not in ball of radius {self.radius}")

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


def prefix_index(stems: Iterable[tuple[int, tuple]]) -> dict[tuple, list[int]]:
    """Each prefix p of the stems of the (index, stem) pairs -> the indices whose stem starts with p (or is p)."""
    index: dict[tuple, list[int]] = {}
    for b, s in stems:
        for k in range(len(s) + 1):
            index.setdefault(s[:k], []).append(b)
    return index


def open_pairs(rel: np.ndarray) -> np.ndarray:
    """Upper-triangle mask of the pairs a join table covers: those ``rel`` leaves incomparable."""
    return np.triu(~(rel | rel.T))


def oracle_join(ball: Ball, x: Element, y: Element) -> JoinResult:
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


def verify_join(ball: Ball, x: Element, y: Element, j: Element) -> bool:
    """Soundness harness: j is an upper bound of x, y minimal on the ball."""
    pres = ball.pres
    if not (pres.leq(x, j) and pres.leq(y, j)):
        return False
    ubs = np.flatnonzero(ball.leq_row(ball.position(x)) & ball.leq_row(ball.position(y)))
    return bool(pres.order_matrix((j,), [ball.elements[z] for z in ubs]).all())


def check_weak_ql(ball: Ball) -> list[dict]:
    """Scan all ball pairs for failures of the least-upper-bound property.

    A finding records a pair with at least two mutually incomparable minimal
    upper bounds in the ball and no ball element that is a common upper
    bound lying below both.  Findings are candidates only: the true join
    could live outside the ball.  Their names are read from ``ball.names``.

    Only incomparable pairs with a common upper bound can fail: if x <= y,
    y is the least upper bound.  The second clause follows from the first:
    a common upper bound below two distinct minimal ones equals both.

    Minimality is one matrix product per chunk of candidate pairs.  Let R
    be the relation as 0/1 float32 and S the same with its diagonal
    cleared, so ``S[u, m]`` says u < m (the order is antisymmetric).  For a
    pair with upper bounds U, ``(U @ S)[m]`` counts the members of U
    strictly below m, so m in U is minimal iff that count is 0.  Every
    count is at most ``BALL_ELEMENT_CAP`` < 2**24, so float32 holds it
    exactly.  S overwrites R in place once the bounded pairs (those with
    a nonzero entry in R R^T) are known; from then on the scan holds, besides
    the relation, S and one chunk's bounds and counts, each of at most
    ``SCAN_CHUNK_CELLS`` cells.
    """
    rel = ball.order()
    as_float = rel.astype(np.float32)
    bounded = (as_float @ as_float.T) > 0
    np.fill_diagonal(as_float, 0)  # now S
    bounded &= ~rel
    bounded &= ~rel.T
    pairs = np.argwhere(np.triu(bounded, 1))
    del bounded
    names = ball.names
    findings: list[dict] = []
    step = max(1, SCAN_CHUNK_CELLS // max(1, len(ball)))
    for lo in range(0, len(pairs), step):
        chunk = pairs[lo:lo + step]
        ubs = rel[chunk[:, 0]] & rel[chunk[:, 1]]
        minimal = ubs & ((ubs.astype(np.float32) @ as_float) == 0)
        for r in np.flatnonzero(np.count_nonzero(minimal, axis=1) >= 2).tolist():
            i, j = chunk[r].tolist()
            findings.append(
                {
                    "pair": sorted((names[i], names[j])),
                    "upper_bounds": sorted(names[m] for m in np.flatnonzero(minimal[r]).tolist()),
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
