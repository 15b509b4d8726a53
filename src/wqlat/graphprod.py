"""Graph products of weakly quasi-lattice ordered groups.

An element is a sequence of syllables (vertex, vertex-group element).
Syllables at adjacent vertices commute, and same-vertex syllables with only
commuting ones between them amalgamate.  Reduced words of one element differ
only by shuffles (Green's normal form theorem: E. R. Green, thesis, Leeds
1990; Hermiller and Meier, J. Algebra 171, 1995), so the canonical form is
the least shuffle of any reduced word in the vertex order, as for traces.

Reduction is one pass: each new syllable scans back over the trailing
syllables adjacent to its vertex and amalgamates with the first same-vertex
one, or is appended; all it passed commutes with it, so a cancellation
unblocks no other pair.  The shuffle takes, one scan each, the smallest
vertex no earlier syllable blocks (a bitmask per vertex: itself and its
non-neighbours).  No normal operand is reduced again, and the order never
shuffles: positivity reads the syllables of any reduced form of x^-1 y.

Joins unroll the initial-vertex recursion ``x v y = (x_I v y_I)(x' v y')``
into one loop and one product.  Checked at every layer it is a total
decision procedure: a verified value is a common upper bound, and when any
common upper bound exists every layer passes and the value is the least one.
Only the final value is checked.
"""

from __future__ import annotations

import re
from typing import Sequence

import numpy as np

from .controlled import Morphism
from .order import DirectSum, JoinResult, Presentation, PresentationError

GpElement = tuple  # tuple[tuple[int, Element], ...]

# The word keeps its leading blanks (``parse`` strips them): a ``\s*`` after
# the colon would let each syllable match in as many ways as it has blanks
# there, and a failed whole-text match would try every combination.
_SYLLABLE = r"\[\s*v(\d+)\s*:([^\]]*)\]"
_SYLLABLE_RE = re.compile(_SYLLABLE)
# Syllables with blank text around and between them; each matches one way.
_SYLLABLE_TEXT_RE = re.compile(rf"\s*(?:{_SYLLABLE}\s*)*")


class Graph:
    """Symmetric irreflexive adjacency on vertices 0..n-1; bit u of ``neighbours[v]`` marks u ~ v."""

    def __init__(self, n_vertices: int, edges: Sequence[Sequence[int]]):
        self.n_vertices = n_vertices
        self.neighbours = [0] * n_vertices
        for i, j in edges:
            if i == j:
                raise PresentationError("no self-loops")
            if not (0 <= i < n_vertices and 0 <= j < n_vertices):
                raise PresentationError(f"edge ({i},{j}) outside vertex range")
            self.neighbours[i] |= 1 << j
            self.neighbours[j] |= 1 << i

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.neighbours[i] >> j & 1)


class GraphProduct(Presentation):
    family = "graphprod"

    def __init__(self, graph: Graph, vertex_pres: Sequence[Presentation], name: str | None = None):
        if len(vertex_pres) != graph.n_vertices:
            raise ValueError("one presentation per vertex required")
        self.graph = graph
        self.vertices = tuple(vertex_pres)
        self.name = name or f"graph:{graph.n_vertices}v"
        # Bit u of _block[v]: a v-syllable keeps a later u-syllable from moving past it.
        self._block = tuple(((1 << graph.n_vertices) - 1) ^ mask for mask in graph.neighbours)
        self._ids = tuple(p.identity() for p in self.vertices)

    def __repr__(self):
        return f"GraphProduct({self.name})"

    def identity(self) -> GpElement:
        return ()

    def _check_vertex(self, v: int) -> int:
        """``v``, once it is known to be a vertex id."""
        if not 0 <= v < self.graph.n_vertices:
            raise PresentationError(f"invalid vertex id {v}")
        return v

    def _checked(self, x):
        """``x``, once each of its syllables' vertex ids is known to be one."""
        for v, _ in x:
            self._check_vertex(v)
        return x

    def _push(self, items: list, syllables) -> list:
        """Append ``syllables``, whose vertex ids are checked, to the reduced list ``items``, keeping it reduced."""
        adj, ids, vertices = self.graph.neighbours, self._ids, self.vertices
        for v, g in syllables:
            if g == ids[v]:
                continue
            mask, k = adj[v], len(items) - 1
            while k >= 0 and items[k][0] != v and mask >> items[k][0] & 1:
                k -= 1
            if k < 0 or items[k][0] != v:
                items.append((v, g))
            elif (h := vertices[v].mul(items[k][1], g)) == ids[v]:
                del items[k]
            else:
                items[k] = (v, h)
        return items

    def _shuffle(self, items: list) -> GpElement:
        """Lexicographically least shuffle of a reduced list (consumed)."""
        block, full, out = self._block, (1 << self.graph.n_vertices) - 1, []
        while items:
            blocked, best = 0, 0
            for k, (u, _) in enumerate(items):
                if not blocked >> u & 1 and u < items[best][0]:
                    best = k
                blocked |= block[u]
                if blocked == full:
                    break
            out.append(items.pop(best))
        return tuple(out)

    def _inverse_syllables(self, x: GpElement) -> list:
        """x^-1 as a reduced, unshuffled list."""
        return [(v, self.vertices[v].inv(g)) for v, g in reversed(self._checked(x))]

    def canon(self, syllables) -> GpElement:
        """Delete identities, reduce in one pass, then take the least shuffle."""
        return self._shuffle(self._push([], self._checked(syllables)))

    def mul(self, x: GpElement, y: GpElement) -> GpElement:
        return self._shuffle(self._push(list(self._checked(x)), self._checked(y)))

    def inv(self, x: GpElement) -> GpElement:
        return self._shuffle(self._inverse_syllables(x))

    def is_positive(self, x: GpElement) -> bool:
        vertices = self.vertices
        return all(vertices[v].is_positive(g) for v, g in self._checked(x))

    def _above(self, x: GpElement, ys):
        # x <= y iff x^-1 y is positive, read off its reduced, unshuffled
        # form; the caller has checked the vertex ids of ``ys``.
        xi, push, vertices = self._inverse_syllables(x), self._push, self.vertices
        return (all(vertices[v].is_positive(g) for v, g in push(list(xi), y)) for y in ys)

    def leq(self, x: GpElement, y: GpElement) -> bool:
        return next(self._above(x, (self._checked(y),)))

    def order_matrix(self, xs: Sequence[GpElement], ys: Sequence[GpElement]) -> np.ndarray:
        out = np.empty((len(xs), len(ys)), dtype=bool)
        for y in ys:
            self._checked(y)
        for i, x in enumerate(xs):
            out[i] = np.fromiter(self._above(x, ys), dtype=bool, count=len(ys))
        return out

    def initial_split(self, x: GpElement, vertex: int):
        """(x_I, x') with x = x_I x'; x_I is the vertex identity when I is not initial."""
        self._check_vertex(vertex)
        for i, (v, g) in enumerate(x):
            if v == vertex:  # initial, and its removal leaves the rest reduced
                return g, x[1:] if i == 0 else self._shuffle(list(x[:i] + x[i + 1:]))
            if not self.graph.adjacent(vertex, v):
                break
        return self._ids[vertex], x

    def _join(self, x: GpElement, y: GpElement) -> JoinResult:
        """One loop over initial vertices, then one product of the vertex joins and the rest.

        By the claim of the module docstring, if x and y have a common upper
        bound, every layer's value is finite and passes its own check.  So a
        failed inner check means there is none, and then the check of the
        final value fails too: checking it alone gives the same results.
        """
        heads, xr, yr = [], x, y
        while xr and yr:
            vertex = xr[0][0]
            x_i, xr = self.initial_split(xr, vertex)
            y_i, yr = self.initial_split(yr, vertex)
            # Syllables of positive x, y are positive, so the vertex rule needs no guard.
            j_i = self.vertices[vertex]._join(x_i, y_i)
            if not j_i.is_finite:
                return j_i
            heads.append((vertex, j_i.value))
        value = self.canon(heads + list(xr or yr))
        if x and y and not (self.leq(x, value) and self.leq(y, value)):
            return JoinResult.infinite()
        return JoinResult.finite(value)

    def phi(self, x: GpElement) -> tuple:
        """Componentwise image in the direct sum of the vertex groups."""
        comps = [p.identity() for p in self.vertices]
        for v, g in x:
            comps[v] = self.vertices[self._check_vertex(v)].mul(comps[v], g)
        return tuple(comps)

    def phi_target(self) -> DirectSum:
        return DirectSum(self.vertices)

    def morphism(self) -> Morphism:
        return Morphism("vertexwise", self, self.phi_target(), self.phi)

    def positive_generators(self) -> list[GpElement]:
        return [((v, g),) for v, p in enumerate(self.vertices) for g in p.positive_generators()]

    def canonical_str(self, x: GpElement) -> str:
        return " ".join(f"[v{v}: {self.vertices[self._check_vertex(v)].canonical_str(g)}]" for v, g in x) or "e"

    def parse(self, text: str) -> GpElement:
        stripped = text.strip()
        if stripped == "e":
            return ()
        # Malformed text is reported before a bad vertex id, so vertices are
        # read only once the whole text is syllables.
        if not _SYLLABLE_TEXT_RE.fullmatch(stripped):
            raise PresentationError(f"malformed syllable text {text!r}; expected [vI: word] tokens")
        n, vertices, syllables = self.graph.n_vertices, self.vertices, []
        for v_text, word in _SYLLABLE_RE.findall(stripped):
            v = int(v_text)
            if v >= n:  # ``\d+`` reads no sign
                raise PresentationError(f"invalid vertex id {v}")
            syllables.append((v, vertices[v].parse(word.strip())))
        return self._shuffle(self._push([], syllables))
