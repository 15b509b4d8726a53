"""Graph products of weakly quasi-lattice ordered groups.

An element is a sequence of syllables (vertex, vertex-group element).  Two
syllables commute when their vertices are adjacent in the graph; same-vertex
syllables amalgamate whenever everything between them commutes with that
vertex.  Canonical form: amalgamate until no pair merges, then take the
lexicographically least shuffle (greedy smallest available vertex), which
fixes one representative per commutation class.

Joins follow the initial-vertex recursion
``x v y = (x_I v y_I)(x' v y')`` with a final verification step that turns
the formula into a total decision procedure: a verified candidate is a
common upper bound, and when any common upper bound exists the formula
value is the least one.
"""

from __future__ import annotations

import re
from typing import Sequence

from .controlled import Morphism
from .order import DirectSum, JoinResult, Presentation, PresentationError

GpElement = tuple  # tuple[tuple[int, Element], ...]

_SYLLABLE_RE = re.compile(r"\[\s*v(\d+)\s*:\s*([^\]]*)\]")


class Graph:
    """Symmetric irreflexive adjacency on vertices 0..n-1."""

    def __init__(self, n_vertices: int, edges: Sequence[Sequence[int]]):
        self.n_vertices = n_vertices
        self.adj = [[False] * n_vertices for _ in range(n_vertices)]
        for i, j in edges:
            if i == j:
                raise PresentationError("no self-loops")
            if not (0 <= i < n_vertices and 0 <= j < n_vertices):
                raise PresentationError(f"edge ({i},{j}) outside vertex range")
            self.adj[i][j] = self.adj[j][i] = True
        self.edges = sorted(tuple(sorted((i, j))) for i, j in edges)

    def adjacent(self, i: int, j: int) -> bool:
        return self.adj[i][j]


class GraphProduct(Presentation):
    family = "graphprod"

    def __init__(self, graph: Graph, vertex_pres: Sequence[Presentation], name: str | None = None):
        if len(vertex_pres) != graph.n_vertices:
            raise ValueError("one presentation per vertex required")
        self.graph = graph
        self.vertices = tuple(vertex_pres)
        self.name = name or f"graph:{graph.n_vertices}v"

    def __repr__(self):
        return f"GraphProduct({self.name})"

    def identity(self) -> GpElement:
        return ()

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.graph.n_vertices:
            raise PresentationError(f"invalid vertex id {v}")

    def canon(self, syllables) -> GpElement:
        """Delete identities, amalgamate exhaustively, then sort shuffles."""
        items = []
        for v, g in syllables:
            self._check_vertex(v)
            if g != self.vertices[v].identity():
                items.append((v, g))
        changed = True
        while changed:
            changed = False
            for i in range(len(items)):
                vi, gi = items[i]
                for j in range(i + 1, len(items)):
                    vj = items[j][0]
                    if vj == vi:
                        prod = self.vertices[vi].mul(gi, items[j][1])
                        del items[j]
                        if prod == self.vertices[vi].identity():
                            del items[i]
                        else:
                            items[i] = (vi, prod)
                        changed = True
                        break
                    if not self.graph.adjacent(vj, vi):
                        break
                if changed:
                    break
        out = []
        while items:
            best = None
            for idx in range(len(items)):
                v = items[idx][0]
                if all(self.graph.adjacent(items[l][0], v) for l in range(idx)):
                    if best is None or v < items[best][0]:
                        best = idx
            out.append(items.pop(best))
        return tuple(out)

    def mul(self, x: GpElement, y: GpElement) -> GpElement:
        return self.canon(x + y)

    def inv(self, x: GpElement) -> GpElement:
        return self.canon(tuple((v, self.vertices[v].inv(g)) for v, g in reversed(x)))

    def is_positive(self, x: GpElement) -> bool:
        return all(self.vertices[v].is_positive(g) for v, g in x)

    def length(self, x: GpElement) -> int:
        return len(x)

    def vertex_support(self, x: GpElement) -> set[int]:
        return {v for v, _ in x}

    def initial_split(self, x: GpElement, vertex: int):
        """(x_I, x') with x = x_I x'; x_I is the vertex identity when I is not initial."""
        self._check_vertex(vertex)
        for i, (v, g) in enumerate(x):
            if v == vertex and all(self.graph.adjacent(x[l][0], vertex) for l in range(i)):
                rest = self.canon(x[:i] + x[i + 1:])
                return g, rest
            if v == vertex:
                break
        return self.vertices[vertex].identity(), x

    def leq_recursive(self, x: GpElement, y: GpElement) -> bool:
        """Initial-vertex recursion for the order on positives."""
        for z in (x, y):
            if not self.is_positive(z):
                raise PresentationError("recursive order comparison needs positive elements")
        if not x:
            return True
        vertex = x[0][0]
        x_i, x_rest = self.initial_split(x, vertex)
        y_i, y_rest = self.initial_split(y, vertex)
        vp = self.vertices[vertex]
        if not vp.leq(x_i, y_i):
            return False
        if x_i == y_i:
            return self.leq_recursive(x_rest, y_rest)
        if any(not self.graph.adjacent(v, vertex) for v in self.vertex_support(x_rest)):
            return False
        r_i = vp.mul(vp.inv(x_i), y_i)
        return self.leq_recursive(x_rest, self.canon(((vertex, r_i),) + y_rest))

    def _join(self, x: GpElement, y: GpElement, trace: list | None = None) -> JoinResult:
        """Initial-vertex recursion; ``trace`` collects (x', y', x' v y') per layer."""
        if not x:
            return JoinResult.finite(y)
        if not y:
            return JoinResult.finite(x)
        vertex = x[0][0]
        x_i, x_rest = self.initial_split(x, vertex)
        y_i, y_rest = self.initial_split(y, vertex)
        j_i = self.vertices[vertex].join(x_i, y_i)
        if not j_i.is_finite:
            return j_i
        j_rest = self._join(x_rest, y_rest, trace)
        if not j_rest.is_finite:
            return j_rest
        candidate = self.mul(((vertex, j_i.value),), j_rest.value)
        if self.leq(x, candidate) and self.leq(y, candidate):
            if trace is not None:
                trace.append((x_rest, y_rest, j_rest.value))
            return JoinResult.finite(candidate)
        return JoinResult.infinite()

    def phi(self, x: GpElement) -> tuple:
        """Componentwise image in the direct sum of the vertex groups."""
        comps = [p.identity() for p in self.vertices]
        for v, g in x:
            comps[v] = self.vertices[v].mul(comps[v], g)
        return tuple(comps)

    def phi_target(self) -> DirectSum:
        return DirectSum(self.vertices)

    def morphism(self) -> Morphism:
        return Morphism("vertexwise", self, self.phi_target(), self.phi)

    def positive_generators(self) -> list[GpElement]:
        gens = []
        for v, p in enumerate(self.vertices):
            for g in p.positive_generators():
                gens.append(((v, g),))
        return gens

    def canonical_str(self, x: GpElement) -> str:
        if not x:
            return "e"
        return " ".join(f"[v{v}: {self.vertices[v].canonical_str(g)}]" for v, g in x)

    def parse(self, text: str) -> GpElement:
        stripped = text.strip()
        if stripped == "e":
            return ()
        if _SYLLABLE_RE.sub("", stripped).strip():
            raise PresentationError(f"malformed syllable text {text!r}; expected [vI: word] tokens")
        syllables = []
        for m in _SYLLABLE_RE.finditer(stripped):
            v = int(m.group(1))
            self._check_vertex(v)
            syllables.append((v, self.vertices[v].parse(m.group(2).strip())))
        return self.canon(syllables)
