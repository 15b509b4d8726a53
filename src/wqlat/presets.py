"""Named presets wiring each family to its canonical morphism and witnesses."""

from __future__ import annotations

import json
from itertools import product
from pathlib import Path

from . import semidirect as sd
from .baumslag import BaumslagSolitar
from .controlled import Morphism
from .graphprod import Graph, GraphProduct
from .hnn import MINUS, PLUS, HnnExtension
from .order import DirectSum, IntGroup, Presentation, PresentationError
from .words import EMPTY, FreeGroup, ScarparoCone, word_pow


def get_presentation(name: str) -> Presentation:
    if name == "scarparo":
        return ScarparoCone()
    if name.startswith("free:"):
        return FreeGroup(_int(name[5:], "generator count"))
    if name.startswith("bs:"):
        c_text, _, d_text = name[3:].partition(",")
        return BaumslagSolitar(_int(c_text, "c"), _int(d_text, "d"))
    if name.startswith("hnn+:") or name.startswith("hnn-:"):
        return _hnn(name)
    if name.startswith("graph:"):
        return _graph(name[6:])
    if name.startswith("sd:"):
        return _semidirect(name[3:])
    raise PresentationError(f"unknown preset {name!r}")


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise PresentationError(f"malformed {what} in preset: {text!r}") from None


def _hnn(name: str) -> HnnExtension:
    mode = PLUS if name[3] == "+" else MINUS
    body = name[5:]
    words_part, sep, alphabet_part = body.partition("@")
    if not sep:
        raise PresentationError("hnn preset needs u,w@alphabet")
    u_text, sep, w_text = words_part.partition(",")
    if not sep:
        raise PresentationError("hnn preset needs two subgroup words u,w")
    names = tuple(s.strip() for s in alphabet_part.split(","))
    if any(len(n) != 1 for n in names):
        raise PresentationError("hnn preset generators must be single characters")
    base = FreeGroup(len(names), names)
    u = base.parse(" ".join(u_text))
    w = base.parse(" ".join(w_text))
    return HnnExtension(base, u, w, mode)


_GRAPH_PRESETS = {
    "path3": (3, [(0, 1), (1, 2)]),
    "noedge2": (2, []),
    "complete2": (2, [(0, 1)]),
}


def _graph(spec: str) -> GraphProduct:
    if spec in _GRAPH_PRESETS:
        n, edges = _GRAPH_PRESETS[spec]
        vertices = [FreeGroup(1) for _ in range(n)]
        return GraphProduct(Graph(n, edges), vertices, name=f"graph:{spec}")
    path = Path(spec)
    if path.suffix == ".json" and path.exists():
        try:
            config = json.loads(path.read_text())
        except ValueError as exc:
            raise PresentationError(f"graph file {path.name} is not valid JSON: {exc}") from None
        config = config if isinstance(config, dict) else {}
        names, edges = config.get("vertices"), config.get("edges", [])
        if not (
            isinstance(names, list) and all(isinstance(v, str) for v in names) and isinstance(edges, list)
            and all(isinstance(e, list) and len(e) == 2 and all(type(k) is int for k in e) for e in edges)
        ):
            raise PresentationError(f"graph file {path.name} needs 'vertices' (preset names) and 'edges' (index pairs)")
        vertices = [get_presentation(v) for v in names]
        return GraphProduct(Graph(len(vertices), edges), vertices, name=f"graph:{path.name}")
    raise PresentationError(f"unknown graph preset {spec!r}")


def _semidirect(spec: str) -> sd.SemidirectProduct:
    factories = {
        "swap2": sd.swap2,
        "perm3": sd.perm3,
        "phi-ab": sd.phi_ab,
        "nonexample": sd.nonexample,
    }
    if spec not in factories:
        raise PresentationError(f"unknown semidirect preset {spec!r}")
    return factories[spec]()


# -- canonical morphisms -----------------------------------------------------


def letter_sum(word) -> int:
    return sum(sign for _, sign in word)


def morphism_for(pres: Presentation) -> Morphism:
    if pres.family in ("free", "scarparo"):
        return Morphism("length", pres, IntGroup(), letter_sum)
    if pres.family == "bs":
        return Morphism("height", pres, IntGroup(), pres.height)
    if pres.family == "hnn":
        return Morphism("height", pres, IntGroup(), pres.height)
    if pres.family == "graphprod":
        return Morphism("vertexwise", pres, pres.phi_target(), pres.phi)
    if pres.family == "semidirect":
        if pres.join_rule == sd.SemidirectProduct.JOIN_PHI_AB:
            target = DirectSum((IntGroup(), IntGroup()))
            return Morphism(
                "exp-sum-pair",
                pres,
                target,
                lambda x: (sum(s for g, s in x[0] if g == 0), x[1]),
            )
        return Morphism("projection", pres, IntGroup(), pres.projection)
    raise PresentationError(f"no canonical morphism for family {pres.family}")


# -- witness data -------------------------------------------------------------


def _fiber_sigma(mor: Morphism):
    def witness(q, ball):
        return [x for x in ball if mor(x) == q]

    return witness


def sigma_witness_for(pres: Presentation, mor: Morphism):
    """Minimal-element witness data, sliced to a ball where infinite."""
    if pres.family in ("free", "scarparo", "graphprod"):
        return _fiber_sigma(mor)
    if pres.family == "bs":
        if pres.params.d_signed > 0:
            d = pres.params.d_signed

            def witness(q, ball):
                if q == 0:
                    return [pres.identity()]
                return [
                    (tuple(s) + (0,), (1,) * q) for s in product(range(d), repeat=q)
                ]

            return witness

        def witness(q, ball):  # minimal elements: none above height zero
            return [pres.identity()] if q == 0 else []

        return witness
    if pres.family == "hnn":
        if pres.mode == PLUS:

            def witness(q, ball):
                return sorted(
                    {pres.stem(x) for x in ball if mor(x) == q},
                    key=pres.canonical_str,
                )

            return witness

        def witness(q, ball):
            return [pres.identity()] if q == 0 else []

        return witness
    if pres.family == "semidirect":
        if pres.join_rule == sd.SemidirectProduct.JOIN_PHI_AB:
            # Strip trailing b-letters off each fiber member: the result is
            # the minimal element below it and need not lie in the ball.
            def witness(q, ball):
                out = set()
                for x in ball:
                    if mor(x) == q:
                        word = x[0]
                        while word and word[-1] == (1, 1):
                            word = word[:-1]
                        out.add((word, x[1]))
                return sorted(out, key=pres.canonical_str)

            return witness

        def witness(q, ball):
            return [(EMPTY, q)]

        return witness
    raise PresentationError(f"no sigma witness for family {pres.family}")


def lambda_witness_for(pres: Presentation, mor: Morphism):
    """Decreasing-chain witness data for the chain families."""
    if pres.family == "bs" and pres.params.d_signed < 0:

        def witness(q, ball):
            if q == 0:
                return [("e", lambda n: pres.identity())]
            labels = sorted({x[0][:q] for x in ball if mor(x) == q})
            out = []
            for label in labels:
                out.append(
                    (
                        str(label),
                        lambda n, label=label: (label + (-n,), (1,) * q),
                    )
                )
            return out

        return witness
    if pres.family == "hnn" and pres.mode == MINUS:
        w = pres.w

        def witness(q, ball):
            if q == 0:
                return [("e", lambda n: pres.identity())]
            stems = sorted(
                {pres.stem(x) for x in ball if mor(x) == q}, key=pres.canonical_str
            )
            out = []
            for stem in stems:
                out.append(
                    (
                        pres.canonical_str(stem),
                        lambda n, stem=stem: (
                            stem[0][:-1] + (word_pow(w, -n),),
                            stem[1],
                        ),
                    )
                )
            return out

        return witness
    from .controlled import sigma_to_lambda

    return sigma_to_lambda(sigma_witness_for(pres, mor))


ACCEPTANCE_PRESETS = (
    "free:2",
    "scarparo",
    "bs:1,2",
    "bs:2,3",
    "bs:2,-3",
    "bs:1,-1",
    "graph:path3",
    "graph:noedge2",
    "sd:swap2",
    "sd:phi-ab",
    "hnn-:x,y@x,y",
)
