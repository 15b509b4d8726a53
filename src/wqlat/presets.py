"""Named presets: the registry that parses preset names into presentations."""

from __future__ import annotations

import json
from pathlib import Path

from . import semidirect as sd
from .baumslag import BaumslagSolitar
from .graphprod import Graph, GraphProduct
from .hnn import MINUS, PLUS, HnnExtension
from .order import Presentation, PresentationError
from .words import FreeGroup, ScarparoCone


def get_presentation(name: str, within: frozenset = frozenset()) -> Presentation:
    """The presentation a preset name denotes.

    ``within`` holds the graph files being read, so that a file naming
    itself through its vertices, directly or through other files, is
    refused instead of read forever.
    """
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
        return _graph(name[6:], within)
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


def _graph(spec: str, within: frozenset) -> GraphProduct:
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
        key = path.resolve()
        if key in within:
            raise PresentationError(f"graph file {path.name} names itself through its vertices")
        vertices = [get_presentation(v, within | {key}) for v in names]
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
