"""Shared fixtures: presentations and balls are built once.

Balls memoise their order rows, so sharing a ball shares its relation.
"""

from __future__ import annotations

from pathlib import Path

from wqlat.controlled import fibers
from wqlat.presets import get_presentation

ROOT = Path(__file__).resolve().parents[1]
# The square graph of bench/presets, read by absolute path from any directory.
SQUARE4_FILE = "bench/presets/square4.json"
SQUARE4 = f"graph:{ROOT / SQUARE4_FILE}"
# The 16 presets of the README table.
README_PRESETS = (
    "free:2", "scarparo", "bs:1,2", "bs:2,3", "bs:2,-3", "bs:1,-1", "hnn+:x,y@x,y", "hnn-:x,y@x,y",
    "graph:path3", "graph:noedge2", "graph:complete2", SQUARE4,
    "sd:swap2", "sd:perm3", "sd:phi-ab", "sd:nonexample",
)

_PRES: dict = {}
_BALLS: dict = {}


def pres_of(name: str):
    if name not in _PRES:
        _PRES[name] = get_presentation(name)
    return _PRES[name]


def ball_of(name: str, radius: int):
    key = (name, radius)
    if key not in _BALLS:
        _BALLS[key] = pres_of(name).enumerate_ball(radius, cap=radius)
    return _BALLS[key]


def fiber_of(name: str, radius: int, q) -> list:
    """The elements of ``ball_of(name, radius)`` over q under the preset's morphism, in ball order."""
    return fibers(pres_of(name).morphism(), ball_of(name, radius)).get(q, [])


def short(name):
    """A preset name for test ids: the square graph by its file name."""
    return "graph:square4.json" if name == SQUARE4 else name


# Acceptance criteria report lines, printed after the run.
ACCEPTANCE_LOG: list[str] = []


def record_criterion(number: int, description: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number} [{status}] {description}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_LOG.append(line)
    print(line)
    return ok


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LOG:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LOG):
            terminalreporter.write_line(line)
