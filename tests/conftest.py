"""Shared fixtures: presentations and balls are built once.

Balls memoise their order rows, so sharing a ball shares its relation.
"""

from __future__ import annotations

from wqlat.presets import get_presentation

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
