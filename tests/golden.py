"""The golden corpus of ``wqlat`` reports, and its recorder.

``tests/golden.txt`` pins one command per line, sorted by argv::

    <sha256 of stdout> <exit code> <argv, shlex-quoted>

Every command runs from the repository root, so a relative preset such as
``graph:bench/presets/square4.json`` names a file of this repository.
``tests/test_golden.py`` runs each line in-process.  This script records
lines and checks them against any command line:

    python tests/golden.py record PARENT -- ARGV...
        run ``python -m wqlat.cli ARGV`` on the sources in PARENT/src and
        insert its line; an argv that is already pinned is refused
    python tests/golden.py check CMD...
        run ``CMD ARGV`` for every line and exit 1, listing each
        mismatch, if a digest or an exit code differs

A new pin is recorded from a checkout of the parent commit (``git archive
HEAD | tar -x -C DIR``) before the code changes, so that it holds what the
old code printed.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "golden.txt"


def load() -> dict[tuple[str, ...], tuple[str, int]]:
    """argv -> (sha256 of stdout, exit code), one entry per corpus line."""
    pins = {}
    for line in CORPUS.read_text().splitlines():
        digest, code, command = line.split(" ", 2)
        pins[tuple(shlex.split(command))] = (digest, int(code))
    return pins


def dump(pins: dict) -> str:
    """The corpus text of ``pins``: one line each, sorted by argv."""
    return "".join(f"{digest} {code} {shlex.join(argv)}\n" for argv, (digest, code) in sorted(pins.items()))


def run(cmd: list[str], env=None) -> tuple[tuple[str, int], str]:
    """((sha256 of stdout, exit code), stderr) of ``cmd`` run from the repository root."""
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True)
    return (hashlib.sha256(proc.stdout).hexdigest(), proc.returncode), proc.stderr.decode(errors="replace")


def record(parent: str, argv: list[str]) -> int:
    pins = load()
    if tuple(argv) in pins:
        print(f"already pinned: {shlex.join(argv)}", file=sys.stderr)
        return 1
    env = {**os.environ, "PYTHONPATH": str(Path(parent).resolve() / "src")}
    pins[tuple(argv)], _ = run([sys.executable, "-m", "wqlat.cli", *argv], env)
    CORPUS.write_text(dump(pins))
    print(f"{pins[tuple(argv)][1]} {shlex.join(argv)}")
    return 0


def check(cmd: list[str]) -> int:
    pins = load()
    mismatches = 0
    for argv, expected in pins.items():
        got, err = run([*cmd, *argv])
        if got != expected:
            mismatches += 1
            stdout = "same stdout" if got[0] == expected[0] else "stdout differs"
            print(f"MISMATCH {shlex.join(argv)}: exit {got[1]}, expected {expected[1]}, {stdout}")
            print(err, end="")
    print(f"{len(pins) - mismatches} of {len(pins)} pins match")
    return 1 if mismatches else 0


def main(argv: list[str]) -> int:
    if len(argv) >= 4 and argv[0] == "record" and argv[2] == "--":
        return record(argv[1], argv[3:])
    if len(argv) >= 2 and argv[0] == "check":
        return check(argv[1:])
    print(__doc__, file=sys.stderr)
    return 64


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
