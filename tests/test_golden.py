"""The golden corpus: every pinned ``wqlat`` report, run in-process, and what it must cover.

Each line of ``tests/golden.txt`` pins the sha256 of a command's stdout and
its exit code (``tests/golden.py`` records and checks them).  A change that
keeps every ``--json`` report byte-identical keeps every line.
"""

import hashlib
import shlex

import pytest

from wqlat.cli import main
from wqlat.presets import ACCEPTANCE_PRESETS

from conftest import README_PRESETS, SQUARE4, SQUARE4_FILE
from golden import CORPUS, ROOT, check, dump, load, record
from test_acceptance import LAMBDA_SUITE, SIGMA_SUITE

PINS = load()
# Criterion 5's radii: graph products and HNN extensions at 3, the rest at 4.
RADII = {"hnn+:x,y@x,y": 3, "hnn-:x,y@x,y": 3, "graph:path3": 3, "graph:noedge2": 3}


@pytest.mark.parametrize("argv", sorted(PINS), ids=shlex.join)
def test_report_digest(argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refusals
        code = exc.code
    assert (hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(), code) == PINS[argv]


def test_corpus_is_sorted_and_each_argv_pinned_once():
    assert CORPUS.read_text() == dump(PINS)


def test_check_lists_every_mismatch(capsys):
    # ``false ARGV`` prints nothing and exits 1, which no pin expects.
    assert check(["false"]) == 1
    out = capsys.readouterr().out
    assert out.count("MISMATCH ") == len(PINS) and out.endswith(f"0 of {len(PINS)} pins match\n")


def test_record_refuses_a_pinned_argv(capsys):
    assert record(str(ROOT), list(min(PINS))) == 1
    assert capsys.readouterr().err == f"already pinned: {shlex.join(min(PINS))}\n"
    assert CORPUS.read_text() == dump(PINS)


def test_corpus_covers_both_modes_of_criterion_5():
    for name in SIGMA_SUITE + LAMBDA_SUITE:
        argv = ("check-controlled", name, "--radius", str(RADII.get(name, 4)), "--json")
        other = "sigma" if name in LAMBDA_SUITE else "lambda"
        assert argv in PINS and argv + ("--mode", other) in PINS


def test_corpus_covers_four_joins_per_readme_preset():
    rooted = {f"graph:{SQUARE4_FILE}": SQUARE4}
    joins = [rooted.get(argv[1], argv[1]) for argv in PINS if argv[0] == "join" and len(argv) == 5]
    assert len(README_PRESETS) == 16
    assert all(joins.count(name) >= 4 for name in README_PRESETS)


def test_corpus_covers_a_nica_sample_per_acceptance_preset():
    sampled = {argv[1] for argv in PINS if argv[0] == "nica-verify" and "sample:40" in argv}
    assert sampled == set(ACCEPTANCE_PRESETS)
