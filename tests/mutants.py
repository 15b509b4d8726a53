"""Mutation sweep: named one-line mutants of ``src/``, each run against the tests that must kill it.

    python tests/mutants.py

A mutant is (name, file, old line, new line, tests).  The sweep copies
``src/``, ``tests/`` and ``bench/presets/`` into a temporary directory and
first runs the union of the listed tests there, unmutated: they must pass.
Then, one mutant at a time, it replaces the one line of the copy whose text
(indentation aside) is the old line by the new line at the same indentation,
runs the mutant's tests with ``pytest -x`` and puts the line back.  The
mutant is killed when they fail, or when they run past ``TIMEOUT_S``
(reported as a timeout), so a mutant that makes a search loop cannot hold
the sweep.  The working tree is never written, and no bytecode is cached,
so a mutant never runs an earlier one's code.

Equivalent mutants change no result, only what a run costs; they are listed
with the reason and not run.

Exit 0 when every mutant is killed, 1 when one survives, 2 when a mutant's
old line is not found exactly once or the unmutated tests fail.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "bench/presets")
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MODULES = ("controlled", "order", "hnn", "toeplitz", "words", "baumslag", "graphprod", "semidirect", "cli")
CONTROLLED, ORDER, HNN, TOEPLITZ, WORDS, BS, GRAPH, SD, CLI = (f"src/wqlat/{m}.py" for m in MODULES)

MUTANTS = (
    # The controlled-map axioms.
    Mutant("sigma-separation", CONTROLLED,
           "failed, undecided = _separation(src, sigma, lambda i, j: sigma[i] != sigma[j])",
           "failed, undecided = _separation(src, sigma, lambda i, j: False)",
           ("tests/test_controlled.py",)),
    Mutant("separation-undecided", CONTROLLED,
           "failures = [(i, j) for i, j in apart_pairs if not table[i, j].is_inconclusive]",
           "failures = apart_pairs",
           ("tests/test_controlled.py",)),
    Mutant("chain-decrease", CONTROLLED,
           "if not src.leq(chain(n + 1), chain(n)):", "if False:",
           ("tests/test_controlled.py",)),
    Mutant("chain-disjointness", CONTROLLED,
           "elif len(matched) > 1:", "elif len(matched) > 2:",
           ("tests/test_controlled.py",)),
    Mutant("order-preservation", CONTROLLED,
           "return [(els[i], els[j]) for i, j in zip(*np.nonzero(_order_breaks(mor, ball)[1]))]", "return []",
           ("tests/test_controlled.py",)),
    Mutant("join-comparable-failures", CONTROLLED,
           "failed = {(min(i, j), max(i, j)) for i, j in np.argwhere(broken).tolist()}", "failed = set()",
           ("tests/test_closed_forms.py",)),
    Mutant("join-open-failures", CONTROLLED,
           "elif not (tgt.is_finite and tgt.value == mor(r.value)):", "elif False:",
           ("tests/test_closed_forms.py",)),
    # The Toeplitz checks.
    Mutant("nica-truncation-guard", TOEPLITZ,
           "if (up & ~rng).any():", "if False:",
           ("tests/test_nica_safe.py", "tests/test_toeplitz.py")),
    Mutant("range-mask", TOEPLITZ,
           "return up, np.array([q in ball for q in quotients], dtype=bool)", "return up, up.copy()",
           ("tests/test_nica_safe.py", "tests/test_cli.py")),
    Mutant("nica-mask-key", TOEPLITZ,
           "found = self._masks.get(z)", "found = next(iter(self._masks.values()), None)",
           ("tests/test_nica_safe.py::test_one_comparison_matches_the_three_forms",)),
    Mutant("nica-pair-index", CLI,
           "return [(indices[i // n], indices[i % n]) for i in draws]",
           "return [(indices[i // n], indices[i // n]) for i in draws]",
           ("tests/test_nica_safe.py::test_pair_draw_by_position_matches_the_list_draw", "tests/test_golden.py")),
    Mutant("spanning-product", TOEPLITZ,
           "left = pres.mul(p, pres.mul(pres.inv(q), v))", "left = pres.mul(p, v)",
           ("tests/test_toeplitz.py",)),
    Mutant("matrix-unit-relation", TOEPLITZ,
           "want = units[l1, r2].restrict(safe.indices) if r1 == l2 else zero",
           "want = units[l1, r2].restrict(safe.indices)",
           ("tests/test_toeplitz.py", "tests/test_acceptance.py::test_criterion_7_matrix_units")),
    # The ball: its shells, named and sorted on first read.
    Mutant("ball-core-slice", ORDER,
           "k = self._ends[r] if r >= 0 else 0", "k = self._ends[r - 1] if r >= 1 else 0",
           ("tests/test_order_kernel.py::test_core_is_a_prefix_of_the_ball", "tests/test_nica_safe.py")),
    Mutant("ball-shell-order", ORDER,
           "by_name = sorted(range(start, stop), key=names.__getitem__)", "by_name = range(start, stop)",
           ("tests/test_order_kernel.py::test_ball_names_are_its_sort_keys", "tests/test_golden.py")),
    # The ball order and its scans.
    Mutant("wql-two-bounds", ORDER,
           "for r in np.flatnonzero(np.count_nonzero(minimal, axis=1) >= 2).tolist():",
           "for r in np.flatnonzero(np.count_nonzero(minimal, axis=1) >= 3).tolist():",
           ("tests/test_order_kernel.py",)),
    Mutant("oracle-least-element", ORDER,
           "if ball.leq_row(z)[ubs].all():", "if ball.leq_row(z)[ubs].any():",
           ("tests/test_order_core.py", "tests/test_order_kernel.py")),
    Mutant("prefix-mask", ORDER,
           "return self._join_pairs(xs, (extends | extends.T) & open_pairs(len(xs), rel))",
           "return self._join_pairs(xs, extends & open_pairs(len(xs), rel))",
           ("tests/test_stem_blocks.py", "tests/test_closed_forms.py")),
    # One rule per family: positivity, the join, the order matrix.
    Mutant("free-join-prefix", WORDS,
           "if is_prefix(x, y):", "if False:",
           ("tests/test_words.py", "tests/test_join_contract.py")),
    Mutant("scarparo-cone", WORDS,
           "return is_positive_word(x) and x[0] == (1, 1)", "return is_positive_word(x)",
           ("tests/test_words.py",)),
    Mutant("scarparo-order", WORDS,
           "order_matrix = Presentation.order_matrix", "pass",
           ("tests/test_words.py",)),
    Mutant("scarparo-join", WORDS,
           "_join = Presentation.comparable_join", "pass",
           ("tests/test_words.py",)),
    Mutant("free-order-kernel", WORDS,
           "out[start:stop] = np.take_along_axis(negsuf[start:stop], k, axis=1) & possuf[cols, k]",
           "out[start:stop] = possuf[cols, k]",
           ("tests/test_words.py", "tests/test_order_kernel.py")),
    Mutant("bs-positive-tail", BS,
           "return exps[-1] >= 0", "return exps[-1] > 0",
           ("tests/test_baumslag.py",)),
    Mutant("stable-letter-join-stem", HNN,
           "if n is None or not self.is_positive(self.stem(z)):", "if n is None:",
           ("tests/test_baumslag.py", "tests/test_hnn.py")),
    Mutant("graph-positive-syllables", GRAPH,
           "return all(self.vertices[v].is_positive(g) for v, g in x)",
           "return all(self.vertices[v].is_positive(g) for v, g in x[:1])",
           ("tests/test_graphprod.py",)),
    Mutant("graph-join-check", GRAPH,
           "if x and y and not (self.leq(x, value) and self.leq(y, value)):", "if False:",
           ("tests/test_graphprod.py",)),
    Mutant("graph-order-quotient", GRAPH,
           "return (positive(push(list(xi), y)) for y in ys)",
           "return (positive(push(list(xi), y[:1])) for y in ys)",
           ("tests/test_graphprod.py", "tests/test_order_core.py")),
    Mutant("sd-positive-level", SD,
           "return is_positive_word(x[0]) and x[1] >= 0", "return is_positive_word(x[0])",
           ("tests/test_semidirect.py",)),
    Mutant("sd-order-levels", SD,
           "rows, cols = np.flatnonzero(row_levels == q), np.flatnonzero(col_levels >= q)",
           "rows, cols = np.flatnonzero(row_levels == q), np.arange(len(ys))",
           ("tests/test_semidirect.py", "tests/test_order_core.py")),
    Mutant("levelwise-join-level", SD,
           "return JoinResult.finite((word_join.value, max(x[1], y[1])))",
           "return JoinResult.finite((word_join.value, min(x[1], y[1])))",
           ("tests/test_semidirect.py",)),
    Mutant("phi-ab-join-middle", SD,
           "if any(exps[j] < m for j in range(1, k)):", "if False:",
           ("tests/test_semidirect.py",)),
    # HNN positivity.
    Mutant("double-coset-least", HNN,
           "m, n = -(-a // len(w)), -(-negative_run(h[::-1]) // len(u))",
           "m, n = -(-a // len(w)) + 1, -(-negative_run(h[::-1]) // len(u))",
           ("tests/test_hnn.py", "tests/test_one_pass.py")),
    # The stable-letter one-step forms.
    Mutant("stem-group-key", HNN,
           "above.setdefault(y_parts[j], []).append(c)", "above.setdefault(y_parts[-1], []).append(c)",
           ("tests/test_stem_blocks.py",)),
    Mutant("base-product-guard", HNN,
           "if not y[1]:", "if len(y[1]) < 2:",
           ("tests/test_stem_blocks.py",)),
    Mutant("base-product", HNN,
           "return x[0][:-1] + (self._part_mul(x[0][-1], y[0][0]),), x[1]",
           "return x[0][:-1] + (self._part_mul(y[0][0], x[0][-1]),), x[1]",
           ("tests/test_stem_blocks.py",)),
    Mutant("part-memo-per-call", HNN,
           "part_str = cache(self._part_str)", 'part_str = globals().setdefault("part_strs", cache(self._part_str))',
           ("tests/test_stem_blocks.py",)),
)

EQUIVALENT = (
    (Mutant("rep-positive-filter", HNN, "if rep_positive(first):", "if True:", ()),
     "the coset test only spares work: a pair it passes still gets the full positivity test, "
     "and a pair it fails is not positive (StableLetterCone.order_matrix), so only the "
     "positivity memo's size changes"),
)


def locate(text: str, old: str) -> list[int]:
    """Indices of the lines of ``text`` that read ``old`` once indentation is stripped."""
    return [k for k, line in enumerate(text.split("\n")) if line.strip() == old]


def mutate(text: str, mutant: Mutant) -> str:
    lines = text.split("\n")
    (k,) = locate(text, mutant.old)
    indent = lines[k][: len(lines[k]) - len(lines[k].lstrip())]
    lines[k] = indent + mutant.new
    return "\n".join(lines)


def pytest(tree: Path, tests) -> int | None:
    """The exit code of ``pytest -x`` on ``tests`` in ``tree``, None past ``TIMEOUT_S``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def sweep(mutants) -> int:
    listed = list(mutants) + [m for m, _ in EQUIVALENT]
    stale = [m.name for m in listed if len(locate((ROOT / m.file).read_text(), m.old)) != 1]
    if stale:
        print(f"old line not found exactly once: {', '.join(stale)}")
        return 2
    with tempfile.TemporaryDirectory(prefix="wqlat-mutants-") as tmp:
        tree = Path(tmp)
        for part in COPIED:
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        tests = sorted({t for m in mutants for t in m.tests})
        if pytest(tree, tests) != 0:
            print(f"the unmutated tests fail: {' '.join(tests)}")
            return 2
        survivors = 0
        for m in mutants:
            path = tree / m.file
            original = path.read_text()
            path.write_text(mutate(original, m))
            try:
                code = pytest(tree, m.tests)
            finally:
                path.write_text(original)
            survivors += code == 0
            verdict = "SURVIVED" if code == 0 else "killed" if code is not None else "timeout"
            print(f"{verdict:8} {m.name}  ({m.file}; {' '.join(m.tests)})", flush=True)
    for m, reason in EQUIVALENT:
        print(f"{'equal':8} {m.name}  ({m.file}): {reason}")
    print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed, {len(EQUIVALENT)} listed as equivalent")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(sweep(list(MUTANTS)))
