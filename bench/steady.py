"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout:

    python3 bench/steady.py --workloads queries ball-scan sparse-ball --seeds 1-10 --record

Runs ``bench/run.py`` once per (workload, seed), one run at a time, and
prints for each end-to-end metric its median over the seeds and the
distance between the first and third quartile (``statistics.quantiles``,
n=4) as a share of that median.  ``--record`` appends the table, with the
machine's provenance, as one line of ``bench/trajectory.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}: {done.stderr.strip()}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed its checks:\n{done.stdout}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, help="run length; BENCHMARK.json's run_seconds by default")
    parser.add_argument("--record", action="store_true", help="append the table to bench/trajectory.jsonl")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    args.seconds = args.seconds or spec["run_seconds"]
    table = {}
    for workload in args.workloads:
        values: dict = {}
        for seed in seed_list(args.seeds):
            for name, metric in run(workload, seed, args.seconds)["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        table[workload] = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            table[workload][name] = {"median": statistics.median(vals), "spread": spread, "values": vals}
            bound = bounds.get(name)
            mark = "" if bound is None else ("  ok" if spread <= bound / 3 else f"  ABOVE a third of bound {bound}")
            print(f"{workload:<12} {name:<16} median {statistics.median(vals):>12.6g}  spread {spread:7.4f}{mark}",
                  flush=True)
    if args.record:
        from run import provenance

        line = {**provenance(), "seeds": args.seeds, "seconds": args.seconds, "metrics": table}
        with open(BENCH / "trajectory.jsonl", "a") as fh:
            fh.write(json.dumps(line) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
