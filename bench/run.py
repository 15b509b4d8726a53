"""Benchmark of the wqlat library and CLI: one workload per run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload queries --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35    # every workload, untraced then traced

The run sets up (median of fresh-interpreter imports), warms up, then runs
passes of the workload's fixed request list in a closed loop with one
client until ``--seconds`` is spent.  A speed probe (``probe.py``) runs
next to every request, and timings are reported in reference seconds:
measured seconds scaled by the probe time of a quiet host over the probe
time measured beside them, which takes out the host's drift.  Untraced
runs print the end-to-end metrics; ``--trace 1`` runs one untraced pass and then traced passes and
prints the per-layer metrics and the tracing overhead.  Answers are checked
against independent references after the timed loop.  The last line of
standard output is one JSON object; everything before it is a readable
report.  Per-request rows and the trace go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
from probe import REFERENCE_S, probe
from workloads import WORKLOADS, Result

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 9
MAX_SAMPLES = 1_000_000  # latencies kept per run; bounds the passes of a run
PROBE_EVERY = 0.02  # seconds of requests between two speed probes

PERF = time.perf_counter


def fail(message: str) -> None:
    print(f"bench: error: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    if not (SRC / "wqlat" / "__init__.py").is_file():
        fail(f"no wqlat sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import wqlat

    if Path(wqlat.__file__).resolve().parent != (SRC / "wqlat").resolve():
        fail(f"wqlat imported from {wqlat.__file__}, not from {SRC}")
    return wqlat


def measure_setup(code: str, repeats: int) -> list[tuple[float, float]]:
    """Seconds to import wqlat (and build the session) in fresh interpreters,
    each with the mean of the speed probes taken just before and after."""
    program = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "from probe import probe\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "before = probe()\n"
        "t0 = time.perf_counter()\n"
        f"{code}"
        "seconds = time.perf_counter() - t0\n"
        "print(seconds, (before + probe()) / 2)\n"
    )
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", program], cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        if done.returncode != 0:
            fail(f"set-up failed: {done.stderr.strip()}")
        seconds, speed = map(float, done.stdout.strip().splitlines()[-1].split())
        times.append((seconds, speed))
    return times


def provenance() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def run_pass(workload, requests, pass_no, tracer=None):
    """One pass over ``requests`` on fresh library state.

    Returns the results and, for each request, the mean of the speed probes
    taken before and after it.  A probe runs before a request once
    ``PROBE_EVERY`` seconds of requests have gone by since the last one, so
    short requests share probes; probes are not part of any request's time.
    Workloads whose requests stand alone (``fresh_heap``) collect garbage
    before each request, so a request's cost does not depend on which
    requests ran before it in the pass.
    """
    session = workload.new_session()
    traced: dict = {}  # verb -> execute wrapped in a root span per request
    results = []
    probes = [probe()]
    probe_of = []  # index of the last probe before each request
    since_probe = 0.0
    for i, req in enumerate(requests):
        if workload.fresh_heap:
            gc.collect()
        if since_probe >= PROBE_EVERY:
            probes.append(probe())
            since_probe = 0.0
        probe_of.append(len(probes) - 1)
        execute = workload.execute
        if tracer is not None:
            if req.verb not in traced:
                traced[req.verb] = tracer.wrap(workload.execute, f"request.{req.verb}", span=True)
            execute = traced[req.verb]
            tracer.request = f"{pass_no}.{i}"
        start = PERF()
        try:
            answer = execute(session, req)
            error = None
        except Exception:  # a failed request is counted, and the run goes on
            answer, error = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
        results.append(Result(i, PERF() - start, answer, error=error))
        since_probe += results[-1].seconds
    probes.append(probe())
    speeds = [(probes[k] + probes[k + 1]) / 2 for k in probe_of]
    for req, res in zip(requests, results):
        if res.error is None:
            res.verdict, res.undecided, res.exit, res.output_bytes = workload.describe(session, req, res.answer)
    return results, speeds


class Tally:
    """Outcomes of every pass.  Only the first pass keeps its answers.

    Latencies go into arrays sized up front and filled at creation, so the
    benchmark's own memory does not grow with the number of passes and
    ``peak_rss_mb`` does not depend on how fast the library is.  ``latency``
    holds measured seconds, ``reference`` the same in reference seconds.
    """

    def __init__(self, requests):
        import numpy

        self.requests = requests
        self.max_passes = max(1, MAX_SAMPLES // len(requests))
        self.latency = numpy.full((self.max_passes, len(requests)), numpy.nan)
        self.reference = numpy.full((self.max_passes, len(requests)), numpy.nan)
        self.walls: list[float] = []  # measured seconds of each pass's requests
        self.first = None
        self.failures: list[str] = []
        self.undecided = 0
        self.output_bytes = 0

    @property
    def passes(self) -> int:
        return len(self.walls)

    def typical(self, measured: bool = False) -> list[float]:
        """Each request's median time over the passes so far, in reference
        seconds (or measured seconds)."""
        import numpy

        times = self.latency if measured else self.reference
        return numpy.median(times[: self.passes], axis=0).tolist()

    def add(self, results, speeds) -> None:
        measured, scaled = self.latency[self.passes], self.reference[self.passes]
        for res, speed in zip(results, speeds):
            measured[res.index] = res.seconds
            scaled[res.index] = res.seconds * REFERENCE_S / speed
            self.undecided += res.undecided
            self.output_bytes += res.output_bytes
        self.walls.append(math.fsum(res.seconds for res in results))
        if self.first is None:
            self.first = results
            return
        for req, ref, res in zip(self.requests, self.first, results):
            if res.error is not None or res.verdict != ref.verdict:
                self.failures.append(f"{req.verb} {req.preset}: verdict {res.verdict!r} differs from the "
                                     f"first pass's {ref.verdict!r} ({res.error})")

    def run(self, workload, seconds, tracer=None) -> list[float]:
        """Passes until the next one would overrun ``seconds``; returns their
        request times in measured seconds."""
        walls = []
        start = PERF()
        while self.passes < self.max_passes:
            started = PERF()
            self.add(*run_pass(workload, self.requests, self.passes, tracer))
            walls.append(self.walls[-1])
            if tracer is not None:
                tracer.keep_spans = False  # spans of the first traced pass bound the trace's memory
            if PERF() - start + (PERF() - started) > seconds:
                break
        return walls


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help=f"one of {', '.join(WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny request lists, for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    import_library()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    os.chdir(ROOT)  # presets such as graph:bench/presets/*.json are relative paths
    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)

    setup_times = measure_setup(workload.setup_code(), 1 if args.smoke else SETUP_REPEATS)
    run_pass(workload, workload.warmup_requests, -1)

    tally = Tally(workload.requests)
    tracer = None
    if args.trace:
        base_walls = tally.run(workload, 0)
        tracer = tracing.install(tracing.Tracer())
        bytes_before = tally.output_bytes
        try:
            walls = tally.run(workload, args.seconds - sum(base_walls), tracer)
        finally:
            tracer.uninstall()
    else:
        walls = tally.run(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = workload.check(tally.first) + tally.failures
    failed_count = len(failures)
    attempted = tally.passes * len(workload.requests)
    undecided = tally.undecided
    # Each request's median time over the run's passes, in reference seconds.
    typical = tally.typical()
    latencies = sorted(typical)
    digest = hashlib.sha256("\n".join(r.verdict for r in tally.first).encode()).hexdigest()[:16]

    prov = provenance()
    write_rows(args, workload, tally, prov)

    lines = [
        f"workload={workload.name} seed={args.seed} trace={args.trace} passes={tally.passes} "
        f"requests/pass={len(workload.requests)} attempted={attempted}",
        "provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()),
        f"answer digest (first pass, diagnostic): {digest}",
    ]
    if args.trace:
        overhead = statistics.median(walls) - statistics.median(base_walls)
        layers = tracing.layer_metrics(tracer, len(walls), tally.output_bytes - bytes_before)
        layers["trace.overhead_s"] = (overhead, "s")
        tracer.write(OUT / f"trace-{workload.name}-s{args.seed}.json")
        lines.append(f"tracing overhead: traced wall_s {statistics.median(walls):.4f} s - untraced "
                     f"{statistics.median(base_walls):.4f} s = {overhead:.4f} s per pass")
        lines += [f"  {name:<52} {value:>14.6g} {unit}" for name, (value, unit) in layers.items()]
        metrics = layers
    else:
        n = len(latencies)
        p99 = percentile(latencies, 0.99)
        beyond = sum(1 for v in latencies if v > p99)
        setup_measured = statistics.median(seconds for seconds, _ in setup_times)
        measured = tally.typical(measured=True)
        metrics = {
            "setup_s": (statistics.median(seconds * REFERENCE_S / speed for seconds, speed in setup_times), "s"),
            "wall_s": (math.fsum(typical), "s"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "latency_p99_ms": (p99 * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "decided_share": (1 - undecided / attempted, "share"),
        }
        lines += [
            f"  (times in reference seconds: measured x {REFERENCE_S * 1e3:.3f} ms / the speed probe beside them)",
            f"  setup_s          {metrics['setup_s'][0]:.4f} s   median of {len(setup_times)} fresh imports "
            f"(measured: {setup_measured:.4f} s)",
            f"  wall_s           {metrics['wall_s'][0]:.4f} s   a pass, each request at its median of {tally.passes} "
            f"passes (measured: {math.fsum(measured):.4f} s; measured passes, first request to last verdict: "
            f"median {statistics.median(walls):.4f} s, fastest {min(walls):.4f} s)",
            f"  latency_p50_ms   {metrics['latency_p50_ms'][0]:.4f} ms  n={n} requests, each its median of "
            f"{tally.passes} passes (measured: {statistics.median(measured) * 1e3:.4f} ms)",
            f"  latency_p99_ms   {metrics['latency_p99_ms'][0]:.4f} ms  n={n}, {beyond} samples beyond"
            + ("" if beyond >= 10 else " (fewer than 10: read as the slowest requests)"),
            f"  peak_rss_mb      {peak_rss_mb:.2f} MB",
            f"  undecided_share  {undecided / attempted:.6f} share ({undecided} of {attempted})",
            f"  decided_share    {metrics['decided_share'][0]:.6f} share",
            f"  failed_share     {failed_count / attempted:.6f} share ({failed_count} of {attempted})",
        ]
        lines += per_request_table(workload, tally)
    missing = [n for n in names if n not in metrics]
    if missing:
        fail(f"metrics named in BENCHMARK.json but not measured: {', '.join(missing)}")
    metrics = {n: metrics[n] for n in names}
    for message in failures[:20]:
        lines.append(f"FAILED {message}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed_count == 0,
        "attempted": attempted,
        "failed": failed_count,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload untraced and then traced, one process per run."""
    worst = 0
    for trace in (0, 1):
        for name in WORKLOADS:
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            worst = max(worst, subprocess.run(argv, cwd=ROOT, timeout=600).returncode)
    return worst


def per_request_table(workload, tally) -> list[str]:
    """Median time per (verb, preset), so one slow preset is not averaged away."""
    groups: dict = {}
    for req, typical in zip(workload.requests, tally.typical()):
        groups.setdefault((req.verb, req.preset), []).append(typical)
    out = ["  per (verb, preset): median over requests of their median times in reference ms, requests per pass"]
    for (verb, preset), times in sorted(groups.items()):
        out.append(f"    {verb:<17} {preset:<34} {statistics.median(times) * 1e3:>10.3f} {len(times):>6}")
    return out


def write_rows(args, workload, tally, prov) -> None:
    """One row per request of the pass list: first-pass verdict, fastest and
    median measured time, and median time in reference seconds."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"rows-{workload.name}-s{args.seed}-t{args.trace}.jsonl"
    times = tally.latency[: tally.passes]
    reference = tally.typical()
    with open(path, "w") as fh:
        fh.write(json.dumps({"workload": workload.name, "seed": args.seed, "trace": args.trace,
                             "passes": tally.passes, "pass_walls": tally.walls, **prov}) + "\n")
        for i, (req, res) in enumerate(zip(workload.requests, tally.first)):
            row = req.row()
            row.update(seconds_best=float(times[:, i].min()), seconds_median=float(statistics.median(times[:, i])),
                       reference_seconds_median=reference[i], exit=res.exit, verdict=res.verdict, error=res.error)
            fh.write(json.dumps(row) + "\n")


if __name__ == "__main__":
    sys.exit(main())
