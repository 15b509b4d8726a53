"""Speed probe: how fast this host runs plain Python code right now.

The benchmark shares a few cores of a busy host, and the speed of
interpreted code drifts with what the neighbours do: by tens of percent
within a minute, and for minutes at a time, so that no number of repeats
inside one 35-second run averages it away.  The probe times a fixed
pure-Python kernel (dict and tuple work, like the library's words, balls
and shifts) around every request.  A request's time divided by the probe
time next to it is the request's cost in probe units, which does not move
with the host's speed; times the probe time of a quiet host
(``REFERENCE_S``) it reads again in seconds.

Usage: ``python3 bench/probe.py [seconds]`` prints the probe time every
second, to see how a host drifts and to re-derive ``REFERENCE_S``.
"""

from __future__ import annotations

import sys
import time

PERF = time.perf_counter
ROUNDS = 3  # a probe is the fastest of this many kernel runs
REFERENCE_S = 2.5e-4  # a probe on an idle core of an Intel Xeon (2 vCPU guest), Python 3.11


def kernel(n: int = 1200) -> int:
    table: dict = {}
    total = 0
    for i in range(n):
        key = (i & 63, i >> 6)
        total += table.get(key, i) ^ (i * 7)
        table[key] = total & 0xFFFF
    return total


def probe() -> float:
    """Seconds of the fastest of ``ROUNDS`` kernel runs."""
    best = float("inf")
    for _ in range(ROUNDS):
        start = PERF()
        kernel()
        best = min(best, PERF() - start)
    return best


def main(seconds: float) -> None:
    end = PERF() + seconds
    while PERF() < end:
        times = []
        second = PERF() + 1
        while PERF() < second:
            times.append(probe())
        times.sort()
        print(f"probe min {times[0] * 1e3:.4f} ms  median {times[len(times) // 2] * 1e3:.4f} ms  n={len(times)}",
              flush=True)


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 10)
