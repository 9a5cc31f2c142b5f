"""A fixed reference kernel that tells how fast the machine is right now.

    python3 benchmarks/probe.py

For every line it reads on stdin it prints the seconds of one reference
measurement: the best of five runs of a pure-Python loop plus the best of five
numpy adds over three 32 MB arrays, the two kinds of work fleetlab does. The
benchmark runs it in a process of its own, so the arrays stay out of the
workload's peak RSS, and asks only between timed calls, so the two never run
at the same time. It is benchmark code: no change to fleetlab can move it.
"""

import sys
import time

import numpy as np

ELEMENTS = 4_000_000  # float64: 32 MB per array, far past the L2 cache
REPEATS = 5
LOOP = 50_000


def python_loop() -> int:
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    return total


def best_of(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    a, b, out = np.ones(ELEMENTS), np.ones(ELEMENTS), np.empty(ELEMENTS)
    for _ in sys.stdin:
        seconds = best_of(python_loop) + best_of(lambda: np.add(a, b, out=out))
        print(repr(seconds), flush=True)


if __name__ == "__main__":
    main()
