"""The machine's current speed, from a fixed reference kernel.

The benchmark runs on a shared host whose speed drifts by up to 1.6x, in
phases of seconds to minutes, in process CPU time as much as in wall time.
The worker times the reference kernel next to every solve and scales the
solve's time to a machine on which the kernel takes `REFERENCE_S`: a solve
that ran while the kernel took twice as long counts half its wall time.
The kernel is the benchmark's own code, a mix of interpreter work and small
numpy operations like the library's inner loops, so a change to the library
moves the scaled times and never the reference.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The kernel's best time (see reference_s) in the fast phases of the 2-vCPU
# Intel Xeon VM the benchmark was tuned on.  Scaled times are wall times on
# a machine that runs the kernel this fast.
REFERENCE_S = 0.0011


def reference_kernel() -> float:
    a = np.arange(9.0).reshape(3, 3)
    total = 0.0
    table = {}
    for i in range(300):
        b = np.maximum(a + i, a.T)
        total += float(b.max()) + sum(range(16))
        table[i % 31] = total
    return total


def reference_s() -> float:
    """Best of three timed kernel runs: interruptions only add time."""
    best = float("inf")
    for _ in range(3):
        t = perf_counter()
        reference_kernel()
        best = min(best, perf_counter() - t)
    return best


def scaled(seconds: float, reference: float) -> float:
    """`seconds` measured while the kernel took `reference`, at nominal speed."""
    return seconds * REFERENCE_S / reference
