"""The frozen reference kernel that calibrates op times.

A fixed pure-Python loop of integer arithmetic and list row operations,
shaped like the elimination steps that dominate arithlab, taking about
10 ms on a desk machine.  An op's time divided by the time of this kernel
run beside it is the op's cost in reference units, which is steadier than
wall time on a host whose speed drifts from minute to minute.

Times scaled by ``NOMINAL_S / kernel time`` are times on a nominal machine
whose kernel run takes 10 ms.

Do not change this file: any edit changes the unit of ``pass_ref`` and of
the normalized times, and makes them incomparable with earlier runs.
"""

from __future__ import annotations

import time

N = 24
REPS = 7
# The kernel's time on the nominal machine that normalized times refer to.
NOMINAL_S = 0.010
EXPECTED = 2003732946


def reference_kernel() -> int:
    a = [[(i * 31 + j * 17) % 97 - 48 for j in range(N)] for i in range(N)]
    acc = 0
    for rep in range(REPS):
        for t in range(N):
            pivot_row = a[t]
            for i in range(N):
                if i != t:
                    q = (a[i][t] * 3 + rep) % 5 - 2
                    row = a[i]
                    for k in range(N):
                        row[k] = (row[k] - q * pivot_row[k]) % 1000003
        acc += sum(map(sum, a))
    return acc


def timed_reference() -> float:
    """Seconds taken by one run of the kernel; raises if its result drifts."""
    start = time.perf_counter()
    value = reference_kernel()
    elapsed = time.perf_counter() - start
    if value != EXPECTED:
        raise RuntimeError(f"reference kernel returned {value}, expected {EXPECTED}")
    return elapsed
