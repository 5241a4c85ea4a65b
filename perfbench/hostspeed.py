"""Host speed reference: a fixed kernel timed between the jobs, by which every
timing the benchmark reports is scaled to one nominal host speed.

On a shared VM the host's speed drifts between states as much as 1.7x apart,
for stretches from seconds to about a minute.  A 30 s run may sit wholly in one
state, so the timings of runs of the same code spread by a third of their
median.  The kernel below slows down with the host in the same proportion as
the workloads do: over 10 s windows of a 90 s run whose oblivious trials
ranged over 0.90-1.45x of their median time, trial time divided by the
adjacent kernel time stayed within 0.35-0.37 (audit jobs: 0.76-1.29x raw,
0.27-0.29 scaled).  A timing ``t`` measured while the kernel took ``ref``
seconds is reported as ``t * NOMINAL_S / ref``: the time it would take on a
host that runs the kernel in ``NOMINAL_S``.

The kernel belongs to the benchmark and uses nothing from the program, so a
change to the program cannot move it.  It mixes bytecode-bound Python with
small numpy calls, which is what the program's hot paths do.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

NOMINAL_S = 3.0e-3   # about the kernel's time on a 2-core Xeon VM in its fast state
_VALUES = np.random.default_rng(0).random(16)


def kernel() -> int:
    total = 0
    table = {}
    for i in range(4000):
        total += i * i % 7
        table[i & 63] = total
    for i in range(150):
        ordered = np.sort(_VALUES)
        total += int(np.searchsorted(ordered, 0.5))
        np.random.default_rng(i).random(4)
    return total


def reference_s(min_s: float = 0.0) -> float:
    """Mean time of back-to-back kernel runs: at least one, and more until
    ``min_s`` seconds have passed.  One untimed run goes first, so that the
    timed ones find the kernel in cache whatever the job before it touched."""
    kernel()
    times = []
    start = perf_counter()
    while not times or perf_counter() - start < min_s:
        began = perf_counter()
        kernel()
        times.append(perf_counter() - began)
    return sum(times) / len(times)


kernel()  # first calls into numpy are slower; keep them out of every sample
