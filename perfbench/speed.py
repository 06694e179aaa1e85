"""How fast the machine runs right now, from a fixed reference kernel.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds and minutes, and which moves every timing of
a run at once.  So each op is timed together with this kernel: right
before the op, right after it and, for ops of the worker's own process,
every EVERY_S during it from a timer signal.  A single run of the kernel
can be 20% off the one before it, so where no samples can be taken during
the op, AROUND of them are taken at each end.  The time of the
samples taken during the op is taken out of the op's wall time, and what
is left is scaled by

    NOMINAL_S / mean(kernel times around and during the op)

so that it reads in seconds of a machine on which the kernel takes
NOMINAL_S.  A multi-second op needs the samples during it: two samples at
its ends miss how the speed moved in between.  The kernel is the
benchmark's own code and calls nothing in singscat, so a change to the
library moves the scaled times and not the scale.  The raw wall times are
printed next to the scaled ones.

The kernel mixes the two kinds of work the workloads do: Python objects
built, stored and formatted, and numpy passes over a fresh 4 MiB array.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median kernel time on the reference machine, the 2-vCPU VM of results/BASELINE.md.
NOMINAL_S = 0.010
# Kernel samples during an op: one per EVERY_S of the op's run.
EVERY_S = 0.1
# Kernel samples at each end of an op that gets none during it.
AROUND = 3


def _kernel() -> int:
    rows = {}
    for i in range(4000):
        x = i * 0.37
        rows[i] = (x, x * x)
    text = ",".join(repr(row[1]) for row in rows.values())
    arr = np.ones(1 << 19)
    for _ in range(4):
        np.multiply(arr, 1.000001, out=arr)
        np.add(arr, 0.5, out=arr)
    return len(text) + int(arr[0])


def sample() -> float:
    """Wall seconds of one run of the kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def measure(fn, during: bool):
    """(wall seconds, reference seconds, kernel samples, fn()) of one call.

    With `during`, the kernel also runs every EVERY_S while fn runs (fn must
    not use SIGALRM), and the wall seconds leave those runs out.  Use it
    only where fn's work is done in this process: while fn waits for a
    child, a sample would run beside the child rather than in its place.
    """
    ends = 1 if during else AROUND
    samples = [sample() for _ in range(ends)]
    inner = []
    if during:
        previous = signal.signal(signal.SIGALRM, lambda *_: inner.append(sample()))
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        if during:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start - sum(inner)
        if during:
            signal.signal(signal.SIGALRM, previous)
    samples += inner
    samples += [sample() for _ in range(ends)]
    return wall, NOMINAL_S * wall / statistics.fmean(samples), samples, result
