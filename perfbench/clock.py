"""Work time scaled to a fixed machine speed.

On a shared machine the same pass can take 1.4 s or 2.5 s depending on
what else runs on the host: a fixed pure-Python job varied by 40% between
runs a minute apart, the process's CPU time varied with it, and the median
pass of ten runs spread by 0.12 to 0.47 of its median.  So the benchmark
times a fixed reference job, which does not touch the program, between
segments of work, and scales the work time by the reference job's nominal
time over its median measured time during that work, raised to SENSITIVITY.
A change to the program moves the scaled time like the raw time; a slower
host moves the reference job too and mostly cancels out.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

# The reference job's time on an unloaded core of the machine the benchmark
# was defined on; only a scale, identical for every commit compared.
NOMINAL_S = 0.025
# How much the workloads slow down per unit of reference-job slowdown, in
# logs: a least-squares fit of log pass time on log reference time over
# about twenty passes of each workload gave 0.70 (tower), 0.58 (coherence),
# 0.62 (kinfty) and 0.43 (convert), and 0.6 gave the smallest spread over
# all runs made while defining the benchmark.  The reference job is more
# sensitive to a busy host than the checks are, so scaling by it in full
# over-corrects.
SENSITIVITY = 0.6
# Work between two reference timings: at least this much, more when a single
# item runs longer.
SEGMENT_S = 0.25


def reference_work() -> int:
    """A fixed pure-Python job: tuples, a dict, calls and recursion."""
    counts: dict = {}
    for i in range(50_000):
        key = (i & 255, (i >> 8) & 7)
        counts[key] = counts.get(key, 0) + len((i, key))

    def build(n):
        return (build(n - 1), build(n - 1)) if n else ()

    def size(t):
        return 1 + sum(size(c) for c in t)

    return size(build(14)) + len(counts)


def time_reference() -> float:
    """The reference job's time, with the cyclic collector off: its garbage
    is acyclic, and a collection would scan the program's heap and make the
    timing depend on the workload."""
    gc.disable()
    try:
        t0 = perf_counter()
        reference_work()
        return perf_counter() - t0
    finally:
        gc.enable()


def scale(seconds: float, refs) -> float:
    """Seconds of work at the nominal speed, given reference timings taken
    around and during it (their median, so one disturbed timing does not
    count)."""
    return seconds * (NOMINAL_S / statistics.median(refs)) ** SENSITIVITY


class SegmentClock:
    """Raw and scaled work time of a pass.  The reference job is timed at the
    start, whenever SEGMENT_S of work has passed since the last timing, and
    at the end; time spent on it is not counted as work."""

    def __init__(self):
        self.refs = [time_reference()]
        self.wall = 0.0
        self._start = perf_counter()

    def tick(self, final: bool = False) -> None:
        """Call between items."""
        segment = perf_counter() - self._start
        if segment < SEGMENT_S and not final:
            return
        self.wall += segment
        self.refs.append(time_reference())
        self._start = perf_counter()

    @property
    def scaled(self) -> float:
        return scale(self.wall, self.refs)
