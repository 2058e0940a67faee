"""Host speed, measured with a fixed pure-Python loop.

On shared cloud cores the speed of this single-threaded interpreter drifts by
up to 2x within minutes, as neighbours come and go; CPU time follows wall
time, so neither clock hides it.  A fixed loop that uses the interpreter the
way nielsenkit does (small ints, tuples, lists, dicts) is timed every
SAMPLE_EVERY_S while instances run, and each latency is scaled by
NOMINAL_S / (loop time around it).  Scaled figures read as the latencies of
a host on which the loop takes NOMINAL_S; on an uncontended 2-vCPU cloud VM
it takes about 1.8-2.0 ms.  The loop does not touch the program, so a change
to the program moves scaled figures exactly as it moves raw ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

NOMINAL_S = 0.002
SAMPLE_EVERY_S = 0.1
WINDOW = 5          # samples nearest an instance that set its scale


def loop_seconds() -> float:
    """Time one run of the fixed loop."""
    t0 = time.perf_counter()
    out: list[int] = []
    seen: dict[tuple, int] = {}
    x = 12345
    for _ in range(3000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        y = (x >> 8) % 5 - 2 or 1
        if out and out[-1] == -y:
            out.pop()
        else:
            out.append(y)
        key = tuple(out[-3:])
        seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - t0


class HostSpeed:
    """Loop timings over a run, and the scale they give each moment."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        """Time the loop, if the last sample is SAMPLE_EVERY_S old."""
        now = time.perf_counter()
        if not self.at or now - self.at[-1] >= SAMPLE_EVERY_S:
            self.took.append(loop_seconds())
            self.at.append(now)

    def scale(self, t: float) -> float:
        """NOMINAL_S over the median loop time of the samples nearest t."""
        j = bisect.bisect(self.at, t)
        lo = max(0, min(j - WINDOW // 2, len(self.at) - WINDOW))
        return NOMINAL_S / statistics.median(self.took[lo:lo + WINDOW])

    def slowdown(self) -> float:
        """Median loop time over NOMINAL_S: how slow the host ran."""
        return statistics.median(self.took) / NOMINAL_S


def timed(fn):
    """fn() and its time, scaled by loop timings taken just before and after."""
    before = [loop_seconds() for _ in range(3)]
    t0 = time.perf_counter()
    result = fn()
    dt = time.perf_counter() - t0
    after = [loop_seconds() for _ in range(3)]
    return result, dt * NOMINAL_S / statistics.median(before + after)
