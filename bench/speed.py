"""A reference clock for a machine whose speed drifts.

The benchmark runs on shared cores whose speed changes by several percent
from one millisecond to the next and by up to 2x between minutes; wall
time and CPU time drift alike, so raw timings wander far more than any
code change worth measuring.  The runner therefore times a fixed piece of
pure-Python work between ops (at most every ``INTERVAL_NS``, and for a
``BURST_SHARE`` of the previous op's duration) and scales each op's
latency by ``NOMINAL_NS`` over the median reference time near the op:
within ``WINDOW_NS`` of it, or within its own duration when that is
longer.  For short ops that is the samples right before and right after.
The reference never calls the library, so a slower library still reads
slower; only the machine's speed cancels.  ``NOMINAL_NS`` is about what
the reference takes on a calm core of the shared 2-core machine it was
tuned on, so scaled times read roughly as milliseconds there.
"""

from __future__ import annotations

import bisect
import statistics
import time

INTERVAL_NS = 2_000_000
WINDOW_NS = 2_000_000
REPEATS = 2
BURST_SHARE = 0.02
NOMINAL_NS = 200_000


def reference_work() -> int:
    """Fixed interpreter work: a loop that builds and reads small tuples."""
    cells = []
    total = 0
    for i in range(1250):
        cells.append((i, i % 7))
        total += cells[-1][1]
    return total


class SpeedProbe:
    """Reference timings taken between ops, and the scale they imply."""

    def __init__(self, clock=time.perf_counter_ns) -> None:
        # Samples are placed in wall time; their cost is read on ``clock``,
        # the clock the ops are timed on.
        self.clock = clock
        self.times: list[int] = []
        self.costs: list[int] = []
        self._last = -INTERVAL_NS

    def tick(self, last_op_ns: int = 0, force: bool = False) -> None:
        """Sample the reference unless it ran less than INTERVAL_NS ago.

        Takes REPEATS samples, and keeps sampling for BURST_SHARE of the
        last op's duration, so a long op has many samples around it.
        """
        start = time.perf_counter_ns()
        if not force and start - self._last < INTERVAL_NS:
            return
        count = 0
        now = start
        while count < REPEATS or now - start < BURST_SHARE * last_op_ns:
            t0 = self.clock()
            reference_work()
            cost = self.clock() - t0
            self.times.append(now)
            self.costs.append(cost)
            count += 1
            now = time.perf_counter_ns()
        self._last = now

    def factor(self, start_ns: int, end_ns: int) -> float:
        """NOMINAL_NS over the median reference time around [start, end].

        The margin on each side is WINDOW_NS, or the op's own duration if
        longer: no sample can be taken during an op, and the speed over a
        long op is best judged by as long a stretch around it.
        """
        margin = max(WINDOW_NS, end_ns - start_ns)
        lo = bisect.bisect_left(self.times, start_ns - margin)
        hi = bisect.bisect_right(self.times, end_ns + margin)
        if lo == hi:  # nothing in the window: use the samples either side
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.costs))
        return NOMINAL_NS / statistics.median(self.costs[lo:hi])

    def reference_ms(self) -> float:
        return statistics.median(self.costs) / 1e6
