"""Reference seconds: wall seconds corrected for the host's speed phases.

On a shared host every piece of Python code here can run at 0.7x to 1.2x
its usual speed for seconds at a time, and all code moves together.  A fixed
probe of exact-rational work therefore runs between jobs, at least every
PROBE_EVERY_S.  A span is scaled by PROBE_REFERENCE_S over the median probe
time within PROBE_WINDOW_S of it.  The probe uses only the standard library,
so no change to the package can change it; a change that makes the package
faster or slower moves reference seconds exactly as it moves wall seconds.
"""

from __future__ import annotations

import random
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

PROBE_EVERY_S = 0.2
PROBE_WINDOW_S = 1.0
# median probe time on the 2-vCPU host the benchmark was written on: one
# reference second is one wall second at that host's usual speed
PROBE_REFERENCE_S = 0.012

_rng = random.Random(2305)
# 16384 distinct rationals: a working set as large as a mid-sized instance's,
# since the host's slow phases hit memory-heavy code harder
_VALUES = tuple(Fraction(_rng.randint(1, 1 << 20), _rng.randint(1, 1 << 20)) for _ in range(16384))


def _probe_work() -> int:
    """Rational multiply-and-compare over scattered values, the package's kind of work."""
    slack, values, n = Fraction(3, 2), _VALUES, len(_VALUES)
    return sum(1 for i in range(0, n, 5) if values[i] <= slack * values[i * 7919 % n])


class HostClock:
    """Probe times of one run, and the reference factor they give any span."""

    def __init__(self):
        self.ends: list[float] = []  # when each probe ended
        self.probes: list[float] = []  # how long it took
        self.probe()

    def probe(self) -> None:
        t0 = perf_counter()
        _probe_work()
        t1 = perf_counter()
        self.ends.append(t1)
        self.probes.append(t1 - t0)

    def tick(self) -> None:
        """Probe if the last probe is older than PROBE_EVERY_S; call between jobs."""
        if perf_counter() - self.ends[-1] >= PROBE_EVERY_S:
            self.probe()

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per wall second over [start, end].

        Call after a probe that follows `end`.
        """
        lo = bisect_left(self.ends, start - PROBE_WINDOW_S)
        hi = bisect_right(self.ends, end + PROBE_WINDOW_S)
        # at least the probe before the span and the one after it
        lo = min(lo, max(bisect_right(self.ends, start) - 1, 0))
        hi = max(hi, bisect_left(self.ends, end) + 1)
        return PROBE_REFERENCE_S / statistics.median(self.probes[lo:hi])

    def probe_seconds(self) -> float:
        """Median raw probe time over the run: how fast the host ran."""
        return statistics.median(self.probes)
