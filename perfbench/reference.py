"""The reference clock: a thread that repeats a fixed slice of work.

The host's speed drifts by 20-60% over minutes as other tenants' load
comes and goes.  Host seconds then measure the host as much as olsrlab;
the units the reference completes in the same interval largely cancel
the drift.  Swings shorter than a minute, or on one CPU only, are not
cancelled.

``run.py`` runs the reference in a thread of its own process while it
waits for a child: waiting on a child holds no lock the thread needs, so
the thread has a CPU to itself beside the child's.  On a single CPU the
two share it, which halves both the rate of the reference and the speed
of the child, so the count still tracks the child's cost.  Being a
thread, the reference ends with ``run.py`` on every way out.
"""

from __future__ import annotations

import bisect
import heapq
import threading
import time

# One reference second is this many reference units, about one host
# second of a shared 2-CPU virtual machine.
REF_UNITS_PER_S = 3000.0
UNITS_PER_SAMPLE = 10


def monotonic() -> float:
    """CLOCK_MONOTONIC, which every process of the machine shares."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_unit() -> None:
    """A fixed slice of pure-Python work: heap and dict traffic, as in an
    event loop, and independent of olsrlab."""
    heap: list = []
    counts: dict = {}
    for i in range(300):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        key = (i % 31, i % 13)
        counts[key] = counts.get(key, 0) + 1
    while heap:
        _, i = heapq.heappop(heap)
        counts[(i % 31, i % 13)] -= 1


class ReferenceClock:
    """Count reference units in a thread for the duration of a ``with``
    block, keeping (monotonic time, units done) samples."""

    def __init__(self):
        self.times: list[float] = []
        self.units: list[int] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._count, name="reference", daemon=True)

    def _count(self) -> None:
        done = 0
        while not self._stop.is_set():
            for _ in range(UNITS_PER_SAMPLE):
                reference_unit()
            done += UNITS_PER_SAMPLE
            self.times.append(monotonic())
            self.units.append(done)

    def __enter__(self) -> "ReferenceClock":
        self.times.append(monotonic())
        self.units.append(0)
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join()

    def _at(self, t: float) -> float:
        """Units done at monotonic time ``t``, interpolated between samples."""
        times, units = self.times, self.units
        i = bisect.bisect_left(times, t)
        if i == 0 or i == len(times):
            raise ValueError(f"time {t:.3f} lies outside the reference clock's samples")
        t0, t1 = times[i - 1], times[i]
        return units[i - 1] + (units[i] - units[i - 1]) * (t - t0) / (t1 - t0)

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds between two monotonic times."""
        return (self._at(end) - self._at(start)) / REF_UNITS_PER_S
