"""Machine-speed reference that the benchmark's times are scaled by.

The machine the benchmark was sized on shares its cores with other jobs, and
the same pass over the same inputs takes anywhere from 1 to 1.5 times as long
from one ten-second stretch to the next.  Such stretches are longer than most
runs, so medians inside a run cannot remove them.  What does remove most of
it is to time, every 50 ms, a fixed computation that is not part of
``tropdisk`` (a short sum of ``fractions.Fraction`` values, the same kind of
interpreter work as the exact kernel), and to scale each measured interval by
how slow that computation ran during it.

A scaled time reads as seconds on a machine where the reference computation
takes REFERENCE_SECONDS, which is what it takes on the sizing machine (two
shared cores, Python 3.11.7) when nothing else runs there.  The samples run
from a timer signal in the main thread; their own time is taken out of every
interval they interrupt, and the garbage collector is paused while one runs,
so that the program's heap does not change the reference.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_SECONDS = 0.0012
INTERVAL = 0.05     # seconds between samples
NEAREST = 5         # samples used for an interval that holds fewer

clock = time.perf_counter


def _reference() -> Fraction:
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i, i + 1)
    return total


class SpeedReference:
    """Samples the reference computation while started; scales intervals."""

    def __init__(self):
        self.starts = []
        self.durations = []

    def sample(self, *_signal_args) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = clock()
        _reference()
        self.durations.append(clock() - start)
        self.starts.append(start)
        if collecting:
            gc.enable()

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def busy(self, start: float, end: float) -> float:
        """Seconds from start to end, less the samples taken inside."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return end - start - sum(self.durations[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """busy(start, end) at reference speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        inside = self.durations[lo:hi]
        if len(inside) < NEAREST:
            mid = bisect.bisect_left(self.starts, (start + end) / 2)
            lo = max(0, min(mid - NEAREST // 2, len(self.starts) - NEAREST))
            inside = self.durations[lo:lo + NEAREST]
        return self.busy(start, end) * REFERENCE_SECONDS / statistics.median(inside)
