"""Machine-speed calibration for a shared host.

On a shared virtual machine the same Python code runs up to 1.7 times
slower for spells of a few seconds to minutes, in bursts shorter than a
call and in level shifts longer than a run.  A fixed piece of exact
rational arithmetic (pairings of Fraction vectors under an integer Gram
matrix, the kind of work wallkit's hot loops do) is timed every
`every_s` seconds of wall time, from a timer signal, so it is sampled
during long calls as well as between short ones.  Each op's wall time,
less the time the samples took inside it, is scaled by how fast the
calibration ran around it:

    scaled time = op time * REFERENCE_S / (mean calibration time near the op)

so a reported time reads as seconds on a machine where one calibration
takes REFERENCE_S.  The calibration uses only the standard library, so no
change to wallkit can move it.  Raw wall times are reported alongside.
"""

from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

# One calibration on an unloaded 2-vCPU VM with Python 3.11.7.
REFERENCE_S = 0.0052

# Samples this long before an op's start and after its end count as near it.
NEAR_S = 1.0

_GRAM = (
    (2, -1, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0),
    (0, -1, 2, -1, 0, 0),
    (0, 0, -1, 2, -1, 0),
    (0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, -1, -4),
)
_VECTORS = tuple(
    tuple(Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + 2 * j) % 5) for j in range(6))
    for i in range(14)
)


def work() -> Fraction:
    """The fixed calibration workload: all pairings of _VECTORS."""
    total = Fraction(0)
    for v in _VECTORS:
        gv = tuple(sum(g * c for g, c in zip(row, v)) for row in _GRAM)
        for w in _VECTORS:
            total += sum(a * b for a, b in zip(gv, w))
    return total


class Meter:
    """Calibration samples taken from a timer signal while it runs."""

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.starts: list[float] = []
        self.samples: list[float] = []
        self.pauses: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        enabled = gc.isenabled()
        gc.disable()  # a collection would time the op's heap, not the machine
        work()
        t1 = perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.samples.append(t1 - t0)
        self.pauses.append(perf_counter() - t0)

    def _tick(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, start: float, end: float) -> float:
        """Mean calibration time from NEAR_S before `start` to NEAR_S after `end`."""
        i = bisect_left(self.starts, start - NEAR_S)
        j = bisect_right(self.starts, end + NEAR_S)
        return statistics.fmean(self.samples[i:j] or self.samples)

    def op_time(self, start: float, end: float) -> float:
        """Wall time from `start` to `end` less the samples taken in between."""
        i = bisect_left(self.starts, start)
        j = bisect_right(self.starts, end)
        return end - start - sum(self.pauses[i:j])

    def scale(self, seconds: float, start: float, end: float) -> float:
        return seconds * REFERENCE_S / self.speed(start, end)
