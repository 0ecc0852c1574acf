"""Machine-speed reference: a fixed stdlib-only loop of exact rational
polynomial products, the arithmetic skewpoly spends its time in.

Shared hosts change speed by up to a factor of two, flipping within a
fraction of a second and drifting over minutes.  The benchmark pins itself
and its children to one CPU, times this loop between operations and
scales every operation time by ``NOMINAL_S / reference`` (the reference
timed around the operation), so that a slow stretch of the host is not
read as a slow program.  Scaled times read as
times on a machine where the loop takes ``NOMINAL_S``; raw times are kept
in the run record next to them.
"""

from __future__ import annotations

import time
from fractions import Fraction

# about the loop's typical time on a 2-vCPU x86-64 VM under CPython 3.11
NOMINAL_S = 0.012

_A = [Fraction(i % 7 - 3, i % 5 + 1) for i in range(24)]
_B = [Fraction(i % 11 - 5, i % 3 + 1) for i in range(24)]


def reference_seconds() -> float:
    """The faster of two timings of the loop, so that one interruption does
    not count as a slow machine."""
    timings = []
    for _ in range(2):
        start = time.perf_counter()
        for _ in range(4):
            out = [Fraction(0)] * (len(_A) + len(_B) - 1)
            for i, x in enumerate(_A):
                for j, y in enumerate(_B):
                    out[i + j] += x * y
        timings.append(time.perf_counter() - start)
    return min(timings)


class SpeedTracker:
    """Reference timings taken between operations, at least ``every_s``
    apart.  The host's speed flips within seconds, so an operation is
    scaled by the mean of the timings just before and just after it."""

    def __init__(self, every_s: float = 0.2):
        self.every_s = every_s
        self.readings: list = []
        self._last = None

    def refresh(self, force: bool = False) -> int:
        """Take a reading if one is due; returns the latest reading's index."""
        now = time.monotonic()
        if force or self._last is None or now - self._last >= self.every_s:
            self.readings.append(reference_seconds())
            self._last = time.monotonic()
        return len(self.readings) - 1

    def scaled(self, seconds: float, mark: int) -> float:
        """``seconds`` measured after reading ``mark``, at nominal speed."""
        after = self.readings[min(mark + 1, len(self.readings) - 1)]
        return seconds * 2 * NOMINAL_S / (self.readings[mark] + after)
