"""Machine-speed calibration of the timed figures.

On a shared machine the speed of the CPU this process gets drifts by
+-25% over minutes, and CPU time drifts with wall time, so no in-run
repetition removes it.  A fixed calibration kernel (pure-Python loop and
dict stores plus a NumPy sort, about 10 ms) is timed in short slices
interleaved with the work; every timed figure of a round is scaled by
``REFERENCE_S / mean(slice time)``, i.e. expressed on a machine on which
the kernel takes exactly ``REFERENCE_S``.  A change to the program moves
its own timings but not the kernel's, so it still shows in full.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_perf = time.perf_counter

#: The kernel's time on the reference machine, in seconds.
REFERENCE_S = 0.010

#: Minimum spacing of interleaved slices, in seconds.
SLICE_EVERY_S = 0.1

_ARRAY = np.random.default_rng(0).random(100_000)


def kernel() -> int:
    total = 0
    table = {}
    for i in range(60_000):
        total += i * i % 7
        table[i % 97] = total
    np.sort(_ARRAY)
    return total


class Calibrator:
    """Collects kernel slice times; ``scale`` turns seconds into reference seconds."""

    def __init__(self):
        self.samples = []
        self._last = _perf()

    def slice(self, n: int = 1) -> None:
        for _ in range(n):
            started = _perf()
            kernel()
            self._last = _perf()
            self.samples.append(self._last - started)

    def maybe(self) -> None:
        """One slice if ``SLICE_EVERY_S`` passed since the last one."""
        if _perf() - self._last >= SLICE_EVERY_S:
            self.slice()

    @property
    def scale(self) -> float:
        return REFERENCE_S / statistics.mean(self.samples)
