"""Machine-speed calibration for a shared, noisy host.

On a host shared with other tenants the same work can take from one to two
times as long from one second to the next, and CPU time slows with wall
time, so neither clock alone is steady.  While an op is timed, a timer
signal interrupts it every ``INTERVAL_S`` and runs a tiny fixed kernel; the
kernel's mean time over the op measures the speed the op ran at.  Timings
are reported in *calibrated seconds*: measured seconds (kernel time taken
out) times ``REFERENCE_S`` over the kernel's mean time.  A program change
cannot move the kernel, which uses only Python and numpy; a change in the
machine's speed moves both alike.

The kernel mixes the kinds of work the package does, an interpreted scalar
loop and numpy calls on tiny arrays.  Each sample runs it twice and times
the second run only, so the caches are warm and the sample reads the
machine's speed, not what the interrupted program left in the caches.
"""

from __future__ import annotations

import gc
import math
import signal
import time

import numpy as np

INTERVAL_S = 0.05
BURST = 20
# Kernel time on an idle Intel Xeon core with numpy 2.4.  Only ratios to it
# matter: it fixes the unit, so that calibrated and measured seconds are
# close on an idle machine.
REFERENCE_S = 2.3e-4


def _kernel() -> None:
    total = 0.0
    for i in range(1000):
        total += math.sqrt(i) * 1.0001
    small = np.arange(16.0)
    for _ in range(100):
        small = np.sqrt(small + 1.0)


def kernel_seconds() -> float:
    """Time of one warm kernel run, with no garbage collection inside it."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        _kernel()
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class Speedometer:
    """Kernel samples taken on a wall-clock timer while the context is open.

    Only one may be open at a time: it owns ``SIGALRM``.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0  # wall time taken by sampling, warm-up runs included

    def burst(self) -> None:
        """Take samples now, back to back, for a span too short to sample."""
        for _ in range(BURST):
            self._sample()

    def _sample(self, *signal_args) -> None:
        start = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.spent_s += time.perf_counter() - start

    def __enter__(self) -> "Speedometer":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @property
    def factor(self) -> float:
        """Calibrated seconds per measured second over the samples taken."""
        return REFERENCE_S * len(self.samples) / sum(self.samples)
