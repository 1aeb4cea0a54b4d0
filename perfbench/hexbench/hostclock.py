"""A clock that runs at the speed of an unloaded host.

The benchmark shares a virtual machine's cores with other tenants, and the
speed at which a fixed piece of Python runs there swings by up to about 1.5x
for stretches of seconds to minutes, with process CPU time swinging alike
(measured on a 2-vCPU Xeon VM).  A wall-clock reading therefore says as much
about the neighbours as about the program.

:class:`HostClock` corrects for that.  While it runs, a timer signal
interrupts the program every :data:`TICK_S` seconds and times a fixed
calibration kernel (:func:`kernel`: Python objects, dicts and small numpy
arrays, the program's own kind of work) on the benchmark's side.  Between two
ticks the clock advances by the wall time elapsed times
``REFERENCE_KERNEL_S / kernel time``: *reference seconds*, the time the same
stretch would have taken on a host that runs the kernel in
:data:`REFERENCE_KERNEL_S`.  Time spent in the ticks themselves is left out.
The kernel never calls the program, so a faster program cannot speed up the
clock.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time
from contextlib import contextmanager
from typing import List

import numpy as np

#: Seconds between calibration ticks.
TICK_S = 0.1

#: Time of one :func:`kernel` call on an unloaded host (a 2-vCPU Xeon VM
#: running at its fast level); the unit of a reference second.
REFERENCE_KERNEL_S = 0.0005

_POINTS = 400
_ARRAY = np.arange(4000, dtype=float)


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: float) -> None:
        self.x = x
        self.y = y


def kernel() -> None:
    """The fixed calibration work: about half a millisecond on a fast host."""
    points = [_Point(index, index * 0.5) for index in range(_POINTS)]
    best: dict = {}
    for point in points:
        key = (point.x % 13, point.x % 7)
        best[key] = max(best.get(key, -math.inf), point.y + math.sqrt(point.x))
    sorted(best.items())
    array = _ARRAY.copy()
    for _ in range(30):
        array = np.minimum(array[::-1], array) + 0.5


def kernel_s() -> float:
    """Time of one warm kernel call (a first call refills the caches)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed() -> float:
    """Reference seconds per wall second now: the median of 15 kernel times.

    Kernels run for 30 ms first, so a core that was idle is up to speed
    before it is measured.
    """
    spin_until = time.perf_counter() + 0.03
    while time.perf_counter() < spin_until:
        kernel()
    return REFERENCE_KERNEL_S / statistics.median(kernel_s() for _ in range(15))


class HostClock:
    """Reference seconds, advanced while :meth:`running` is active."""

    def __init__(self) -> None:
        #: Every kernel time measured, for the result file.
        self.kernel_samples: List[float] = []
        self._reference = 0.0
        self._last = time.perf_counter()
        self._kernel = REFERENCE_KERNEL_S

    def _tick(self, signum=None, frame=None) -> None:
        started = time.perf_counter()
        measured = kernel_s()
        # The stretch since the last tick ran at a speed between the two
        # kernel readings that bracket it.
        self._reference += (started - self._last) * REFERENCE_KERNEL_S * 2 / (self._kernel + measured)
        self._kernel = measured
        self.kernel_samples.append(measured)
        self._last = time.perf_counter()

    def now(self) -> float:
        """The clock's reading, in reference seconds."""
        return self._reference + (time.perf_counter() - self._last) * REFERENCE_KERNEL_S / self._kernel

    @contextmanager
    def running(self):
        """Tick while the block runs; read :meth:`now` only inside it."""
        self._kernel = kernel_s()
        self._last = time.perf_counter()
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
