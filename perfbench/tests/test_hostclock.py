"""The host clock advances with the work done, not with the ticks."""

import time

from hexbench.hostclock import REFERENCE_KERNEL_S, HostClock, kernel_s, speed


def busy(seconds):
    until = time.perf_counter() + seconds
    while time.perf_counter() < until:
        pass


def test_the_clock_ticks_and_runs_at_the_measured_speed():
    clock = HostClock()
    with clock.running():
        start_wall, start = time.perf_counter(), clock.now()
        busy(0.6)
        wall, elapsed = time.perf_counter() - start_wall, clock.now() - start
    assert len(clock.kernel_samples) >= 5
    slowest, fastest = max(clock.kernel_samples), min(clock.kernel_samples)
    # Less than the wall time by the ticks' own time, and scaled by a speed
    # between the slowest and the fastest kernel reading.
    assert wall * REFERENCE_KERNEL_S / slowest * 0.8 < elapsed < wall * REFERENCE_KERNEL_S / fastest


def test_the_timer_is_off_after_the_block():
    clock = HostClock()
    with clock.running():
        busy(0.25)
    ticks = len(clock.kernel_samples)
    busy(0.25)
    assert len(clock.kernel_samples) == ticks


def test_speed_is_reference_time_over_kernel_time():
    assert kernel_s() > 0
    assert 0 < speed() < 100
