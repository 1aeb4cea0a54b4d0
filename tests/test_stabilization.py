"""Tests for pulse assignment and stabilization-time estimation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.stabilization import assign_pulses, pulse_skew_ok, stabilization_time
from repro.clocksource.generator import PulseScheduleConfig, generate_pulse_schedule
from repro.core.topology import HexGrid
from repro.engines import RunResult, get_engine
from repro.engines.des import single_pulse_default_timeouts
from repro.faults.models import FaultModel, NodeFault


@pytest.fixture
def grid() -> HexGrid:
    return HexGrid(layers=5, width=5)


def _synthetic_result(grid, timing, timeouts, schedule, per_layer_offsets):
    """Build a multi-pulse RunResult with analytically known firing times.

    Every node of layer ``l`` fires ``per_layer_offsets[l]`` after the earliest
    layer-0 time of the pulse.
    """
    firing_times = {}
    for layer, column in grid.nodes():
        times = []
        for pulse in range(schedule.shape[0]):
            base = float(np.min(schedule[pulse]))
            times.append(base + per_layer_offsets[layer])
        firing_times[(layer, column)] = times
    return RunResult(
        engine="des",
        kind="multi_pulse",
        grid=grid,
        timing=timing,
        timeouts=timeouts,
        source_schedule=schedule,
        firing_times=firing_times,
    )


class TestAssignPulses:
    def test_clean_assignment(self, grid, timing):
        timeouts = single_pulse_default_timeouts(grid, timing)
        schedule = generate_pulse_schedule(
            PulseScheduleConfig(scenario="i", num_pulses=3, separation=timeouts.pulse_separation),
            grid.width,
            timing,
            seed=1,
        )
        offsets = [layer * timing.d_min for layer in range(grid.layers + 1)]
        result = _synthetic_result(grid, timing, timeouts, schedule, offsets)
        assignment = assign_pulses(result)
        assert assignment.num_pulses == 3
        assert np.all(assignment.counts == 1)
        assert np.all(np.isfinite(assignment.times))

    def test_spurious_early_firings_are_not_assigned(self, grid, timing):
        timeouts = single_pulse_default_timeouts(grid, timing)
        schedule = generate_pulse_schedule(
            PulseScheduleConfig(scenario="i", num_pulses=2, separation=timeouts.pulse_separation),
            grid.width,
            timing,
            seed=1,
        )
        # Shift the whole schedule so there is room before the first pulse.
        schedule = schedule + 100.0
        offsets = [layer * timing.d_min for layer in range(grid.layers + 1)]
        result = _synthetic_result(grid, timing, timeouts, schedule, offsets)
        result.firing_times[(3, 2)] = [5.0] + result.firing_times[(3, 2)]
        assignment = assign_pulses(result)
        assert assignment.spurious_firings_before_first_pulse() == 1
        assert np.all(assignment.counts[:, 3, 2] == 1)

    def test_double_firing_marks_pulse_ambiguous(self, grid, timing):
        timeouts = single_pulse_default_timeouts(grid, timing)
        schedule = generate_pulse_schedule(
            PulseScheduleConfig(scenario="i", num_pulses=2, separation=timeouts.pulse_separation),
            grid.width,
            timing,
            seed=1,
        )
        offsets = [layer * timing.d_min for layer in range(grid.layers + 1)]
        result = _synthetic_result(grid, timing, timeouts, schedule, offsets)
        node_times = result.firing_times[(2, 2)]
        node_times.insert(1, node_times[0] + 1.0)  # second firing in pulse 0's window
        assignment = assign_pulses(result)
        assert assignment.counts[0, 2, 2] == 2
        assert np.isnan(assignment.times[0, 2, 2])

    def test_faulty_nodes_are_skipped(self, grid, timing):
        timeouts = single_pulse_default_timeouts(grid, timing)
        schedule = generate_pulse_schedule(
            PulseScheduleConfig(scenario="i", num_pulses=2, separation=timeouts.pulse_separation),
            grid.width,
            timing,
            seed=1,
        )
        offsets = [layer * timing.d_min for layer in range(grid.layers + 1)]
        result = _synthetic_result(grid, timing, timeouts, schedule, offsets)
        result.fault_model = FaultModel(grid, [NodeFault.fail_silent(grid, (2, 2))])
        assignment = assign_pulses(result)
        assert np.all(assignment.counts[:, 2, 2] == 0)


class TestStabilizationTime:
    def test_perfect_run_stabilizes_at_pulse_one(self, grid, timing):
        timeouts = single_pulse_default_timeouts(grid, timing)
        schedule = generate_pulse_schedule(
            PulseScheduleConfig(scenario="i", num_pulses=4, separation=timeouts.pulse_separation),
            grid.width,
            timing,
            seed=1,
        )
        offsets = [layer * timing.delay_midpoint for layer in range(grid.layers + 1)]
        result = _synthetic_result(grid, timing, timeouts, schedule, offsets)
        assert stabilization_time(result, intra_bound=lambda layer: timing.d_max) == 1

    def test_violating_early_pulse_delays_stabilization(self, grid, timing):
        timeouts = single_pulse_default_timeouts(grid, timing)
        schedule = generate_pulse_schedule(
            PulseScheduleConfig(scenario="i", num_pulses=4, separation=timeouts.pulse_separation),
            grid.width,
            timing,
            seed=1,
        )
        offsets = [layer * timing.delay_midpoint for layer in range(grid.layers + 1)]
        result = _synthetic_result(grid, timing, timeouts, schedule, offsets)
        # Make one node of pulse 0 grossly late (but still within its window)
        # -> intra-layer violation in pulse 0 only.
        result.firing_times[(3, 2)][0] += 30.0
        estimate = stabilization_time(result, intra_bound=lambda layer: timing.d_max)
        assert estimate == 2

    def test_never_stabilizing_run_returns_none(self, grid, timing):
        timeouts = single_pulse_default_timeouts(grid, timing)
        schedule = generate_pulse_schedule(
            PulseScheduleConfig(scenario="i", num_pulses=3, separation=timeouts.pulse_separation),
            grid.width,
            timing,
            seed=1,
        )
        offsets = [layer * timing.delay_midpoint for layer in range(grid.layers + 1)]
        result = _synthetic_result(grid, timing, timeouts, schedule, offsets)
        for pulse in range(3):
            result.firing_times[(3, 2)][pulse] += 50.0
        assert stabilization_time(result, intra_bound=lambda layer: timing.d_max) is None

    def test_pulse_skew_ok_checks_inter_layer_bound(self, grid, timing):
        times = np.zeros(grid.shape)
        for layer in range(grid.layers + 1):
            times[layer, :] = layer * timing.d_max
        counts = np.ones(grid.shape, dtype=int)
        mask = np.ones(grid.shape, dtype=bool)
        assert pulse_skew_ok(
            grid, times, counts, mask,
            intra_bound=lambda layer: timing.epsilon,
            inter_bound=lambda layer: timing.d_max + timing.epsilon,
        )
        # An inter-layer bound below d+ must fail.
        assert not pulse_skew_ok(
            grid, times, counts, mask,
            intra_bound=lambda layer: timing.epsilon,
            inter_bound=lambda layer: timing.d_max - 1.0,
        )

    def test_missing_firing_fails_pulse(self, grid, timing):
        times = np.zeros(grid.shape)
        counts = np.ones(grid.shape, dtype=int)
        counts[3, 2] = 0
        mask = np.ones(grid.shape, dtype=bool)
        assert not pulse_skew_ok(
            grid, times, counts, mask,
            intra_bound=lambda layer: 1.0,
            inter_bound=lambda layer: 1.0,
        )


class TestEndToEndStabilization:
    def test_des_run_from_random_states_stabilizes(self, timing):
        """A full DES run from arbitrary states stabilizes within a few pulses."""
        grid = HexGrid(layers=8, width=6)
        timeouts = single_pulse_default_timeouts(
            grid, timing, num_faults=0, layer0_spread=timing.d_max
        )
        schedule = generate_pulse_schedule(
            PulseScheduleConfig(scenario="iii", num_pulses=6, separation=timeouts.pulse_separation),
            grid.width,
            timing,
            seed=4,
        )
        result = get_engine("des").multi_pulse(
            grid, timing, timeouts, schedule, rng=np.random.default_rng(11),
            random_initial_states=True,
        )
        estimate = stabilization_time(
            result, intra_bound=lambda layer: 3 * timing.d_max
        )
        assert estimate is not None
        assert estimate <= 3
