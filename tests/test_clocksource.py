"""Tests for the layer-0 clock-source substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clocksource.fatal import QuorumPulseSynchronizer, SynchronizerConfig
from repro.clocksource.generator import (
    PulseScheduleConfig,
    generate_pulse_schedule,
    schedule_from_timeouts,
)
from repro.clocksource.scenarios import (
    SCENARIOS,
    Scenario,
    parse_scenario,
    scenario_label,
    scenario_layer0_times,
    scenario_skew_potential,
)
from repro.core.parameters import condition2_timeouts


class TestScenarioParsing:
    @pytest.mark.parametrize(
        "alias, expected",
        [
            ("zero", Scenario.ZERO),
            ("i", Scenario.ZERO),
            ("(ii)", Scenario.UNIFORM_DMIN),
            ("III", Scenario.UNIFORM_DMAX),
            ("ramp", Scenario.RAMP),
            ("(iv)", Scenario.RAMP),
            (Scenario.RAMP, Scenario.RAMP),
        ],
    )
    def test_aliases(self, alias, expected):
        assert parse_scenario(alias) is expected

    def test_unknown_alias_raises(self):
        with pytest.raises(ValueError):
            parse_scenario("scenario-42")

    def test_labels(self):
        assert scenario_label("i") == "(i) 0"
        assert scenario_label("iv") == "(iv) ramp d+"
        assert [s.roman for s in SCENARIOS] == ["(i)", "(ii)", "(iii)", "(iv)"]


class TestScenarioTimes:
    def test_zero_scenario(self, timing):
        times = scenario_layer0_times("i", 10, timing)
        assert np.all(times == 0.0)

    def test_uniform_scenarios_respect_ranges(self, timing, rng):
        dmin_times = scenario_layer0_times("ii", 200, timing, rng=rng)
        assert np.all((0 <= dmin_times) & (dmin_times <= timing.d_min))
        dmax_times = scenario_layer0_times("iii", 200, timing, rng=rng)
        assert np.all((0 <= dmax_times) & (dmax_times <= timing.d_max))
        assert dmax_times.max() > timing.d_min  # actually uses the larger range

    def test_ramp_scenario_shape(self, timing):
        width = 20
        times = scenario_layer0_times("iv", width, timing)
        diffs = np.diff(times)
        half = width // 2
        assert np.allclose(diffs[:half], timing.d_max)
        assert np.allclose(diffs[half:], -timing.d_max)
        assert times.min() == 0.0
        assert times.max() == pytest.approx(half * timing.d_max)

    def test_seed_reproducibility(self, timing):
        a = scenario_layer0_times("iii", 20, timing, seed=77)
        b = scenario_layer0_times("iii", 20, timing, seed=77)
        assert np.array_equal(a, b)

    def test_width_validation(self, timing):
        with pytest.raises(ValueError):
            scenario_layer0_times("i", 2, timing)

    def test_skew_potentials(self, timing):
        assert scenario_skew_potential("i", 20, timing) == 0.0
        assert scenario_skew_potential("iv", 20, timing) == pytest.approx(
            10 * timing.epsilon, rel=0.05
        )


class TestPulseSchedules:
    def test_separation_between_pulses(self, timing, rng):
        config = PulseScheduleConfig(scenario="iii", num_pulses=5, separation=100.0)
        schedule = generate_pulse_schedule(config, 12, timing, rng=rng)
        assert schedule.shape == (5, 12)
        for pulse in range(4):
            assert schedule[pulse + 1, :].min() >= schedule[pulse, :].max() + 100.0 - 1e-9

    def test_extra_separation(self, timing, rng):
        config = PulseScheduleConfig(
            scenario="i", num_pulses=3, separation=50.0, extra_separation=10.0
        )
        schedule = generate_pulse_schedule(config, 6, timing, rng=rng)
        gaps = schedule[1:, :].min(axis=1) - schedule[:-1, :].max(axis=1)
        assert np.all(gaps >= 60.0 - 1e-9)

    def test_fixed_offsets_option(self, timing, rng):
        config = PulseScheduleConfig(
            scenario="iii", num_pulses=3, separation=50.0, redraw_offsets=False
        )
        schedule = generate_pulse_schedule(config, 6, timing, rng=rng)
        offsets = schedule - schedule.min(axis=1, keepdims=True)
        assert np.allclose(offsets[0], offsets[1])
        assert np.allclose(offsets[1], offsets[2])

    def test_schedule_from_timeouts_uses_S(self, timing, rng):
        timeouts = condition2_timeouts(timing, stable_skew=20.0, layers=20, num_faults=0)
        schedule = schedule_from_timeouts("i", 3, timeouts, 6, timing, rng=rng)
        gaps = schedule[1:, :].min(axis=1) - schedule[:-1, :].max(axis=1)
        assert np.all(gaps >= timeouts.pulse_separation - 1e-9)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PulseScheduleConfig(scenario="i", num_pulses=0, separation=1.0)
        with pytest.raises(ValueError):
            PulseScheduleConfig(scenario="i", num_pulses=1, separation=0.0)
        with pytest.raises(ValueError):
            PulseScheduleConfig(scenario="i", num_pulses=1, separation=1.0, extra_separation=-1.0)


class TestQuorumSynchronizer:
    def test_bounded_spread_and_separation(self, rng):
        config = SynchronizerConfig(num_sources=10, num_byzantine=2, separation=100.0)
        synchronizer = QuorumPulseSynchronizer(config, rng=rng)
        schedule = synchronizer.generate_schedule(num_pulses=6)
        assert schedule.shape == (6, 10)
        correct = [i for i in range(10) if i not in synchronizer.byzantine]
        spread_bound = synchronizer.spread_bound()
        for pulse in range(6):
            values = schedule[pulse, correct]
            assert np.all(np.isfinite(values))
            assert values.max() - values.min() <= spread_bound + 1e-9
        # Per-source separation of consecutive pulses is at least S (all drifts >= 1).
        for index in correct:
            gaps = np.diff(schedule[:, index])
            assert np.all(gaps >= config.separation * 0.9)

    def test_byzantine_sources_have_nan_entries(self, rng):
        config = SynchronizerConfig(num_sources=7, num_byzantine=2, separation=50.0)
        synchronizer = QuorumPulseSynchronizer(config, rng=rng)
        schedule = synchronizer.generate_schedule(num_pulses=3)
        for index in synchronizer.byzantine:
            assert np.all(np.isnan(schedule[:, index]))

    def test_quorum_requirement(self):
        with pytest.raises(ValueError):
            SynchronizerConfig(num_sources=6, num_byzantine=2)  # needs 3f < n
        config = SynchronizerConfig(num_sources=7, num_byzantine=2)
        assert config.quorum == 5

    def test_explicit_byzantine_indices(self, rng):
        config = SynchronizerConfig(num_sources=7, num_byzantine=2, separation=50.0)
        synchronizer = QuorumPulseSynchronizer(config, rng=rng, byzantine_sources=[0, 3])
        assert synchronizer.byzantine == {0, 3}
        with pytest.raises(ValueError):
            QuorumPulseSynchronizer(config, rng=rng, byzantine_sources=[0])

    def test_schedule_feeds_hex_grid(self, timing, rng):
        """End-to-end: the synchronizer's output drives a HEX grid."""
        from repro.core.topology import HexGrid
        from repro.simulation.links import UniformRandomDelays
        from repro.core.pulse_solver import solve_single_pulse

        config = SynchronizerConfig(num_sources=8, num_byzantine=0, separation=200.0)
        schedule = QuorumPulseSynchronizer(config, rng=rng).generate_schedule(1)
        grid = HexGrid(layers=6, width=8)
        solution = solve_single_pulse(
            grid, schedule[0], UniformRandomDelays(timing, rng)
        )
        assert solution.all_triggered()

    def test_num_pulses_validation(self, rng):
        config = SynchronizerConfig(num_sources=5, num_byzantine=1)
        with pytest.raises(ValueError):
            QuorumPulseSynchronizer(config, rng=rng).generate_schedule(0)


class TestQuorumSynchronizerUnderTransientFaults:
    """The layer-0 stand-in meets the adversary layer.

    The HEX interface the synchronizer must provide -- bounded per-pulse
    spread and minimum separation among *correct* sources -- has to survive
    the worst Byzantine strategy the stand-in models (READY floods sent
    arbitrarily early), and its output has to keep a HEX grid stabilizing
    even while the grid itself is under a transient fault burst.
    """

    def test_interface_bounds_hold_for_every_byzantine_count(self, rng):
        config_base = dict(num_sources=10, separation=120.0)
        spreads = {}
        for num_byzantine in (0, 1, 2, 3):
            config = SynchronizerConfig(num_byzantine=num_byzantine, **config_base)
            synchronizer = QuorumPulseSynchronizer(config, rng=rng)
            schedule = synchronizer.generate_schedule(num_pulses=8)
            correct = [i for i in range(10) if i not in synchronizer.byzantine]
            bound = synchronizer.spread_bound()
            per_pulse = schedule[:, correct].max(axis=1) - schedule[:, correct].min(axis=1)
            assert np.all(per_pulse <= bound + 1e-9)
            for index in correct:
                assert np.all(
                    np.diff(schedule[:, index]) >= config.separation / config.theta - 1e-9
                )
            spreads[num_byzantine] = float(per_pulse.max())
        assert spreads  # all four Byzantine counts produced valid schedules

    def test_faulty_synchronizer_drives_grid_through_transient_burst(self, timing):
        """End-to-end recovery: Byzantine sources *and* a mid-run grid burst.

        The synchronizer (2 of 8 sources Byzantine) produces the layer-0
        schedule; the grid additionally suffers a transient 2-node Byzantine
        burst injected between pulses and healed two windows later.  Every
        correct node must keep firing once per post-heal pulse window.
        """
        from repro.adversary import FaultSchedule
        from repro.analysis.stabilization import assign_pulses
        from repro.core.parameters import condition2_timeouts
        from repro.core.topology import HexGrid
        from repro.engines import get_engine

        grid = HexGrid(layers=8, width=8)
        num_pulses = 6
        synchronizer_rng = np.random.default_rng(2013)
        config = SynchronizerConfig(num_sources=8, num_byzantine=2, separation=400.0)
        # Non-adjacent Byzantine sources so the grid-side Condition 1 holds
        # (two adjacent dead sources would starve the node between them).
        synchronizer = QuorumPulseSynchronizer(
            config, rng=synchronizer_rng, byzantine_sources=[2, 6]
        )
        schedule = synchronizer.generate_schedule(num_pulses)
        # Byzantine sources produce nothing trustworthy: their nan entries are
        # skipped by the network's pulse scheduling; declare them fail-silent.
        byzantine_sources = sorted(synchronizer.byzantine)

        stable_skew = synchronizer.spread_bound() + timing.epsilon * grid.layers + 2 * timing.d_max
        timeouts = condition2_timeouts(
            timing, stable_skew=stable_skew, layers=grid.layers, num_faults=2
        )

        window = float(np.nanmin(schedule[1])) - float(np.nanmin(schedule[0]))
        burst = FaultSchedule.burst(
            time=float(np.nanmin(schedule[1])) + 0.5 * window,
            count=2,
            duration=2.0 * window,
        )
        run_rng = np.random.default_rng(99)
        adversary = burst.materialize(
            grid, run_rng, exclude=[(0, column) for column in byzantine_sources]
        )

        from repro.faults.models import FaultModel, NodeFault

        fault_model = FaultModel(
            grid,
            [NodeFault.fail_silent(grid, (0, column)) for column in byzantine_sources],
        )
        engine = get_engine("des")
        result = engine.multi_pulse(
            grid,
            timing,
            timeouts,
            schedule,  # nan entries (Byzantine sources) are skipped by the network
            rng=run_rng,
            fault_model=fault_model,
            initial_states="clean",
            adversary=adversary,
        )

        assignment = assign_pulses(result)
        # After the heal, every correct forwarding node fires exactly once per
        # window: the grid re-stabilized despite faulty sources + burst.
        last = assignment.num_pulses - 1
        counts = assignment.counts[last]
        mask = result.fault_model.correctness_mask()
        mask[0, :] = False  # sources are assigned by schedule, not counted here
        assert np.all(counts[mask] == 1)
