"""Tests for the discrete-event simulator (network + engine entry points)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clocksource.generator import PulseScheduleConfig, generate_pulse_schedule
from repro.core.topology import Direction, HexGrid
from repro.engines import get_engine
from repro.engines.des import single_pulse_default_timeouts
from repro.faults.models import FaultModel, LinkBehavior, NodeFault
from repro.simulation.links import ConstantDelays, UniformRandomDelays
from repro.simulation.network import HexNetwork, TimerPolicy


@pytest.fixture
def grid() -> HexGrid:
    return HexGrid(layers=8, width=6)


@pytest.fixture
def timeouts(grid, timing):
    return single_pulse_default_timeouts(grid, timing, num_faults=1, layer0_spread=timing.d_max)


class TestSinglePulseDES:
    def test_all_nodes_fire_exactly_once(self, grid, timing, timeouts, rng):
        network = HexNetwork(
            grid, timing, timeouts, ConstantDelays(timing.d_max), rng=rng
        )
        network.initialize()
        network.schedule_source_pulses(np.zeros((1, grid.width)))
        network.run(until=1000.0)
        for node in grid.forwarding_nodes():
            assert len(network.firing_times(node)) == 1

    def test_agrees_with_analytic_solver_exactly(self, grid, timing, rng):
        """With a shared per-link delay model the two engines coincide."""
        delays = UniformRandomDelays(timing, np.random.default_rng(5))
        delays.materialize(grid)
        layer0 = np.linspace(0.0, timing.d_max, grid.width)
        solver = get_engine("solver").single_pulse(grid, timing, layer0, rng=rng, delays=delays)
        des = get_engine("des").single_pulse(
            grid, timing, layer0, rng=np.random.default_rng(9), delays=delays
        )
        assert np.allclose(solver.trigger_times, des.trigger_times, atol=1e-9)

    def test_agrees_with_solver_under_byzantine_faults(self, grid, timing):
        delays = UniformRandomDelays(timing, np.random.default_rng(6))
        delays.materialize(grid)
        fault_rng = np.random.default_rng(3)
        model = FaultModel(grid, [NodeFault.byzantine(grid, (4, 2), rng=fault_rng)])
        layer0 = np.zeros(grid.width)
        solver = get_engine("solver").single_pulse(
            grid, timing, layer0, rng=np.random.default_rng(1), delays=delays,
            fault_model=model,
        )
        des = get_engine("des").single_pulse(
            grid, timing, layer0, rng=np.random.default_rng(2), delays=delays,
            fault_model=model,
        )
        mask = model.correctness_mask()
        assert np.allclose(solver.trigger_times[mask], des.trigger_times[mask], atol=1e-9)

    def test_sleeping_node_does_not_refire_within_a_pulse(self, grid, timing, timeouts, rng):
        network = HexNetwork(grid, timing, timeouts, ConstantDelays(timing.d_min), rng=rng)
        network.initialize()
        network.schedule_source_pulses(np.zeros((1, grid.width)))
        network.run(until=10_000.0)
        assert all(len(network.firing_times(node)) == 1 for node in grid.forwarding_nodes())

    def test_constant_one_link_reasserts_after_timeout(self, grid, timing, timeouts):
        """A stuck-at-1 in-link keeps the victim's flag set across link timeouts."""
        fault_node = (3, 2)
        behaviors = {
            dest: LinkBehavior.CONSTANT_ONE for dest in grid.out_neighbors(fault_node).values()
        }
        model = FaultModel(grid, [NodeFault.byzantine(grid, fault_node, behaviors=behaviors)])
        network = HexNetwork(
            grid, timing, timeouts, ConstantDelays(timing.d_max),
            fault_model=model, rng=np.random.default_rng(0),
        )
        network.initialize()
        # Do not schedule any source pulses: run well past several link
        # timeouts; the victim must not fire (one stuck flag is not a guard)
        # and the simulation must not livelock.
        horizon = 5 * timeouts.t_link_max
        network.run(until=horizon)
        victim = grid.neighbor(fault_node, Direction.UPPER_RIGHT)
        assert network.firing_times(victim) == []
        automaton = network.automata[victim]
        assert Direction.LOWER_LEFT in automaton.flags

    def test_crash_fault_forwards_before_crash_only(self, grid, timing, timeouts):
        model = FaultModel(grid, [NodeFault.crash(grid, (2, 3), crash_time=1000.0)])
        network = HexNetwork(
            grid, timing, timeouts, ConstantDelays(timing.d_max),
            fault_model=model, rng=np.random.default_rng(0),
        )
        network.initialize()
        network.schedule_source_pulses(np.zeros((1, grid.width)))
        network.run(until=900.0)
        # Before the crash the node behaves correctly and forwards the pulse.
        assert len(network.firing_times((2, 3))) == 1

    def test_event_cap_guards_against_livelock(self, grid, timing, timeouts):
        network = HexNetwork(
            grid, timing, timeouts, ConstantDelays(timing.d_max),
            rng=np.random.default_rng(0), max_events=10,
        )
        network.initialize()
        network.schedule_source_pulses(np.zeros((1, grid.width)))
        with pytest.raises(RuntimeError):
            network.run(until=1e9)

    def test_uniform_timer_policy_requires_rng(self, grid, timing, timeouts):
        with pytest.raises(ValueError):
            HexNetwork(grid, timing, timeouts, ConstantDelays(timing.d_max), rng=None)

    def test_nominal_policy_without_rng_is_allowed(self, grid, timing, timeouts):
        network = HexNetwork(
            grid, timing, timeouts, ConstantDelays(timing.d_max),
            rng=None, timer_policy=TimerPolicy.NOMINAL,
        )
        network.initialize()
        network.schedule_source_pulses(np.zeros((1, grid.width)))
        network.run(until=1000.0)
        assert network.first_firing_matrix()[grid.layers, 0] > 0


class TestRunnerInterfaces:
    def test_single_pulse_result_accessors(self, grid, timing, rng):
        layer0 = np.zeros(grid.width)
        result = get_engine("solver").single_pulse(grid, timing, layer0, rng=rng)
        assert result.trigger_time((0, 0)) == 0.0
        assert result.all_correct_triggered()
        assert result.engine == "solver"
        assert result.solution is not None

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="available engines"):
            get_engine("vhdl")

    def test_bad_layer0_shape_raises(self, grid, timing, rng):
        with pytest.raises(ValueError):
            get_engine("solver").single_pulse(grid, timing, np.zeros(3), rng=rng)

    def test_multi_pulse_counts_pulses(self, grid, timing, timeouts, rng):
        schedule = generate_pulse_schedule(
            PulseScheduleConfig(scenario="i", num_pulses=3, separation=timeouts.pulse_separation),
            grid.width,
            timing,
            rng=rng,
        )
        result = get_engine("des").multi_pulse(
            grid, timing, timeouts, schedule, rng=rng, random_initial_states=False
        )
        assert result.num_pulses == 3
        # Every forwarding node fires exactly once per pulse from a clean start.
        for node in grid.forwarding_nodes():
            assert len(result.firings_of(node)) == 3
        assert result.total_firings() == 3 * (grid.num_nodes)

    def test_multi_pulse_with_random_initial_states_recovers(self, grid, timing, timeouts, rng):
        schedule = generate_pulse_schedule(
            PulseScheduleConfig(scenario="iii", num_pulses=4, separation=timeouts.pulse_separation),
            grid.width,
            timing,
            rng=rng,
        )
        result = get_engine("des").multi_pulse(
            grid, timing, timeouts, schedule, rng=rng, random_initial_states=True
        )
        # In the last pulse window every forwarding node fires (the system has
        # recovered from the arbitrary initial states).
        last_window_start = float(np.nanmin(schedule[-1, :]))
        for node in grid.forwarding_nodes():
            firings = [t for t in result.firings_of(node) if t >= last_window_start]
            assert len(firings) == 1

    def test_multi_pulse_bad_schedule_shape(self, grid, timing, timeouts, rng):
        with pytest.raises(ValueError):
            get_engine("des").multi_pulse(grid, timing, timeouts, np.zeros((2, 3)), rng=rng)

    def test_default_timeouts_satisfy_condition2_relations(self, grid, timing):
        timeouts = single_pulse_default_timeouts(grid, timing, num_faults=2, layer0_spread=1.0)
        assert timeouts.t_link_max == pytest.approx(timing.theta * timeouts.t_link_min)
        assert timeouts.t_sleep_min == pytest.approx(2 * timeouts.t_link_max + 2 * timing.d_max)
