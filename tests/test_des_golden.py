"""Golden digests of the discrete-event network run.

Each case builds a :class:`repro.simulation.network.HexNetwork` the way the
DES engine does (initialize, adversary, initial states, source pulses), runs
it and pins the sha256 of everything a run leaves behind: every firing
record, the layer-0 source firings, the final automaton state (phase, memory
flags, wake time), the event-queue counters, the values ``run`` returned and
one ``random()`` draw of every generator the run used -- the last catches a
generator left at the wrong position.  Single- and multi-pulse runs are
covered under static faults, random/adversarial/clean initial states, every
adversary action, each delay model, the ``NOMINAL`` timer policy, a damaged
die, the event cap and a full event capture.

Regenerate (only for an intended record change) with::

    PYTHONPATH=src python tests/test_des_golden.py
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest

from repro.adversary.delays import BiasedLinkDelays
from repro.adversary.runtime import (
    FlipBehavior,
    HealNode,
    InjectFault,
    ScheduledAdversary,
    SetLinkBehavior,
)
from repro.clocksource.generator import PulseScheduleConfig, generate_pulse_schedule
from repro.clocksource.scenarios import Scenario
from repro.core.parameters import TimingConfig
from repro.core.topology import Direction, HexGrid
from repro.engines.des import scenario_stabilization_timeouts, single_pulse_default_timeouts
from repro.faults.models import FaultModel, LinkBehavior, NodeFault
from repro.obs.capture import DesRunObserver
from repro.simulation.links import FreshUniformDelays, TableDelays, UniformRandomDelays
from repro.simulation.network import HexNetwork, TimerPolicy
from repro.topologies import build_topology

TIMING = TimingConfig.paper_defaults()


class _Case:
    """One network run: the network, its generators and the run horizons."""

    def __init__(self, network, generators, horizons, observer=None):
        self.network = network
        self.generators = generators
        self.horizons = horizons
        self.observer = observer


def _horizon(grid, times, timeouts, num_faults):
    hops = grid.layers + grid.condition2_extra_hops() + num_faults + 2
    return float(np.nanmax(times)) + hops * TIMING.d_max + timeouts.t_sleep_max


def _single(grid, seed, faults, delays_kind="uniform"):
    """A single pulse, drawn in the engine's order (layer 0, faults, delays)."""
    rng = np.random.default_rng(seed)
    layer0 = rng.uniform(0.0, TIMING.d_max, size=grid.width)
    model = FaultModel(grid, faults(grid, rng)) if faults is not None else None
    if delays_kind == "uniform":
        delays = UniformRandomDelays(TIMING, rng)
    else:
        delays = delays_kind(grid)
    num_faults = model.num_faulty_nodes if model is not None else 0
    timeouts = single_pulse_default_timeouts(
        grid, TIMING, num_faults=num_faults, layer0_spread=float(np.ptp(layer0))
    )
    network = HexNetwork(grid, TIMING, timeouts, delays, fault_model=model, rng=rng)
    network.initialize()
    network.schedule_source_pulses(layer0[np.newaxis, :])
    return _Case(network, [rng], [_horizon(grid, layer0, timeouts, num_faults)])


def _multi(
    grid,
    seed,
    *,
    num_pulses=5,
    faults=None,
    initial="random",
    delays=FreshUniformDelays,
    adversary=None,
    policy=TimerPolicy.UNIFORM,
    max_events=5_000_000,
    observer=None,
    split=False,
    delay_seed=None,
):
    """A multi-pulse run in the engine's order (faults, schedule, network)."""
    rng = np.random.default_rng(seed)
    generators = [rng]
    if delay_seed is not None:
        generators.append(np.random.default_rng(delay_seed))
    model = FaultModel(grid, faults(grid, rng)) if faults is not None else None
    num_faults = model.num_faulty_nodes if model is not None else 0
    timeouts = scenario_stabilization_timeouts(
        Scenario.UNIFORM_DMIN,
        grid.width,
        grid.layers,
        num_faults + 1,
        TIMING,
        extra_hops=grid.condition2_extra_hops(),
    )
    schedule = generate_pulse_schedule(
        PulseScheduleConfig(
            scenario=Scenario.UNIFORM_DMIN,
            num_pulses=num_pulses,
            separation=timeouts.pulse_separation,
        ),
        grid.width,
        TIMING,
        rng=rng,
    )
    network = HexNetwork(
        grid,
        TIMING,
        timeouts,
        delays(TIMING, generators[-1]),
        fault_model=model,
        rng=rng,
        timer_policy=policy,
        max_events=max_events,
    )
    network.observer = observer
    network.initialize()
    if adversary is not None:
        adversary(grid).install(network)
    if initial == "random":
        network.apply_random_initial_states(rng)
    elif initial == "adversarial":
        network.apply_adversarial_initial_states()
    network.schedule_source_pulses(schedule)
    horizon = _horizon(grid, schedule, timeouts, num_faults)
    horizons = [horizon / 3.0, horizon] if split else [horizon]
    return _Case(network, generators, horizons, observer)


def _byzantine(*nodes):
    def faults(grid, rng):
        return [NodeFault.byzantine(grid, node, rng=rng) for node in nodes]

    return faults


def _all_high(grid, node):
    return {dest: LinkBehavior.CONSTANT_ONE for dest in grid.out_neighbors(node).values()}


def _churn(grid):
    """Every adversary action: inject, flip, stuck-at-1 link, heal, crash."""
    pattern = {
        Direction.LEFT: LinkBehavior.CONSTANT_ONE,
        Direction.RIGHT: LinkBehavior.CONSTANT_ZERO,
        Direction.UPPER_LEFT: LinkBehavior.CONSTANT_ONE,
        Direction.UPPER_RIGHT: LinkBehavior.CONSTANT_ZERO,
    }
    injected = NodeFault.byzantine(
        grid,
        (3, 2),
        behaviors={grid.neighbor((3, 2), d): b for d, b in pattern.items()},
    )
    link = ((4, 4), (5, 4))
    return ScheduledAdversary(
        actions=(
            (30.0, InjectFault(injected)),
            (95.0, SetLinkBehavior(link, LinkBehavior.CONSTANT_ONE)),
            (140.0, FlipBehavior((3, 2))),
            (150.0, InjectFault(NodeFault.crash(grid, (6, 1), crash_time=150.0))),
            (150.0, InjectFault(NodeFault.fail_silent(grid, (2, 5)))),
            (210.0, SetLinkBehavior(link, LinkBehavior.CORRECT)),
            (260.0, HealNode((3, 2))),
            (260.0, HealNode((6, 1))),
            (300.0, HealNode((2, 5))),
            (330.0, HealNode((5, 0))),
            (400.0, SetLinkBehavior(((1, 1), (2, 1)), LinkBehavior.CONSTANT_ZERO)),
        )
    )


def _static_for_churn(grid, rng):
    return [NodeFault.byzantine(grid, (5, 0), behaviors=_all_high(grid, (5, 0)))]


def _table(grid):
    table = {
        link: (TIMING.d_min if index % 3 else TIMING.d_max)
        for index, link in enumerate(grid.links())
    }
    return TableDelays(table, default=TIMING.d_max)


CASES = {
    "single_byzantine": lambda: _single(
        HexGrid(layers=12, width=7), 1, _byzantine((3, 2), (8, 5))
    ),
    "single_fail_silent": lambda: _single(
        HexGrid(layers=10, width=6),
        2,
        lambda grid, rng: [NodeFault.fail_silent(grid, (4, 3))],
    ),
    "single_crash_mid_run": lambda: _single(
        HexGrid(layers=12, width=6),
        3,
        lambda grid, rng: [
            NodeFault.crash(grid, (3, 2), crash_time=45.0),
            NodeFault.crash(grid, (8, 1), crash_time=45.0),
            NodeFault.crash(grid, (2, 4), crash_time=0.0),
        ],
    ),
    "single_table_delays": lambda: _single(
        HexGrid(layers=9, width=6),
        4,
        lambda grid, rng: [NodeFault.byzantine(grid, (3, 1), behaviors=_all_high(grid, (3, 1)))],
        delays_kind=_table,
    ),
    "multi_random": lambda: _multi(
        HexGrid(layers=8, width=6), 5, faults=_byzantine((4, 2)), split=True
    ),
    "multi_adversarial": lambda: _multi(
        HexGrid(layers=8, width=5), 6, initial="adversarial"
    ),
    "multi_clean": lambda: _multi(HexGrid(layers=7, width=5), 7, initial="clean"),
    "adversary_churn": lambda: _multi(
        HexGrid(layers=8, width=6),
        8,
        num_pulses=6,
        faults=_static_for_churn,
        adversary=_churn,
    ),
    "biased_delays": lambda: _multi(
        HexGrid(layers=8, width=6),
        9,
        faults=_byzantine((2, 3)),
        delays=lambda timing, rng: BiasedLinkDelays(timing, rng, jitter=0.5),
        delay_seed=99,
    ),
    "nominal_policy": lambda: _multi(
        HexGrid(layers=8, width=6), 10, policy=TimerPolicy.NOMINAL
    ),
    "degraded": lambda: _multi(
        build_topology("degraded:links=3,nodes=3,seed=4", 10, 8),
        11,
        delays=UniformRandomDelays,
    ),
    "event_cap": lambda: _multi(
        HexGrid(layers=8, width=6), 12, faults=_byzantine((3, 3)), max_events=1_500
    ),
    "observer_capture": lambda: _multi(
        HexGrid(layers=8, width=6),
        13,
        num_pulses=3,
        faults=_static_for_churn,
        adversary=_churn,
        observer=DesRunObserver(capture_events=True),
    ),
}

GOLDEN = {
    "adversary_churn": "0bf0905c4818c098e94ec99883eaf24564994ed2a52c43fea8747800c68b653b",
    "biased_delays": "70c5b23324a8cf8a8f30e156345ad2404cd9e87a6e6b4b4d5e206aed9e4a8299",
    "degraded": "9d477fd95293c0d92edddb228802576efb846dee79418fe84bca52394c0655c2",
    "event_cap": "9cadab32a575870880b851126606082c4d0fd3dd1be0478de2be40792a5749bd",
    "multi_adversarial": "c3d92fa8e75cab10347cfb64b740ddd66a1b3b2addb00eb115c720804ba342cb",
    "multi_clean": "0c4e1900562ecba7973b36c8be91876008c5b3821ff015989f4e4292cbfdf348",
    "multi_random": "3e930c4639f2ddb2f07af00267d3133a9ff3cc45abde96b37692c96364df98c3",
    "nominal_policy": "5408ecec5804b5fcae7b491cd0cc6087b03aef24b2ae159db439abecee91e535",
    "observer_capture": "638fd886d396c6e6d51fd4dbd98bc8efc669863165546145645556c6e5e9509d",
    "single_byzantine": "93c4f157f90106d477c6b71b5f4eab637d194f4d6ce11e1403aec7a1ea7867a8",
    "single_crash_mid_run": "de41a7bec962ab01d021f507697c73e9310ed532f7f36ed384ea00f99adb0511",
    "single_fail_silent": "5f4fae276e774ef548ba309f85ce1221fea9d366ee6a606078f26d2669142951",
    "single_table_delays": "8400139e82bb82cc835274ad4a3d6420e4547e7dd679f55b997c78988c5578f3",
}


def _run(name):
    case = CASES[name]()
    network = case.network
    outcome = {"returned": [], "error": None}
    try:
        for horizon in case.horizons:
            outcome["returned"].append(network.run(until=horizon))
    except RuntimeError as error:
        outcome["error"] = str(error)
    return case, outcome


def _digest(case, outcome) -> str:
    network = case.network
    firings = [
        [list(r.node), repr(r.time), None if r.guard is None else int(r.guard),
         [d.value for d in r.memorized]]
        for r in network.all_firings()
    ]
    sources = [[list(r.node), repr(r.time)] for r in network.source_firings]
    automata = [
        [
            list(node),
            automaton.phase.value,
            sorted((d.value, repr(t)) for d, t in automaton.flags.items()),
            repr(automaton.wake_time),
            len(automaton.firings),
        ]
        for node, automaton in sorted(network.automata.items())
    ]
    payload = {
        "firings": firings,
        "sources": sources,
        "automata": automata,
        "queue": [network.queue.num_scheduled, network.queue.num_processed, len(network.queue)],
        "outcome": outcome,
        "next_draws": [repr(generator.random()) for generator in case.generators],
    }
    if case.observer is not None:
        payload["observer"] = {"counts": case.observer.counts, "events": case.observer.events}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_des_run_matches_golden_digest(name):
    assert _digest(*_run(name)) == GOLDEN[name]


def test_event_cap_raises_mid_run():
    case, outcome = _run("event_cap")
    assert outcome["error"] is not None and "event cap" in outcome["error"]
    assert case.network.queue.num_processed == case.network.max_events + 1


def test_multi_random_runs_in_two_calls():
    _case, outcome = _run("multi_random")
    assert len(outcome["returned"]) == 2 and all(count > 0 for count in outcome["returned"])


def test_crash_mid_run_silences_the_node_after_its_crash():
    case, _outcome = _run("single_crash_mid_run")
    network = case.network
    assert len(network.firing_times((3, 2))) == 1
    assert network.firing_times((3, 2))[0] < 45.0
    assert network.firing_times((8, 1)) == [] and network.firing_times((2, 4)) == []
    assert math.isnan(network.first_firing_matrix()[8, 1])  # faulty at the end


if __name__ == "__main__":
    for case_name in sorted(CASES):
        print(f'    "{case_name}": "{_digest(*_run(case_name))}",')
