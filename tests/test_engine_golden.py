"""Golden digests of the DES engine layer: ``DesEngine.run``, multi-pulse
campaign records and the recovery experiment.

``tests/test_des_golden.py`` pins :class:`repro.simulation.network.HexNetwork`
as the engine used to drive it; this file pins what sits on top of it -- the
spec-driven draw order (layer 0, fault placement, fault schedule, delays),
the Condition 2 timeout defaults, the run horizon, the initial-state policy,
the end-of-run fault model and the adversary metrics -- plus the two
stabilization consumers of the engine: the campaign's multi-pulse record
(``sigma(f, l)`` check, skew choice ``C``) and the recovery experiment's
per-pulse fault-free check.

The run corpus covers the cylinder, torus, patch and degraded topologies,
both kinds, static faults, fault schedules, explicit timeouts, the
``NOMINAL`` timer policy, every initial-state policy (including the legacy
``random_initial_states=False`` spec field) and ``run_slack``.

Regenerate (only for an intended record change) with::

    PYTHONPATH=src python tests/test_engine_golden.py
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.adversary.schedule import FaultSchedule
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec, SweepSpec
from repro.engines import RunSpec, get_engine
from repro.experiments import recovery
from repro.experiments.config import ExperimentConfig
from repro.experiments.stability import run_stabilization_point
from repro.faults.models import FaultType

TOPOLOGIES = ("cylinder", "torus", "patch", "degraded:links=3,nodes=3,seed=4")
TIMEOUTS = (3.0, 4.0, 40.0, 45.0, 120.0, 2.5)


def _corpus():
    specs = []
    seed = 0
    for topology in TOPOLOGIES:
        base = dict(layers=6, width=5, topology=topology)
        single = [
            dict(),
            dict(scenario="uniform_dmax", num_faults=2, fault_type="byzantine"),
            dict(scenario="ramp", num_faults=1, fault_type="fail_silent"),
            dict(num_faults=1, fault_type="byzantine", timer_policy="nominal"),
            dict(scenario="uniform_dmin", delay_model="fresh", timeouts=TIMEOUTS),
            dict(num_faults=1, fault_type="byzantine", delay_model="biased"),
            dict(
                scenario="uniform_dmax",
                fault_schedule=FaultSchedule.burst(time=3.0, count=1, duration=20.0),
            ),
            dict(
                num_faults=1,
                fault_type="byzantine",
                fault_schedule=FaultSchedule.burst(time=2.0, count=1),
            ),
            dict(delay_model="max_skew", num_faults=1, fault_type="byzantine"),
            dict(delay_model="constant", scenario="ramp"),
        ]
        multi = [
            dict(),
            dict(scenario="uniform_dmin", num_faults=1, fault_type="byzantine"),
            dict(random_initial_states=False),
            dict(initial_states="clean", num_faults=1, fault_type="fail_silent"),
            dict(initial_states="adversarial", scenario="uniform_dmax"),
            dict(run_slack=35.0, num_faults=2, fault_type="byzantine"),
            dict(timer_policy="nominal", scenario="ramp"),
            dict(timeouts=TIMEOUTS, delay_model="uniform"),
            dict(
                fault_schedule=FaultSchedule.burst(time=60.0, count=1, duration=90.0),
                initial_states="clean",
            ),
            dict(
                num_faults=1,
                fault_type="byzantine",
                fault_schedule=FaultSchedule.burst(time=30.0, count=1),
                run_slack=10.0,
            ),
            dict(random_initial_states=False, delay_model="biased", num_faults=1,
                 fault_type="byzantine"),
            dict(
                initial_states="random",
                random_initial_states=False,
                fault_schedule=FaultSchedule.mobile_byzantine(time=20.0, interval=40.0, hops=2),
            ),
        ]
        for extra in single:
            seed += 1
            specs.append(RunSpec(kind="single_pulse", entropy=seed, **base, **extra))
        for extra in multi:
            seed += 1
            specs.append(
                RunSpec(kind="multi_pulse", num_pulses=3, entropy=seed, **base, **extra)
            )
    return specs


def _floats(values):
    if values is None:
        return None
    return [repr(float(value)) for value in np.asarray(values, dtype=float).ravel()]


def _result_payload(result):
    fault_model = result.fault_model
    payload = {
        "engine": result.engine,
        "kind": result.kind,
        "shape": list(result.grid.shape),
        "trigger_times": _floats(result.trigger_times),
        "correct_mask": (
            None if result.correct_mask is None else result.correct_mask.ravel().tolist()
        ),
        "layer0_times": _floats(result.layer0_times),
        "faults": None if fault_model is None else fault_model.describe(),
        "timeouts": (
            None
            if result.timeouts is None
            else {key: repr(value) for key, value in result.timeouts.as_row().items()}
        ),
        "source_schedule": _floats(result.source_schedule),
        "firing_times": (
            None
            if result.firing_times is None
            else [[list(node), _floats(times)] for node, times in sorted(result.firing_times.items())]
        ),
        "metrics": {key: repr(value) for key, value in sorted(result.metrics.items())},
        "spec": result.spec.key(),
    }
    return payload


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def engine_runs_digest() -> str:
    engine = get_engine("des")
    return _digest([_result_payload(engine.run(spec)) for spec in _corpus()])


def campaign_digest() -> str:
    cells = tuple(
        SweepSpec(
            layers=(6,),
            width=(5,),
            scenario=("uniform_dmin", "ramp"),
            num_faults=(0, 1),
            topology=(topology,),
            runs=1,
            seed_salt=salt,
            kind="multi_pulse",
            num_pulses=4,
            skew_choice=choice,
            engine=("des",),
        )
        for salt, (topology, choice) in enumerate(
            (topology, choice)
            for topology in ("cylinder", "patch", "degraded:links=3,nodes=3,seed=4")
            for choice in (0, 2)
        )
    )
    spec = CampaignSpec(name="engine-golden", seed=2013, cells=cells)
    records = CampaignRunner(spec).run().records
    return _digest([record.canonical_json() for record in records])


def stability_digest() -> str:
    config = ExperimentConfig(layers=6, width=5, runs=2, num_pulses=4, seed=2013)
    points = [
        run_stabilization_point(config, scenario, faults, fault_type=fault_type, skew_choice=choice)
        for scenario in ("zero", "uniform_dmin", "uniform_dmax", "ramp")
        for faults, fault_type, choice in (
            (0, FaultType.BYZANTINE, 0),
            (1, FaultType.BYZANTINE, 2),
            (2, FaultType.FAIL_SILENT, 3),
        )
    ]
    return _digest([_floats(point.stabilization_times) for point in points])


def recovery_digest() -> str:
    experiment = recovery.run(ExperimentConfig.quick())
    return _digest(
        [
            {key: repr(value) for key, value in point.as_row().items()}
            | {"recovery": _floats(point.recovery), "violated": point.violated_during.tolist()}
            for point in experiment.points
        ]
    )


DIGESTS = {
    "engine_runs": engine_runs_digest,
    "campaign": campaign_digest,
    "recovery": recovery_digest,
    "stability": stability_digest,
}

GOLDEN = {
    "campaign": "16782d352110c2a8ac99217c828bad2b058f3fc770e92f4664c997f7bc848bd3",
    "engine_runs": "0d6406f6ba1d89a870e9df4e85645001429f3e598ac9378f938f0c250e547b9c",
    "recovery": "0627fcab992bca3b651043d7389b2a9f802d779c00178f348ec19b787fa91292",
    "stability": "09016747b1717d5487559f1abb5d7b32cccdc5cd7fdfa6e8564dd81f55589c04",
}


def test_corpus_size():
    specs = _corpus()
    assert len(specs) == 88
    assert len({spec.key() for spec in specs}) == len(specs)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_engine_layer_matches_golden_digest(name):
    assert DIGESTS[name]() == GOLDEN[name]


if __name__ == "__main__":
    for digest_name in sorted(DIGESTS):
        print(f'    "{digest_name}": "{DIGESTS[digest_name]()}",')
