"""The output checks behind the failure count catch wrong outputs."""

import dataclasses

import numpy as np

from hexbench import oracle
from repro.campaign import CampaignSpec, SweepSpec
from repro.campaign.runner import execute_task


def run_tasks(**cell):
    spec = CampaignSpec(name="oracle-test", seed=7, cells=(SweepSpec(runs=1, **cell),))
    return spec, [(task, execute_task(task)) for task in spec.tasks()]


def flipped(record, layer=5, column=3, delta=-50.0):
    times = np.array(record.trigger_matrix(), copy=True)
    times[layer, column] += delta
    return dataclasses.replace(record, trigger_times=times)


def test_paper_bounds_hold_and_a_flipped_value_breaks_them():
    spec, pairs = run_tasks(layers=12, width=8, scenario=("i", "iv"), engine=("solver", "array"))
    for _, record in pairs:
        assert oracle.bound_violations(record, spec.timing) == []
    _, record = pairs[0]
    assert oracle.bound_violations(flipped(record), spec.timing)


def test_faulty_and_clock_tree_records_meet_what_applies_to_them():
    spec, pairs = run_tasks(layers=12, width=8, num_faults=2, engine="solver")
    assert all(oracle.bound_violations(record, spec.timing) == [] for _, record in pairs)
    spec, pairs = run_tasks(layers=12, width=8, engine="clocktree")
    assert all(oracle.bound_violations(record, spec.timing) == [] for _, record in pairs)


def test_exactness_contract_rerun_catches_a_flipped_value():
    _, pairs = run_tasks(layers=16, width=8, scenario="iii", engine="array",
                         delay_model="max_skew", topology=("cylinder", "patch"))
    for task, record in pairs:
        assert oracle.contract_violation(task, record) == ""
        assert "solver" in oracle.contract_violation(task, flipped(record, delta=1e-6))


def test_envelope_check_outside_the_bit_identical_regime():
    _, pairs = run_tasks(layers=16, width=8, scenario="ii", engine="array")
    task, record = pairs[0]
    assert oracle.contract_violation(task, record) == ""
    assert "envelope" in oracle.contract_violation(task, flipped(record, delta=100.0))


def test_record_digest_ignores_wall_time_only():
    _, pairs = run_tasks(layers=6, width=5)
    _, record = pairs[0]
    digest = oracle.record_digest(record)
    assert oracle.record_digest(dataclasses.replace(record, wall_time_s=99.0)) == digest
    assert oracle.record_digest(flipped(record, layer=1, column=0, delta=1e-9)) != digest
