"""The benchmark notices a slower engine and a corrupted output.

Rounds with and without an injected slowdown are interleaved in one
process and timed in reference seconds, as the benchmark times them.
"""

import json
from pathlib import Path

import pytest

from hexbench.hostclock import HostClock
from hexbench.stats import lap_estimate
from hexbench.workloads import WORKLOADS
from repro.engines import ClockTreeEngine, SolverEngine

ROOT = Path(__file__).resolve().parents[2]


def bound(name):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return next(metric["bound"] for metric in benchmark["end_to_end"] if metric["name"] == name)


def run_twice_as_long(monkeypatch):
    """Make the solver do every batch twice (results of the second call kept)."""
    original = SolverEngine.run_batch

    def twice(self, specs):
        original(self, specs)
        return original(self, specs)

    monkeypatch.setattr(SolverEngine, "run_batch", twice)


def checked_round(workload, root):
    host = HostClock()
    with host.running():
        current = workload.run_round(root, clock=host.now)
    assert current.failed == 0, current.problems
    return current


def paired_rates(workload_name, monkeypatch, tmp_path, pairs):
    """``tasks_per_s`` as the benchmark reports it, without and with the slowdown."""
    workload = WORKLOADS[workload_name](2013)
    workload.warm_up()
    plain, slowed = [], []
    for _ in range(pairs):
        plain.append(checked_round(workload, tmp_path))
        with monkeypatch.context() as patch:
            run_twice_as_long(patch)
            slowed.append(checked_round(workload, tmp_path))

    def rate(rounds):
        laps = [current.fresh_laps for current in rounds]
        return lap_estimate(laps, workload.fresh_units)["rate"]

    return rate(plain), rate(slowed)


def test_a_doubled_solver_batch_falls_outside_the_bound_on_sweep_random(monkeypatch, tmp_path):
    plain, slowed = paired_rates("sweep-random", monkeypatch, tmp_path, pairs=2)
    assert slowed < plain * (1 - bound("tasks_per_s")), (plain, slowed)


def test_soak_churn_does_not_use_the_solver_and_stays_inside_its_bounds(monkeypatch, tmp_path):
    calls = []
    original = SolverEngine.run_batch
    monkeypatch.setattr(SolverEngine, "run_batch", lambda self, specs: calls.append(1) or original(self, specs))
    plain, slowed = paired_rates("soak-churn", monkeypatch, tmp_path, pairs=1)
    assert calls == []
    assert slowed > plain * (1 - bound("pulses_per_s")), (plain, slowed)


def corrupt_one_value(store: Path) -> None:
    """Flip one trigger time of the first stored record."""
    shard = next(store.glob("*.jsonl"))
    lines = shard.read_text(encoding="utf-8").splitlines()
    payload = json.loads(lines[0])
    payload["record"]["trigger_times"][3][2] += 1.0
    lines[0] = json.dumps(payload)
    shard.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_a_flipped_stored_value_raises_the_failure_count(tmp_path):
    workload = WORKLOADS["sweep-random"](2013)
    clean = workload.run_round(tmp_path)
    corrupted = workload.run_round(tmp_path, between=corrupt_one_value)
    assert clean.failed == 0, clean.problems
    assert corrupted.failed == 1
    assert corrupted.failed / corrupted.attempted > clean.failed / clean.attempted


def test_a_raising_engine_counts_its_tasks_as_failed_without_aborting(monkeypatch, tmp_path):
    def broken(self, spec, rng=None):
        raise RuntimeError("injected")

    monkeypatch.setattr(ClockTreeEngine, "run", broken)
    workload = WORKLOADS["sweep-random"](2013)
    current = workload.run_round(tmp_path)
    clocktree_tasks = sum(task.engine == "clocktree" for task in workload.tasks)
    assert current.failed == clocktree_tasks
    assert current.attempted == len(workload.tasks)
    assert current.run_s is None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_has_a_committed_digest(name):
    digests = json.loads((ROOT / "perfbench" / "digests.json").read_text(encoding="utf-8"))
    assert digests.get(name)
