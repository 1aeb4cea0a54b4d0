"""BENCHMARK.json follows its contract and a traced run reports every layer."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hexbench.bench import final_line, measure
from hexbench.stats import verify_result
from hexbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert BENCHMARK["paths"] == ["perfbench"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_readme_maps_every_per_layer_metric():
    readme = (ROOT / "perfbench" / "README.md").read_text(encoding="utf-8")
    for metric in BENCHMARK["per_layer"]:
        assert f"`{metric['name']}`" in readme, metric["name"]


@pytest.fixture(scope="module")
def traced_result():
    return measure(ROOT, "sweep-random", seed=5, seconds=0, trace=True, probes=1)


def test_a_traced_run_reports_every_per_layer_metric(traced_result):
    line = final_line(traced_result)
    assert line["correct"], traced_result["problems"] + traced_result["self_check"]
    assert set(line["metrics"]) == {metric["name"] for metric in BENCHMARK["per_layer"]}
    workload = WORKLOADS["sweep-random"]
    assert line["metrics"]["campaign.cache_hits"]["value"] == 150 * workload.resume_passes


def test_attribution_closes_in_the_traced_run(traced_result):
    assert traced_result["attribution"]
    for values in traced_result["attribution"]:
        assert abs(values["attribution_residual_s"]) < 1e-6
        assert 0 <= values["obs.unattributed_frac"] < 0.05


def test_every_statistic_recomputes_from_the_stored_samples(traced_result):
    stored = json.loads(json.dumps(traced_result))
    assert verify_result(stored) == []
    provenance = stored["provenance"]
    for key in ("seed", "nproc", "python", "numpy", "git_commit", "source_digest", "threads"):
        assert key in provenance


def test_the_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "soak-churn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
