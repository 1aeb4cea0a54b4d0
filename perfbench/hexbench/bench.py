"""Measure one workload and report its metrics.

``measure`` runs rounds of a workload for the requested time, untraced for
the end-to-end metrics or alternating untraced and traced rounds for the
per-layer ones, checks every output (:mod:`hexbench.oracle`) and returns a
result whose every statistic recomputes from the raw samples stored in it
(:func:`hexbench.stats.verify_result`).  ``main`` is the command line.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro import obs

from hexbench import spans as spans_module
from hexbench.hostclock import HostClock, speed
from hexbench.provenance import provenance
from hexbench.stats import lap_estimate, summarize, verify_result
from hexbench.workloads import DEFAULT_SEED, WORKLOADS, Round

#: Per-layer metric -> the span whose per-round self time it reports.
SPAN_LAYERS = {
    "campaign.spec.expand_s": "campaign.spec.expand",
    "campaign.runner.self_s": "campaign.runner",
    "campaign.store.append_s": "campaign.store.append",
    "campaign.store.load_s": "campaign.store.load",
    "topologies.build_s": "topologies.build",
    "analysis.skew.busy_s": "analysis.skew",
    "adversary.schedule_s": "adversary.schedule",
    "stream.update_s": "stream.update",
    "soak.checkpoint_s": "soak.checkpoint",
    **{f"engines.{name}.busy_s": f"engines.{name}" for name in ("solver", "array", "clocktree", "des")},
}

#: Work counters read from the program's ``repro.obs`` registry.
OBS_COUNTERS = (
    "solver.heap_pushes",
    "solver.messages_delivered",
    "array.rounds",
    "array.cells_updated",
    "clocktree.elements_sampled",
    "clocktree.sinks_evaluated",
    "campaign.batches",
    "campaign.cache_hits",
)

#: Counts the benchmark's own wrappers take (see ``workloads.py``).
SPAN_COUNTS = ("des.events_processed", "campaign.store.records_loaded")

#: Bytes a round leaves in its scratch store, by workload family.
BYTES_METRICS = ("campaign.store.bytes_written", "soak.checkpoint_bytes")

#: Setup probes (fresh interpreters) per run; ``setup_s`` is their median.
PROBES = 5


def load_json(path: Path) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# set-up probes
# ----------------------------------------------------------------------
def probe_main(root: Path, workload_name: str, seed: int, started: float) -> int:
    """Child side of a set-up probe: import, build, warm up, report, exit."""
    from hexbench import workloads

    imported = time.perf_counter()
    workloads.WORKLOADS[workload_name](seed).warm_up()
    print(json.dumps({"import_s": imported - started}), flush=True)
    return 0


def run_probes(root: Path, workload: str, seed: int, count: int) -> List[Dict[str, float]]:
    """Time ``count`` fresh interpreters from launch to the end of warm-up.

    ``setup_s`` is in reference seconds: the wall time times the host's
    speed (:func:`hexbench.hostclock.speed`) just before and after the probe.
    """
    results = []
    for _ in range(count):
        before = speed()
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(root / "perfbench" / "run.py"), "--probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=root,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = child.stdout.readline()
            ready = time.perf_counter()
        finally:
            child.stdout.close()
            code = child.wait(timeout=120)
        if code != 0 or not line:
            raise RuntimeError(f"set-up probe exited with {code}")
        report = json.loads(line)
        report["setup_wall_s"] = ready - start
        report["setup_s"] = report["setup_wall_s"] * (before + speed()) / 2
        results.append(report)
    return results


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------
class TracedRound:
    """Instrumentation, obs counters and spans of one traced round."""

    def __init__(self, targets: list) -> None:
        self.instrumentation = spans_module.Instrumentation(targets)
        self.counters: Dict[str, float] = defaultdict(float)

    @contextmanager
    def timed(self):
        with obs.observed(metrics=True) as session:
            with self.instrumentation as recorder:
                with recorder.span(spans_module.ROOT):
                    yield
        for name, value in session.registry.counters().items():
            self.counters[name] += value

    @property
    def spans(self) -> list:
        return self.instrumentation.recorder.spans

    def layer_samples(self, bytes_metric: str, bytes_written: int) -> Dict[str, float]:
        """This round's per-layer values, and its attribution identity."""
        spans = self.spans
        selfs = spans_module.layer_self_times(spans)
        wall = sum(end - start for name, start, end, parent in spans if parent < 0)
        values = {metric: selfs.get(span, 0.0) for metric, span in SPAN_LAYERS.items()}
        values["obs.unattributed_frac"] = selfs.get(spans_module.ROOT, 0.0) / wall
        values["attribution_residual_s"] = sum(selfs.values()) - wall
        values["traced_wall_s"] = wall
        for name in ("solver", "array", "clocktree", "des"):
            values[f"engines.{name}.calls"] = float(
                len(spans_module.call_durations(spans, f"engines.{name}"))
            )
        counts = self.instrumentation.recorder.counts
        for name in SPAN_COUNTS:
            values[name] = counts.get(name, 0.0)
        for name in OBS_COUNTERS:
            values[name] = self.counters.get(name, 0.0)
        for name in BYTES_METRICS:
            values[name] = float(bytes_written) if name == bytes_metric else 0.0
        events = values["des.events_processed"]
        values["engines.des.us_per_event"] = (
            values["engines.des.busy_s"] / events * 1e6 if events else 0.0
        )
        return values


def scratch_dir(root: Path) -> Path:
    """A fresh scratch directory of this run under ``.perfbench/tmp``."""
    parent = root / ".perfbench" / "tmp"
    parent.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(dir=parent))


def remove_scratch(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()  # only when no other run is using it
    except OSError:
        pass


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(
    root: Path,
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    probes: int = PROBES,
) -> Dict[str, Any]:
    """Run one workload for ``seconds`` and return the full result."""
    benchmark = load_json(root / "BENCHMARK.json")
    digests = load_json(root / "perfbench" / "digests.json")
    workload = WORKLOADS[workload_name](seed, digests.get(workload_name))
    probe_reports = run_probes(root, workload_name, seed, probes) if probes else []
    workload.warm_up()
    tmp = scratch_dir(root)

    host = HostClock()
    untraced: List[Round] = []
    traced_rounds: List[Tuple[Round, TracedRound]] = []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        if trace and len(traced_rounds) < len(untraced):
            traced = TracedRound(workload.targets)
            traced_rounds.append((workload.run_round(tmp, span=traced.timed), traced))
        else:
            with host.running():
                untraced.append(workload.run_round(tmp, clock=host.now))
        # Stop when another round would end further past the deadline than
        # stopping now falls short of it.
        now = time.perf_counter()
        enough = untraced and (traced_rounds or not trace)
        if enough and deadline - now < (now - started) / 2:
            break
    rss_mb = peak_rss_mb()
    contract = workload.check_contract()
    remove_scratch(tmp)

    checked = untraced + [current for current, _ in traced_rounds] + [contract]
    attempted = sum(item.attempted for item in checked)
    failed = sum(item.failed for item in checked)
    problems = [problem for item in checked for problem in item.problems]

    samples: Dict[str, Any] = {}
    metrics: Dict[str, Dict[str, Any]] = {}

    def report(name: str, values: List[float], section: str = "", tail: bool = False) -> None:
        """Store a summary of ``values`` and publish its median as metric ``name``.

        With ``tail`` the median and the tail go out as ``name_p50`` and
        ``name_tail`` instead.
        """
        holder = samples.setdefault(section, {}) if section else samples
        path = f"samples.{section}.{name}" if section else f"samples.{name}"
        if not values:
            problems.append(f"no samples for {name}")
            return
        holder[name] = summarize(values)
        published = {name + "_p50": "median", name + "_tail": "tail"} if tail else {name: "median"}
        for metric, stat in published.items():
            metrics[metric] = {"value": holder[name][stat], "from": path, "stat": stat}

    if probe_reports:
        report("setup_s", [item["setup_s"] for item in probe_reports])
        report("setup_wall_s", [item["setup_wall_s"] for item in probe_reports], section="host")
        report("process.import_s", [item["import_s"] for item in probe_reports], section="layers")
    # Laps are in reference seconds (hexbench.hostclock); each lap's median
    # over the rounds drops the rounds a stall or a slow tick hit.
    timed = [current for current in untraced if current.resume_s is not None]
    if timed:
        samples["fresh_pass"] = lap_estimate([current.fresh_laps for current in timed], workload.fresh_units)
        samples["resume_pass"] = lap_estimate([laps for current in timed for laps in current.resume_laps])
        for name, block, stat, scale in (
            ("tasks_per_s", "fresh_pass", "rate", 1),
            ("pulses_per_s", "fresh_pass", "rate", workload.pulses_per_unit),
            ("resume_s", "resume_pass", "pass_s", 1),
        ):
            metrics[name] = {"value": samples[block][stat] * scale, "from": f"samples.{block}",
                             "stat": stat, "scale": scale}
    else:
        problems.append("no round completed")
    metrics["peak_rss_mb"] = {"value": rss_mb}
    if host.kernel_samples:
        report("kernel_s", host.kernel_samples, section="host")

    attribution = []
    if trace:
        per_round = [
            traced.layer_samples(workload.bytes_metric, current.bytes_written)
            for current, traced in traced_rounds
        ]
        attribution = [
            {key: values[key] for key in ("traced_wall_s", "attribution_residual_s", "obs.unattributed_frac")}
            for values in per_round
        ]
        for name in per_round[0]:
            if name in ("traced_wall_s", "attribution_residual_s"):
                continue
            report(name, [values[name] for values in per_round], section="layers")
        for name in ("solver", "array", "clocktree", "des"):
            durations = [
                duration * 1e3
                for _, traced in traced_rounds
                for duration in spans_module.call_durations(traced.spans, f"engines.{name}")
            ]
            report(f"engines.{name}.call_ms", durations or [0.0], section="calls", tail=True)
        round_walls = {
            "untraced": [current.run_s + current.resume_s
                         for current in untraced
                         if current.run_s is not None and current.resume_s is not None],
            "traced": [values["traced_wall_s"] for values in per_round],
        }
        samples["round_s"] = {key: summarize(values) for key, values in round_walls.items() if values}
        if len(samples["round_s"]) == 2:
            metrics["obs.tracing_overhead_frac"] = {
                "value": samples["round_s"]["traced"]["median"]
                / samples["round_s"]["untraced"]["median"] - 1.0
            }
        for values in attribution:
            if abs(values["attribution_residual_s"]) > 1e-6:
                problems.append(f"attribution does not close: residual {values['attribution_residual_s']!r} s")

    result = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": provenance(root, seed),
        "rounds": {
            "untraced": len(untraced),
            "traced": len(traced_rounds),
        },
        "attribution": attribution,
        "samples": samples,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems,
        "benchmark": benchmark,
    }
    result["self_check"] = verify_result(result)
    result["spans"] = [
        {"round": index, "spans": traced.spans} for index, (_, traced) in enumerate(traced_rounds)
    ]
    return result


def final_line(result: Dict[str, Any]) -> Dict[str, Any]:
    """The one-line JSON the benchmark prints last."""
    benchmark = result["benchmark"]
    declared = benchmark["per_layer"] if result["trace"] else benchmark["end_to_end"]
    missing = [metric["name"] for metric in declared if metric["name"] not in result["metrics"]]
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json were not measured: {missing}")
    metrics = {
        metric["name"]: {"value": result["metrics"][metric["name"]]["value"], "unit": metric["unit"]}
        for metric in declared
    }
    return {
        "correct": result["failed"] == 0 and not result["self_check"] and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def write_result(root: Path, result: Dict[str, Any]) -> Path:
    out = root / ".perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def main(argv: Optional[List[str]], root: Path, started: float) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one benchmark workload, check its outputs and print its metrics.",
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help="run one round at the given seed and print its output digests "
        "(the content of perfbench/digests.json for the default seed)",
    )
    args = parser.parse_args(argv)
    if args.probe:
        return probe_main(root, args.workload, args.seed, started)
    if args.record_digests:
        workload = WORKLOADS[args.workload](args.seed)
        tmp = scratch_dir(root)
        current = workload.run_round(tmp)
        remove_scratch(tmp)
        print(json.dumps({args.workload: current.digests}, indent=1, sort_keys=True))
        return 0 if not current.failed else 1

    result = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    path = write_result(root, result)
    line = final_line(result)
    print(f"{args.workload} seed {args.seed}: {result['rounds']['untraced']} untraced and "
          f"{result['rounds']['traced']} traced rounds; result in {path.relative_to(root)}")
    for name, metric in line["metrics"].items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"  error_rate {result['error_rate']:.4g} ({result['failed']} of {result['attempted']} failed)")
    for problem in result["problems"][:10] + result["self_check"][:10]:
        print(f"  problem: {problem}")
    print(json.dumps(line), flush=True)
    return 0
