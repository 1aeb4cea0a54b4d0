"""Batch suite: ``Engine.run_batch`` vs per-spec execution.

A serial 100-cell single-pulse sweep on the paper's 50x20 grid (25 cells
per scenario), run once through a per-spec ``engine.run()`` loop and once
through ``engine.run_batch``.  The check pins the batching contract --
results bit-identical -- and the speedup is reported, not gated: both paths
run the one plan-compiled heap sweep, so batching saves only the per-spec
grid builds and the two timings agree to within host noise.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

import numpy as np

from repro.bench.case import BenchCase, BenchSettings
from repro.bench.registry import register_case
from repro.engines import RunSpec, get_engine

SUITE = "batch"


def _sweep_specs(settings: BenchSettings) -> List[RunSpec]:
    if settings.quick:
        layers, width, cells = 20, 10, 40
    else:
        layers, width, cells = 50, 20, 100
    scenarios = ("i", "ii", "iii", "iv")
    return [
        RunSpec(
            kind="single_pulse",
            layers=layers,
            width=width,
            scenario=scenarios[index % len(scenarios)],
            entropy=2013,
            run_index=index,
        )
        for index in range(cells)
    ]


def _make(settings: BenchSettings):
    engine = get_engine("solver")
    specs = _sweep_specs(settings)
    # Warm both paths once so neither pays first-call costs inside the
    # measured region (plan compilation is part of the batch design, but the
    # comparison should not hinge on import-time effects).
    engine.run(specs[0])
    engine.run_batch(specs[:2])

    def workload() -> Dict[str, Any]:
        start = time.perf_counter()
        serial = [engine.run(spec) for spec in specs]
        serial_s = time.perf_counter() - start
        start = time.perf_counter()
        batched = engine.run_batch(specs)
        batch_s = time.perf_counter() - start
        return {
            "specs": specs,
            "serial": serial,
            "batched": batched,
            "serial_s": serial_s,
            "batch_s": batch_s,
            "speedup": serial_s / batch_s if batch_s > 0 else float("inf"),
        }

    return workload


def _check(result: Dict[str, Any], settings: BenchSettings) -> None:
    for per_spec, batched in zip(result["serial"], result["batched"]):
        assert np.array_equal(
            per_spec.trigger_times, batched.trigger_times, equal_nan=True
        )
        assert np.array_equal(per_spec.correct_mask, batched.correct_mask)
        assert np.array_equal(
            per_spec.layer0_times, batched.layer0_times, equal_nan=True
        )


def _info(result: Dict[str, Any], settings: BenchSettings) -> Dict[str, float]:
    return {
        "cells": len(result["specs"]),
        "serial_s": round(result["serial_s"], 3),
        "batch_s": round(result["batch_s"], 3),
        "speedup": round(result["speedup"], 2),
    }


register_case(
    BenchCase(
        name="run_batch",
        suite=SUITE,
        make=_make,
        repeats=3,
        quick_repeats=3,
        check=_check,
        quick_check=True,
        info=_info,
    ),
    replace=True,
)
