"""Every registered bench case as an (opt-in) pytest test.

The benchmark logic itself -- workloads, repeat counts, quick-mode shrink,
shape checks, headline numbers -- lives in the :mod:`repro.bench.suites`
case definitions; this module parametrizes one test over the whole registry,
so ``pytest benchmarks/ -m bench --collect-only`` lists exactly the cases of
``hex-repro bench --list``.  Each test merges its timing record into
``BENCH_<suite>.json`` (honouring ``BENCH_OUT``, defaulting to the repo
root), so ``pytest benchmarks/ -m bench`` regenerates the same artifacts as
``hex-repro bench``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.bench import (
    BenchSettings,
    available_suites,
    cases_in_suite,
    get_case,
    load_builtin_suites,
    merge_case_result,
    run_case,
)

#: Default artifact directory of these tests (the repo root).
REPO_ROOT = Path(__file__).resolve().parent.parent

load_builtin_suites()
CASES = [(suite, case.name) for suite in available_suites() for case in cases_in_suite(suite)]


# The bench marker comes from the conftest collection hook, which marks every
# test under benchmarks/ -- one mechanism, no duplicate marking.
@pytest.mark.parametrize(("suite", "name"), CASES, ids=[f"{s}/{n}" for s, n in CASES])
def test_bench_case(suite: str, name: str, bench_settings: BenchSettings) -> None:
    """Time one case through the harness, run its shape checks, merge the record."""
    result = run_case(get_case(suite, name), bench_settings)
    out_dir = Path(os.environ.get("BENCH_OUT") or REPO_ROOT)
    merge_case_result(out_dir, suite, bench_settings, result)
    print(
        f"\n[{suite}/{name}] median {result.stats['median_s']:.3f}s "
        f"over {len(result.times_s)} repeat(s); info: {result.info}"
    )
