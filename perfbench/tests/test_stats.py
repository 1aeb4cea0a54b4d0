"""Reported statistics recompute from the raw samples stored beside them."""

import statistics

import pytest

from hexbench.stats import lap_estimate, quartiles, summarize, tail, verify_result, verify_summary


def test_quartiles_are_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)


@pytest.mark.parametrize(
    "count, level, beyond",
    [(5, 1.0, 0), (19, 1.0, 0), (20, 0.5, 10), (100, 0.9, 10), (1000, 0.99, 10), (20000, 0.999, 20)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count, level, beyond):
    values = list(range(count))
    found_level, value, found_beyond = tail(values)
    assert (found_level, found_beyond) == (level, beyond)
    assert sum(v > value for v in values) == found_beyond


def test_a_summary_recomputes_and_a_drifted_statistic_is_caught():
    summary = summarize([0.0179, 0.0097, 0.0101, 0.0120, 0.0099])
    assert verify_summary(summary) == []
    summary["median"] = 0.0179  # a median kept from older samples
    assert any(problem.startswith("median") for problem in verify_summary(summary))


def test_verify_result_checks_metrics_against_their_summaries():
    result = {
        "samples": {"layers": {"x_s": summarize([1.0, 2.0, 3.0])}},
        "metrics": {
            "x_s": {"value": 2.0, "from": "samples.layers.x_s", "stat": "median"},
            "x_tail": {"value": 3.0, "from": "samples.layers.x_s", "stat": "tail"},
            "ratio": {"value": 0.5},
        },
    }
    assert verify_result(result) == []
    result["metrics"]["x_s"]["value"] = 2.5
    assert len(verify_result(result)) == 1
    result["samples"]["layers"]["x_s"]["samples"].append(10.0)
    assert len(verify_result(result)) > 1


def test_a_lap_estimate_sums_each_laps_median_and_recomputes():
    # Three passes of two laps; a stall hit the first lap of the third pass.
    block = lap_estimate([[1.0, 2.0], [1.0, 2.2], [3.0, 1.8]], work=150)
    assert block["per_lap"] == [1.0, 2.0]
    assert block["pass_s"] == 3.0 and block["rate"] == 50.0
    result = {"samples": {"fresh_pass": block},
              "metrics": {"tasks_per_s": {"value": 50.0, "from": "samples.fresh_pass", "stat": "rate"},
                          "pulses_per_s": {"value": 100.0, "from": "samples.fresh_pass",
                                           "stat": "rate", "scale": 2}}}
    assert verify_result(result) == []
    block["laps"][0][0] = 2.5  # moves the first lap's median
    assert verify_result(result)
    with pytest.raises(ValueError):
        lap_estimate([[1.0, 2.0], [1.0]])
