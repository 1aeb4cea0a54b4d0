"""Statistics that always recompute from the raw samples they describe.

Two kinds of block carry their raw samples:

* :func:`summarize` -- samples plus the median, quartiles and a tail
  percentile derived from them (per-call and per-round timings);
* :func:`lap_estimate` -- the lap durations of repeated identical passes
  plus the pass time built from each lap's median over the passes, and the
  rate of work it gives (throughput and resume time).

:func:`verify_result` recomputes every block of a result, so a stored
statistic can never drift away from its own samples.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, Iterator, List, Sequence, Tuple

#: Candidate tail percentiles, highest first.
TAIL_LEVELS = (0.999, 0.99, 0.9, 0.5)

#: Samples that must lie beyond a tail percentile for it to be reported.
TAIL_BEYOND = 10


def quartiles(samples: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(samples, n=4)`` gives them.

    A single sample is its own quartiles (``statistics.quantiles`` needs two).
    """
    values = [float(value) for value in samples]
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """``(level, value, beyond)``: the highest percentile with enough samples past it.

    The level is the highest of :data:`TAIL_LEVELS` with at least
    :data:`TAIL_BEYOND` samples strictly above its rank; with too few samples
    for any of them the maximum is reported at level ``1.0``.  The value is
    the sample at that rank (nearest-rank, no interpolation).
    """
    values = sorted(float(value) for value in samples)
    if not values:
        raise ValueError("no samples")
    count = len(values)
    for level in TAIL_LEVELS:
        rank = min(count - 1, max(0, int(level * count + 0.5) - 1))
        beyond = count - 1 - rank
        if beyond >= TAIL_BEYOND:
            return level, values[rank], beyond
    return 1.0, values[-1], 0


def summarize(samples: Sequence[float]) -> Dict[str, Any]:
    """Raw samples plus the statistics derived from them."""
    values = [float(value) for value in samples]
    q1, median, q3 = quartiles(values)
    level, value, beyond = tail(values)
    return {
        "samples": values,
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "tail_level": level,
        "tail": value,
        "tail_beyond": beyond,
    }


def lap_estimate(passes: Sequence[Sequence[float]], work: float = 1.0) -> Dict[str, Any]:
    """Time of one pass, built lap by lap from repeated identical passes.

    ``passes`` holds one list of lap durations per pass; lap ``i`` is the
    same stretch of work in every pass.  Each lap's time is the median of
    its durations, and the pass time is their sum; ``rate`` is ``work`` per
    pass time.
    """
    laps = [[float(value) for value in durations] for durations in passes]
    if not laps or len({len(durations) for durations in laps}) != 1:
        raise ValueError("need passes with equally many laps")
    per_lap = [statistics.median(column) for column in zip(*laps)]
    pass_s = sum(per_lap)
    return {"laps": laps, "per_lap": per_lap, "pass_s": pass_s, "work": work, "rate": work / pass_s}


def verify_summary(summary: Dict[str, Any]) -> List[str]:
    """Mismatches between a summary's statistics and its own raw samples."""
    expected = summarize(summary["samples"])
    return [
        f"{key}: stored {summary.get(key)!r}, recomputed {value!r}"
        for key, value in expected.items()
        if summary.get(key) != value
    ]


def verify_block(block: Dict[str, Any]) -> List[str]:
    """Mismatches between a block's statistics and its own raw samples."""
    if "laps" in block:
        expected = lap_estimate(block["laps"], block["work"])
        return [
            f"{key}: stored {block.get(key)!r}, recomputed {value!r}"
            for key, value in expected.items()
            if block.get(key) != value
        ]
    return verify_summary(block)


def iter_summaries(node: Any, path: str = "") -> Iterator[Tuple[str, Dict[str, Any]]]:
    """Every block carrying raw samples (a summary or a lap estimate) inside a result."""
    if isinstance(node, dict):
        if any(isinstance(node.get(key), list) for key in ("samples", "laps")):
            yield path, node
            return
        for key, value in node.items():
            yield from iter_summaries(value, f"{path}.{key}" if path else str(key))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from iter_summaries(value, f"{path}[{index}]")


def verify_result(result: Dict[str, Any]) -> List[str]:
    """Every statistic of a result that does not recompute from its samples.

    Also checks that each reported metric value equals the statistic
    (``metrics[name]["stat"]``, the median by default) of the summary it
    names (``metrics[name]["from"]``).
    """
    problems = [
        f"{path}: {problem}"
        for path, block in iter_summaries(result)
        for problem in verify_block(block)
    ]
    summaries = dict(iter_summaries(result.get("samples", {}), "samples"))
    for name, metric in result.get("metrics", {}).items():
        source = metric.get("from")
        if source is None:
            continue
        stat = metric.get("stat", "median")
        summary = summaries.get(source)
        if summary is None:
            problems.append(f"metric {name}: no summary at {source}")
        elif metric["value"] != summary[stat] * metric.get("scale", 1):
            problems.append(
                f"metric {name}: value {metric['value']!r} is not the {stat} "
                f"{summary[stat]!r} of {source} times {metric.get('scale', 1)!r}"
            )
    return problems
