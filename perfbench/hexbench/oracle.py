"""Output checks behind the benchmark's failure count.

Three independent checks, none of them timed:

* **digests** -- every single-pulse record hashes (:func:`record_digest`)
  to the digest committed in ``perfbench/digests.json`` for the default
  seed, and to the digest of the same task in the run's first round on any
  seed; a soak round's ``state_key`` is compared the same way;
* **paper bounds** -- on any seed, every HEX record meets the
  :mod:`repro.core.bounds` guarantees that apply to it: no node triggers
  before ``l d-`` after layer 0 on any topology; on the cylinder, where the
  paper proves them, Lemma 5's triggering window and pulse skew and, without
  faults, Theorem 1's intra- and inter-layer bounds;
* **exactness contract** -- sampled tasks are re-checked against the heap
  solver wherever an engine's declared contract
  (:attr:`repro.engines.base.EngineCapabilities.exactness`) promises
  agreement: bit-identical trigger times inside the ``exact_when`` regime,
  the delay envelope scaled by ``tolerance`` outside it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from typing import List

import numpy as np

from repro.core.bounds import (
    lemma5_pulse_skew_bound,
    skew_potential,
    theorem1_inter_layer_bounds,
    theorem1_intra_layer_bound,
)
from repro.core.parameters import TimingConfig
from repro.engines import get_engine
from repro.engines.array import delay_envelope

#: Absolute slack on every bound comparison (float rounding of the sums).
SLACK = 1e-9


def record_digest(record) -> str:
    """Digest of a record's canonical content (wall time excluded).

    The dense arrays enter as their float64 bytes (every NaN made the same
    NaN, as the canonical JSON's ``"NaN"`` sentinel does) rather than as JSON
    text, which is 30x cheaper on a 512x512 die; the rest of the record
    enters as its canonical JSON.
    """
    digest = hashlib.sha256()
    for value in (record.trigger_times, record.layer0_times):
        if value is not None:
            array = np.asarray(value, dtype=np.float64)
            array = np.where(np.isnan(array), np.nan, array)
            digest.update(repr(array.shape).encode("ascii"))
            digest.update(array.tobytes())
    rest = dataclasses.replace(record, trigger_times=None, layer0_times=None)
    digest.update(rest.canonical_json().encode("utf-8"))
    return digest.hexdigest()[:16]


def bound_violations(record, timing: TimingConfig) -> List[str]:
    """The paper bounds a single-pulse record breaks (empty when it meets them)."""
    times = record.trigger_matrix()
    if record.params["engine"] == "clocktree":
        # An H-tree is not a HEX grid: no HEX bound applies, only sanity.
        if not np.all(np.isfinite(times)) or np.any(times < 0):
            return ["clock-tree sink arrival times must be finite and non-negative"]
        return []
    grid = record.make_grid()
    correct = grid.presence_mask().astype(bool)
    for layer, column in record.faulty_nodes:
        correct[layer, column] = False
    problems = []
    if not np.all(np.isfinite(times[correct])):
        problems.append("a correct node never triggered")
        return problems
    layer0 = times[0][correct[0]]
    if not np.array_equal(times[0], np.asarray(record.layer0_times, dtype=float), equal_nan=True):
        problems.append("layer-0 row differs from the recorded layer-0 times")
    t_min, t_max = float(layer0.min()), float(layer0.max())
    # Every path from layer 0 to layer l takes at least l upward links of at
    # least d- each, on any topology.
    for layer in range(1, grid.layers + 1):
        row = times[layer][correct[layer]]
        if row.size and row.min() < t_min + layer * timing.d_min - SLACK:
            problems.append(f"layer {layer} triggered before its first possible arrival")
    if record.params.get("topology", "cylinder") != "cylinder":
        # The paper proves its upper bounds on the cylinder only: rim and
        # hole nodes elsewhere trigger laterally, falling behind layer by layer.
        return problems
    # Lemma 5 (faults placed under Condition 1).
    faults = len(record.faulty_nodes)
    spread_bound = lemma5_pulse_skew_bound(timing, grid.layers, faults, layer0_spread=t_max - t_min)
    for layer in range(1, grid.layers + 1):
        row = times[layer][correct[layer]]
        if row.size and row.max() > t_max + (layer + faults) * timing.d_max + SLACK:
            problems.append(f"layer {layer} triggered after the Lemma 5 window")
        if row.size and row.max() - row.min() > spread_bound + SLACK:
            problems.append(f"layer {layer} spread exceeds the Lemma 5 pulse-skew bound")
    if faults:
        return problems
    # Theorem 1 on the fault-free cylinder.
    potential = skew_potential(times[0], timing.d_min)
    neighbour = np.roll(times, -1, axis=1)
    intra = np.abs(times - neighbour)
    sigma_below = float(intra[0].max())
    for layer in range(1, grid.layers + 1):
        sigma = theorem1_intra_layer_bound(timing, grid.width, layer, potential)
        if intra[layer].max() > sigma + SLACK:
            problems.append(f"layer {layer} breaks the Theorem 1 intra-layer bound")
        low, high = theorem1_inter_layer_bounds(timing, sigma_below)
        for below in (times[layer - 1], neighbour[layer - 1]):
            step = times[layer] - below
            if step.min() < low - SLACK or step.max() > high + SLACK:
                problems.append(f"layer {layer} breaks the Theorem 1 inter-layer window")
        sigma_below = sigma
    return problems


def contract_violation(task, record) -> str:
    """Check one record against its engine's exactness contract.

    Returns an empty string when the contract holds (or claims nothing for
    this task), else a description of the disagreement.  Re-runs the task on
    the heap solver when the contract promises bit-identity.
    """
    spec = task.to_run_spec()
    capabilities = get_engine(task.engine).capabilities
    times = record.trigger_matrix()
    if task.engine != "solver" and capabilities.is_exact_for(spec):
        reference = get_engine("solver").run(spec).trigger_times
        if not np.array_equal(times, reference, equal_nan=True):
            return f"{task.engine} differs from the solver inside its bit-identical regime"
        return ""
    if capabilities.tolerance is None or task.num_faults:
        return ""
    low, high = delay_envelope(spec)
    finite = np.isfinite(low) & np.isfinite(high)
    pad = (capabilities.tolerance - 1.0) / 2.0
    slack = pad * np.where(finite, high - low, 0.0) + SLACK
    with np.errstate(invalid="ignore"):
        inside = (times >= low - slack) & (times <= high + slack)
    absent = np.isnan(times) & np.isnan(low)
    if not np.all(np.where(finite, inside, absent)):
        return f"{task.engine} leaves the {capabilities.tolerance:g}x delay envelope"
    return ""


def soak_violations(result, spec) -> List[str]:
    """Invariants of a completed soak round."""
    problems = []
    epochs = spec.num_epochs
    if result.pulses != spec.num_pulses:
        problems.append(f"soak ran {result.pulses} of {spec.num_pulses} pulses")
    if result.faults_injected != spec.faults * epochs:
        problems.append(f"{result.faults_injected} faults injected, expected {spec.faults * epochs}")
    if result.faults_healed != result.faults_injected:
        problems.append("not every injected fault healed")
    if result.recoveries > epochs:
        problems.append("more recoveries than heals")
    stats = result.skew.stats()
    if not 0 < stats["count"] <= spec.num_pulses or not math.isfinite(stats["max"]):
        problems.append("skew stream is empty or not finite")
    return problems
