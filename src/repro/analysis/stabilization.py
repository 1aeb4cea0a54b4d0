"""Pulse assignment and stabilization-time estimation (Section 4.4).

The self-stabilization experiments start every node in an arbitrary state and
let the layer-0 sources generate a sequence of pulses.  Post-processing then

1. assigns each recorded firing to a pulse number (easy thanks to the large
   pulse separation ``S``: a firing belongs to pulse ``k`` if it falls into the
   window between the earliest layer-0 generation of pulse ``k`` and that of
   pulse ``k + 1``), and
2. estimates the *stabilization time* as the minimal pulse ``k`` such that from
   pulse ``k`` on every correct forwarding node fires exactly once per pulse
   and the per-layer intra- and inter-layer skews stay below the a-priori
   chosen bounds ``sigma(f, l)`` resp. ``sigma-hat(f, l) = sigma(f, l) + d+``.

The per-layer skew bound ``sigma(f, l)`` is parameterised by the paper's
``C in {0, 1, 2, 3}`` choices (see
:func:`repro.core.bounds.stable_skew_choice`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.analysis.skew import inter_layer_skews, intra_layer_skews
from repro.core.topology import HexGrid

__all__ = [
    "PulseAssignment",
    "assign_pulses",
    "pulse_window_starts",
    "pulse_skew_ok",
    "stabilization_time",
]


@dataclass
class PulseAssignment:
    """Firings of a multi-pulse run, binned by pulse number.

    Attributes
    ----------
    times:
        Array of shape ``(num_pulses, L + 1, W)``: the firing time assigned to
        each node for each pulse, or ``nan`` when the node did not fire exactly
        once within the pulse's window (faulty nodes are always ``nan``).
    counts:
        Integer array of the same shape: how many firings fell into the window
        (faulty nodes carry 0).
    window_starts:
        The window boundaries used for binning (length ``num_pulses``); window
        ``k`` is ``[window_starts[k], window_starts[k + 1])`` with the last
        window extending to infinity.
    """

    times: np.ndarray
    counts: np.ndarray
    window_starts: np.ndarray

    @property
    def num_pulses(self) -> int:
        """Number of pulses."""
        return int(self.times.shape[0])

    def spurious_firings_before_first_pulse(self) -> int:
        """Number of firings that occurred before the first pulse window.

        These stem from arbitrary initial states (nodes whose initial flags
        already satisfied a guard); they are not assigned to any pulse.
        """
        return int(self._early_firings)

    _early_firings: int = 0


def pulse_window_starts(schedule: np.ndarray) -> np.ndarray:
    """The pulse-window boundaries of a ``(num_pulses, W)`` source schedule.

    The window of pulse ``k`` starts at the earliest layer-0 generation time
    of pulse ``k`` and runs up to the start of pulse ``k + 1`` (the last
    window extends to infinity).  Raises ``ValueError`` when the starts are
    not strictly increasing, since the binning would then be ambiguous.
    """
    window_starts = np.nanmin(schedule, axis=1).astype(float)
    if not np.all(np.diff(window_starts) > 0):
        raise ValueError("source schedule windows are not strictly increasing")
    return window_starts


def assign_pulses(result) -> PulseAssignment:
    """Bin the firings of a multi-pulse run by pulse number.

    ``result`` is a multi-pulse :class:`~repro.engines.base.RunResult`.
    Firings are binned by :func:`pulse_window_starts` (firings of layer-0
    sources themselves are assigned by their scheduled pulse index, which is
    exact by construction).
    """
    grid: HexGrid = result.grid
    window_starts = pulse_window_starts(result.source_schedule)
    num_pulses = window_starts.size

    shape = (num_pulses, grid.layers + 1, grid.width)
    times = np.full(shape, np.nan, dtype=float)
    counts = np.zeros(shape, dtype=int)
    early = 0

    fault_model = result.fault_model
    for node, firings in result.firing_times.items():
        layer, column = node
        if fault_model is not None and fault_model.is_faulty(node):
            continue
        for fire_time in firings:
            if fire_time < window_starts[0]:
                early += 1
                continue
            pulse = int(np.searchsorted(window_starts, fire_time, side="right")) - 1
            counts[pulse, layer, column] += 1
            if counts[pulse, layer, column] == 1:
                times[pulse, layer, column] = fire_time
            else:
                # More than one firing in the window: ambiguous, drop the time.
                times[pulse, layer, column] = np.nan

    assignment = PulseAssignment(times=times, counts=counts, window_starts=window_starts)
    assignment._early_firings = early
    return assignment


def pulse_skew_ok(
    grid: HexGrid,
    pulse_times: np.ndarray,
    pulse_counts: np.ndarray,
    correct_mask: np.ndarray,
    intra_bound: Callable[[int], float],
    inter_bound: Callable[[int], float],
) -> bool:
    """Whether one pulse satisfies the per-layer skew bounds.

    Parameters
    ----------
    pulse_times, pulse_counts:
        The ``(L + 1, W)`` slices of a :class:`PulseAssignment` for one pulse.
    correct_mask:
        ``True`` where the node is correct.
    intra_bound, inter_bound:
        Per-layer bounds ``sigma(f, l)`` and ``sigma-hat(f, l)`` (callables of
        the layer index).

    A pulse qualifies if every correct forwarding node fired exactly once in
    the pulse window, every intra-layer neighbour skew of layer ``l`` is at
    most ``intra_bound(l)``, and every (absolute) inter-layer skew of layer
    ``l`` is at most ``inter_bound(l)``.
    """
    forwarding_mask = correct_mask.copy()
    forwarding_mask[0, :] = False
    if not np.all(pulse_counts[forwarding_mask] == 1):
        return False

    wrap = bool(getattr(grid, "column_wrap", True))
    intra = intra_layer_skews(pulse_times, correct_mask, wrap=wrap)
    inter = inter_layer_skews(pulse_times, correct_mask, wrap=wrap)
    for layer in range(1, grid.layers + 1):
        layer_intra = intra[layer, :]
        layer_intra = layer_intra[np.isfinite(layer_intra)]
        if layer_intra.size and float(layer_intra.max()) > intra_bound(layer) + 1e-9:
            return False
        layer_inter = np.abs(inter[layer, :, :].ravel())
        layer_inter = layer_inter[np.isfinite(layer_inter)]
        if layer_inter.size and float(layer_inter.max()) > inter_bound(layer) + 1e-9:
            return False
    return True


def stabilization_time(
    result,
    intra_bound: Callable[[int], float],
    inter_bound: Optional[Callable[[int], float]] = None,
    assignment: Optional[PulseAssignment] = None,
) -> Optional[int]:
    """Estimate the stabilization time of a multi-pulse run.

    Parameters
    ----------
    result:
        The multi-pulse :class:`~repro.engines.base.RunResult`.
    intra_bound:
        The per-layer stable-skew bound ``sigma(f, l)`` (callable of the layer).
    inter_bound:
        The per-layer inter-layer bound ``sigma-hat(f, l)``; defaults to
        ``sigma(f, l) + d+`` per Theorem 1's inter-layer relation.
    assignment:
        Re-use a precomputed :func:`assign_pulses` result.

    Returns
    -------
    Optional[int]
        The 1-based index of the first pulse from which on *all* observed
        pulses satisfy the bounds, or ``None`` if the run did not stabilize
        within the observed pulses.  A return value of 1 means the system was
        within bounds from the very first pulse, matching the paper's reading
        of Figs. 18/19.
    """
    if inter_bound is None:
        d_max = result.timing.d_max

        def inter_bound(layer: int, _d_max: float = d_max) -> float:  # type: ignore[misc]
            return intra_bound(layer) + _d_max

    if assignment is None:
        assignment = assign_pulses(result)
    grid = result.grid
    correct_mask = (
        result.fault_model.correctness_mask()
        if result.fault_model is not None
        else np.ones(grid.shape, dtype=bool)
    )
    # Structurally absent or unreachable nodes (degraded-topology holes and
    # the guard-deadlocked nodes above them) never fire and must not be
    # required to; the criterion judges the live part of the fabric.
    correct_mask &= grid.pulse_reachable_mask()

    ok = np.zeros(assignment.num_pulses, dtype=bool)
    for pulse in range(assignment.num_pulses):
        ok[pulse] = pulse_skew_ok(
            grid,
            assignment.times[pulse],
            assignment.counts[pulse],
            correct_mask,
            intra_bound,
            inter_bound,
        )
    # The stabilization time is the first pulse after the last violating pulse.
    violations = np.where(~ok)[0]
    if violations.size == 0:
        return 1
    first_stable = int(violations[-1]) + 1
    if first_stable >= assignment.num_pulses:
        return None
    return first_stable + 1
