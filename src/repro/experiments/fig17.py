"""Fig. 17: a single Byzantine node forcing ~5 d+ of skew under scenario (iv).

The deterministic construction of :func:`repro.core.worstcase.
fig17_single_byzantine_worst_case`: all delays ``d+``, layer-0 times rising by
``d+`` per column, one silent node mid-grid.  Without the fault every left-up
diagonal fires simultaneously; the fault forces its upper neighbourhood onto a
detour.  The quantities to reproduce: a maximum intra-layer skew of roughly
``5 d+`` in the fault's neighbourhood and an inter-layer skew smaller by about
``d+``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.analysis.skew import inter_layer_skews, intra_layer_skews
from repro.core.parameters import TimingConfig
from repro.core.pulse_solver import PulseSolution
from repro.core.worstcase import WorstCaseConstruction, fig17_single_byzantine_worst_case
from repro.engines import get_engine
from repro.experiments.report import format_kv

__all__ = ["Fig17Result", "run"]


@dataclass
class Fig17Result:
    """Measured skews of the Fig. 17 construction, with and without the fault."""

    construction: WorstCaseConstruction
    with_fault: PulseSolution
    without_fault: PulseSolution
    max_intra_skew: float
    max_inter_skew: float
    fault_free_max_intra_skew: float

    def summary(self) -> Dict[str, float]:
        """Key numbers, normalised by ``d+`` for direct comparison with the figure."""
        d_max = self.construction.timing.d_max
        return {
            "max_intra_skew": self.max_intra_skew,
            "max_intra_skew_in_dmax": self.max_intra_skew / d_max,
            "max_inter_skew": self.max_inter_skew,
            "max_inter_skew_in_dmax": self.max_inter_skew / d_max,
            "intra_minus_inter_in_dmax": (self.max_intra_skew - self.max_inter_skew) / d_max,
            "fault_free_max_intra_skew": self.fault_free_max_intra_skew,
        }

    def render(self) -> str:
        """Text rendering."""
        return format_kv(self.summary(), title="Fig. 17: single-fault worst case, scenario (iv)")


def run(timing: Optional[TimingConfig] = None) -> Fig17Result:
    """Build and evaluate the Fig. 17 construction."""
    timing = timing if timing is not None else TimingConfig.paper_defaults()
    construction = fig17_single_byzantine_worst_case(timing)
    grid = construction.grid

    solver = get_engine("solver")
    with_fault, without_fault = (
        solver.single_pulse(
            grid,
            timing,
            construction.layer0_times,
            delays=construction.delays,
            fault_model=fault_model,
        ).solution
        for fault_model in (construction.fault_model, construction.reference_fault_model)
    )

    # Restrict the measurement to a window of columns around the fault: the
    # monotone layer-0 ramp used by the construction has a huge artificial
    # skew where the cylinder wraps around (between columns W-1 and 0), which
    # is irrelevant to the single-fault effect the figure illustrates.
    fault_layer, fault_column = construction.focus_node  # type: ignore[misc]
    window = 5
    columns = [
        column
        for column in range(fault_column - window, fault_column + window)
        if 0 <= column < grid.width - 1
    ]

    mask = construction.fault_model.correctness_mask()
    reference_mask = (
        construction.reference_fault_model.correctness_mask()
        if construction.reference_fault_model is not None
        else None
    )
    intra = intra_layer_skews(with_fault.trigger_times, mask)[1:, columns]
    inter = inter_layer_skews(with_fault.trigger_times, mask)[1:, columns, :]
    intra_ff = intra_layer_skews(without_fault.trigger_times, reference_mask)[1:, columns]

    return Fig17Result(
        construction=construction,
        with_fault=with_fault,
        without_fault=without_fault,
        max_intra_skew=float(np.nanmax(intra)),
        max_inter_skew=float(np.nanmax(np.abs(inter))),
        fault_free_max_intra_skew=float(np.nanmax(intra_ff)),
    )
