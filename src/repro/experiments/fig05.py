"""Fig. 5: a deterministic worst-case pulse wave.

The construction makes everything in and left of column 8 fast (delays ``d-``),
everything right of it slow (delays ``d+`` plus ramped layer-0 times), and
kills column 16 so the two halves cannot short-circuit around the cylinder.
The measured quantity is the skew between the focus columns (8 and 9) at the
top layer, which should approach the Lemma 4 bound for the construction's
effective skew potential -- far above the average skews of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.bounds import lemma4_intra_layer_bound, skew_potential
from repro.core.parameters import TimingConfig
from repro.core.pulse_solver import PulseSolution
from repro.core.worstcase import WorstCaseConstruction, fig5_worst_case_wave
from repro.engines import get_engine
from repro.experiments.report import format_kv

__all__ = ["Fig5Result", "run"]


@dataclass
class Fig5Result:
    """Outcome of the Fig. 5 worst-case construction.

    Attributes
    ----------
    construction:
        The grid / delays / faults used.
    solution:
        The resulting pulse wave.
    focus_skew:
        Measured skew between the two focus columns at the top layer.
    average_skew:
        Average intra-layer skew of the same wave away from the split, for
        contrast.
    lemma4_bound:
        The Lemma 4 bound evaluated with the construction's layer-0 skew
        potential (the value the construction tries to approach).
    """

    construction: WorstCaseConstruction
    solution: PulseSolution
    focus_skew: float
    average_skew: float
    lemma4_bound: float

    def summary(self) -> Dict[str, float]:
        """Key numbers of the experiment."""
        return {
            "focus_skew": self.focus_skew,
            "lemma4_bound": self.lemma4_bound,
            "bound_utilisation": self.focus_skew / self.lemma4_bound,
            "average_skew": self.average_skew,
        }

    def render(self) -> str:
        """Text rendering."""
        return format_kv(self.summary(), title="Fig. 5 worst-case wave")


def run(timing: Optional[TimingConfig] = None, layers: int = 16) -> Fig5Result:
    """Build and evaluate the Fig. 5 worst-case construction."""
    timing = timing if timing is not None else TimingConfig.paper_defaults()
    construction = fig5_worst_case_wave(timing, layers=layers)
    solution = get_engine("solver").single_pulse(
        construction.grid,
        timing,
        construction.layer0_times,
        delays=construction.delays,
        fault_model=construction.fault_model,
    ).solution
    left, right = construction.focus_columns  # type: ignore[misc]
    top = construction.grid.layers
    focus_skew = abs(
        solution.trigger_time((top, left)) - solution.trigger_time((top, right))
    )

    # Average intra-layer skew over the fast half (columns 0..left-1).
    times = solution.trigger_times
    diffs = []
    for column in range(0, left - 1):
        column_skew = np.abs(times[1:, column] - times[1:, column + 1])
        diffs.append(column_skew[np.isfinite(column_skew)])
    average_skew = float(np.concatenate(diffs).mean()) if diffs else float("nan")

    delta0 = skew_potential(construction.layer0_times, timing.d_min)
    bound = lemma4_intra_layer_bound(
        timing, layer=top, base_layer=0, base_skew_potential=delta0
    )
    return Fig5Result(
        construction=construction,
        solution=solution,
        focus_skew=focus_skew,
        average_skew=average_skew,
        lemma4_bound=bound,
    )
