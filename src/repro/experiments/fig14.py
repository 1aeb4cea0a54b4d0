"""Fig. 14: pulse propagation with five Byzantine nodes, scenario (iv).

A sample wave with five randomly placed Byzantine nodes (Condition 1 holding)
under ramped layer-0 skews.  As in Fig. 13, the point is that the individual
fault effects remain local and do not accumulate across the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.locality import skew_vs_distance
from repro.analysis.skew import SkewStatistics
from repro.clocksource.scenarios import Scenario, scenario_layer0_times
from repro.core.pulse_solver import PulseSolution
from repro.core.topology import NodeId
from repro.engines import get_engine
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import format_kv
from repro.faults.models import FaultModel, NodeFault
from repro.faults.placement import place_faults

__all__ = ["Fig14Result", "run", "NUM_FAULTS", "SCENARIO"]

#: Number of Byzantine nodes in the figure.
NUM_FAULTS = 5

#: Which scenario this figure uses.
SCENARIO = Scenario.RAMP


@dataclass
class Fig14Result:
    """A single five-fault pulse wave plus fault-locality metrics."""

    config: ExperimentConfig
    solution: PulseSolution
    fault_model: FaultModel
    skew_profile: Dict[int, float]

    @property
    def fault_positions(self) -> List[NodeId]:
        """The faulty nodes of the run."""
        return self.fault_model.faulty_nodes()

    def summary(self) -> Dict[str, float]:
        """Skew statistics and locality profile of the wave."""
        stats = SkewStatistics.from_times(
            self.solution.trigger_times, self.fault_model.correctness_mask()
        )
        far_values = [
            value
            for distance, value in self.skew_profile.items()
            if distance >= 3 and np.isfinite(value)
        ]
        return {
            "num_faults": float(self.fault_model.num_faulty_nodes),
            "max_intra_skew": stats.intra_max,
            "max_inter_skew": stats.inter_max,
            "max_skew_at_distance_1": self.skew_profile.get(1, float("nan")),
            "max_skew_at_distance_ge_3": max(far_values) if far_values else float("nan"),
            "all_correct_triggered": float(self.solution.all_triggered()),
        }

    def render(self) -> str:
        """Text rendering."""
        return format_kv(self.summary(), title="Fig. 14: five Byzantine nodes, scenario (iv)")


def run(
    config: Optional[ExperimentConfig] = None, seed_salt: int = 1400
) -> Fig14Result:
    """Regenerate the Fig. 14 wave (5 random Byzantine nodes, scenario (iv))."""
    config = config if config is not None else ExperimentConfig()
    grid = config.make_grid()
    rng = config.spawn_rngs(1, salt=seed_salt)[0]

    positions = place_faults(grid, NUM_FAULTS, rng)
    fault_model = FaultModel(
        grid, [NodeFault.byzantine(grid, node, rng=rng) for node in positions]
    )
    layer0 = scenario_layer0_times(SCENARIO, grid.width, config.timing, rng=rng)
    solution = get_engine("solver").single_pulse(
        grid, config.timing, layer0, rng=rng, fault_model=fault_model
    ).solution
    profile = skew_vs_distance(grid, solution.trigger_times, fault_model, max_distance=5)
    return Fig14Result(
        config=config, solution=solution, fault_model=fault_model, skew_profile=profile
    )
