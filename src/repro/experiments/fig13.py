"""Fig. 13: pulse propagation with one Byzantine node at (1, 19), scenario (i).

The paper's figure shows a single run in which the node ``(1, 19)`` sends a
constant 1 to its left and right neighbours and a constant 0 to both
upper-layer neighbours.  The observation to reproduce is fault locality: the
skew increase emanating from the faulty node fades with the distance from the
fault location.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.analysis.locality import skew_vs_distance
from repro.analysis.skew import SkewStatistics
from repro.clocksource.scenarios import Scenario, scenario_layer0_times
from repro.core.pulse_solver import PulseSolution
from repro.core.topology import Direction, NodeId
from repro.engines import get_engine
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import format_kv
from repro.faults.models import FaultModel, LinkBehavior, NodeFault

__all__ = ["Fig13Result", "run", "FAULT_NODE", "SCENARIO"]

#: Position of the Byzantine node in the paper's figure.
FAULT_NODE: NodeId = (1, 19)

#: Which scenario this figure uses.
SCENARIO = Scenario.ZERO


@dataclass
class Fig13Result:
    """A single faulty pulse wave plus fault-locality metrics."""

    config: ExperimentConfig
    solution: PulseSolution
    fault_model: FaultModel
    skew_profile: Dict[int, float]

    def summary(self) -> Dict[str, float]:
        """Skew near the fault vs far away, plus overall statistics."""
        stats = SkewStatistics.from_times(
            self.solution.trigger_times, self.fault_model.correctness_mask()
        )
        near = self.skew_profile.get(1, float("nan"))
        far_values = [
            value
            for distance, value in self.skew_profile.items()
            if distance >= 3 and np.isfinite(value)
        ]
        far = max(far_values) if far_values else float("nan")
        return {
            "max_intra_skew": stats.intra_max,
            "max_inter_skew": stats.inter_max,
            "max_skew_at_distance_1": near,
            "max_skew_at_distance_ge_3": far,
        }

    def render(self) -> str:
        """Text rendering."""
        return format_kv(self.summary(), title="Fig. 13: one Byzantine node at (1, 19)")


def run(
    config: Optional[ExperimentConfig] = None, seed_salt: int = 1300
) -> Fig13Result:
    """Regenerate the Fig. 13 wave with the paper's exact fault behaviour."""
    config = config if config is not None else ExperimentConfig()
    grid = config.make_grid()
    rng = config.spawn_rngs(1, salt=seed_salt)[0]

    # Constant 1 towards the left/right neighbours, constant 0 upwards.
    fault_node = grid.validate_node(FAULT_NODE)
    neighbors = grid.out_neighbors(fault_node)
    behaviors = {}
    for direction, destination in neighbors.items():
        if direction in (Direction.LEFT, Direction.RIGHT):
            behaviors[destination] = LinkBehavior.CONSTANT_ONE
        else:
            behaviors[destination] = LinkBehavior.CONSTANT_ZERO
    fault_model = FaultModel(
        grid, [NodeFault.byzantine(grid, fault_node, behaviors=behaviors)]
    )

    layer0 = scenario_layer0_times(SCENARIO, grid.width, config.timing, rng=rng)
    solution = get_engine("solver").single_pulse(
        grid, config.timing, layer0, rng=rng, fault_model=fault_model
    ).solution
    profile = skew_vs_distance(grid, solution.trigger_times, fault_model, max_distance=5)
    return Fig13Result(
        config=config, solution=solution, fault_model=fault_model, skew_profile=profile
    )
