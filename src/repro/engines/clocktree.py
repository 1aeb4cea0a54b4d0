"""The H-tree clock-tree baseline as an execution engine.

Lets ``hex-repro sweep --engine solver,des,clocktree`` run the paper's title
comparison inside one campaign: for a spec describing an ``L x W`` HEX grid,
the engine builds an H-tree serving at least as many sinks as the grid has
nodes (same die, same technology -- the per-unit wire delay is ``d+`` for a
wire of HEX-link length and the relative delay variation is ``epsilon / d+``,
as in :func:`repro.clocktree.comparison.compare_scaling`), samples one set of
element delays from the run's generator and reports the sink arrival times as
the run's trigger matrix.

The trigger matrix is laid out on the tree's ``2^k x 2^k`` physical sink
array (rows play the role of layers), so the campaign's pooled skew
statistics measure *physically adjacent* sink skews -- the quantity the
paper's introduction compares against HEX's neighbour skew.  Tree-specific
scalars (global skew, neighbour skews, depth) are reported in
:attr:`~repro.engines.base.RunResult.metrics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from repro import obs
from repro.clocktree.delays import TreeDelayConfig, sample_delay_array
from repro.clocktree.htree import build_htree
from repro.clocktree.simulation import max_neighbor_disjoint_path, neighbor_pairs
from repro.engines.base import (
    EngineCapabilities,
    RunResult,
    RunSpec,
    generic_run_batch,
    require_kind,
    require_schedule_support,
    require_topology_support,
)

__all__ = ["ClockTreeEngine"]


@dataclass(frozen=True)
class _TreePlan:
    """The delay-independent geometry of one H-tree, as flat index arrays.

    Attributes
    ----------
    num_sinks, depth, max_disjoint_path:
        Tree scalars reported with every run.
    wire_lengths:
        Wire length of every tree edge, in child-node index order (the order
        the delays are drawn in).
    edge_nodes:
        Child-node index of every edge, in the same order.
    steps:
        Per tree level, ``(nodes, parents)`` index arrays: arrival times are
        accumulated one level at a time, top-down.
    sinks, sink_rows, sink_columns:
        Sink node indices and their coordinates on the sink array.
    pair_a, pair_b:
        Node indices of the physically adjacent sink pairs.
    """

    num_sinks: int
    depth: int
    max_disjoint_path: float
    wire_lengths: np.ndarray
    edge_nodes: np.ndarray
    steps: Tuple[Tuple[np.ndarray, np.ndarray], ...]
    sinks: np.ndarray
    sink_rows: np.ndarray
    sink_columns: np.ndarray
    pair_a: np.ndarray
    pair_b: np.ndarray

    def arrival_times(self, edge_delays: np.ndarray) -> np.ndarray:
        """Arrival time at every tree node (the root fires at time 0).

        Each node adds its edge delay to its parent's arrival time -- the
        same additions, in the same order along every path, as
        :func:`~repro.clocktree.simulation.sink_arrival_times`.
        """
        node_delays = np.zeros(len(edge_delays) + 1)
        node_delays[self.edge_nodes] = edge_delays
        arrival = np.zeros_like(node_delays)
        for nodes, parents in self.steps:
            arrival[nodes] = arrival[parents] + node_delays[nodes]
        return arrival


@lru_cache(maxsize=8)
def _tree_plan(levels: int) -> _TreePlan:
    """Build (once per ``levels``) the H-tree and its RNG-free geometry."""
    tree = build_htree(levels, span=float(2**levels))
    edges = [node for node in tree.nodes() if node.parent is not None]
    steps = []
    for level in range(1, levels + 1):
        members = [node for node in edges if node.level == level]
        steps.append(
            (
                np.array([node.index for node in members]),
                np.array([node.parent for node in members]),
            )
        )
    sink_grid = tree.sink_grid()
    pairs = neighbor_pairs(tree)
    return _TreePlan(
        num_sinks=tree.num_sinks,
        depth=tree.depth(),
        max_disjoint_path=max_neighbor_disjoint_path(tree, pairs),
        wire_lengths=np.array([node.wire_length for node in edges], dtype=float),
        edge_nodes=np.array([node.index for node in edges]),
        steps=tuple(steps),
        sinks=np.array(list(sink_grid.values())),
        sink_rows=np.array([row for row, _column in sink_grid]),
        sink_columns=np.array([column for _row, column in sink_grid]),
        pair_a=np.array([a for a, _b in pairs]),
        pair_b=np.array([b for _a, b in pairs]),
    )


class ClockTreeEngine:
    """Clock-tree baseline: one delay sample of an H-tree covering the grid."""

    name = "clocktree"
    capabilities = EngineCapabilities(
        kinds=("single_pulse",),
        supports_faults=False,
        supported_topologies=("cylinder",),
        exactness="tolerance",
        tolerance=None,
        description="H-tree clock-tree baseline (sink arrival times on the same die)",
    )

    def run_batch(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Per-spec loop; one tree delay sample dominates each run anyway."""
        with obs.span("engine.run_batch", engine=self.name, size=len(specs)):
            return generic_run_batch(self, specs)

    @staticmethod
    def tree_levels(num_endpoints: int) -> int:
        """Smallest H-tree recursion depth with at least ``num_endpoints`` sinks."""
        return max(1, math.ceil(math.log(max(1, num_endpoints), 4)))

    def run(self, spec: RunSpec) -> RunResult:
        with obs.span("engine.run", engine=self.name, kind=spec.kind):
            obs.inc("engine.clocktree.runs")
            return self._run(spec)

    def _run(self, spec: RunSpec) -> RunResult:
        require_kind(self, spec)
        require_schedule_support(self, spec)
        require_topology_support(self, spec)
        if spec.num_faults:
            raise ValueError(
                f"engine {self.name!r} does not support fault injection "
                f"(spec requests num_faults={spec.num_faults}); see "
                "repro.clocktree.faults.robustness_report for the structural "
                "tree-fault analysis"
            )
        generator = spec.rng()
        grid = spec.make_grid()
        timing = spec.make_timing()

        levels = self.tree_levels(grid.num_nodes)
        plan = _tree_plan(levels)
        config = TreeDelayConfig(
            wire_delay_per_unit=timing.d_max,
            buffer_delay=0.2 * timing.d_max,
            relative_variation=timing.epsilon / timing.d_max,
        )
        edge_delays = sample_delay_array(plan.wire_lengths, config, generator)
        arrival = plan.arrival_times(edge_delays)
        if obs.metrics_enabled():
            # Deterministic work counters: pure functions of the tree topology,
            # comparable across serial and parallel campaigns.
            obs.inc("clocktree.elements_sampled", len(edge_delays))
            obs.inc("clocktree.sinks_evaluated", plan.num_sinks)

        side = 2**levels
        trigger_times = np.full((side, side), np.inf, dtype=float)
        sink_times = arrival[plan.sinks]
        trigger_times[plan.sink_rows, plan.sink_columns] = sink_times
        neighbor_skews = np.abs(arrival[plan.pair_a] - arrival[plan.pair_b])

        return RunResult(
            engine=self.name,
            kind="single_pulse",
            grid=grid,
            timing=timing,
            trigger_times=trigger_times,
            correct_mask=np.ones_like(trigger_times, dtype=bool),
            layer0_times=None,
            fault_model=None,
            spec=spec,
            metrics={
                "tree_levels": float(levels),
                "tree_num_sinks": float(plan.num_sinks),
                "tree_depth": float(plan.depth),
                "tree_global_skew": float(sink_times.max() - sink_times.min()),
                "tree_max_neighbor_skew": float(neighbor_skews.max()),
                "tree_avg_neighbor_skew": float(neighbor_skews.mean()),
                "tree_max_neighbor_disjoint_path": float(plan.max_disjoint_path),
            },
        )
