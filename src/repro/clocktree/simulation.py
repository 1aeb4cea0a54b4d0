"""Arrival times and skew of the clock-tree baseline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.clocktree.delays import TreeDelayConfig, sample_element_delays
from repro.clocktree.htree import HTree

__all__ = [
    "sink_arrival_times",
    "TreeSkewReport",
    "tree_skew_report",
    "neighbor_pairs",
    "max_neighbor_disjoint_path",
]


def sink_arrival_times(tree: HTree, element_delays: Dict[int, float]) -> Dict[int, float]:
    """Clock arrival time at every sink, given per-edge delays.

    The arrival time of a node is the sum of the edge delays along its
    root-to-node path (the root fires at time 0).  Computed top-down in one
    pass over the nodes (children always have larger indices than parents by
    construction).
    """
    arrival: Dict[int, float] = {tree.root.index: 0.0}
    for node in tree.nodes():
        if node.parent is None:
            continue
        arrival[node.index] = arrival[node.parent] + element_delays[node.index]
    return {index: arrival[index] for index in tree.sink_indices()}


@dataclass(frozen=True)
class TreeSkewReport:
    """Skew metrics of one clock-tree delay sample.

    Attributes
    ----------
    global_skew:
        Maximum minus minimum sink arrival time.
    max_neighbor_skew:
        Maximum arrival-time difference between physically adjacent sinks
        (left/right and up/down neighbours on the sink array).
    avg_neighbor_skew:
        Average of the same quantity.
    max_neighbor_disjoint_path:
        The largest total wire length of the *disjoint* parts of the
        root-to-sink paths over all physically adjacent sink pairs -- the
        structural source of tree skew the paper's introduction points at.
    nominal_depth:
        Number of buffers on a root-to-sink path.
    """

    global_skew: float
    max_neighbor_skew: float
    avg_neighbor_skew: float
    max_neighbor_disjoint_path: float
    nominal_depth: int


def neighbor_pairs(tree: HTree) -> List[Tuple[int, int]]:
    """Index pairs of physically adjacent sinks on the sink array."""
    grid = tree.sink_grid()
    pairs: List[Tuple[int, int]] = []
    for (row, col), index in grid.items():
        right = grid.get((row, col + 1))
        up = grid.get((row + 1, col))
        if right is not None:
            pairs.append((index, right))
        if up is not None:
            pairs.append((index, up))
    return pairs


def _disjoint_path_length(tree: HTree, a: int, b: int) -> float:
    """Total wire length of the non-shared parts of two root-to-sink paths."""
    path_a = tree.path_to_root(a)
    path_b = set(tree.path_to_root(b))
    shared = [index for index in path_a if index in path_b]
    lowest_common = shared[0]
    length = 0.0
    for index in path_a:
        if index == lowest_common:
            break
        length += tree.node(index).wire_length
    for index in tree.path_to_root(b):
        if index == lowest_common:
            break
        length += tree.node(index).wire_length
    return length


def max_neighbor_disjoint_path(tree: HTree, pairs: List[Tuple[int, int]]) -> float:
    """The largest disjoint-path wire length over the given sink pairs."""
    return max((_disjoint_path_length(tree, a, b) for a, b in pairs), default=0.0)


def tree_skew_report(
    tree: HTree,
    config: TreeDelayConfig,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    element_delays: Optional[Dict[int, float]] = None,
) -> TreeSkewReport:
    """Compute the skew metrics of one delay sample of the tree."""
    if element_delays is None:
        element_delays = sample_element_delays(tree, config, rng=rng, seed=seed)
    arrivals = sink_arrival_times(tree, element_delays)
    values = np.array(list(arrivals.values()), dtype=float)
    pairs = neighbor_pairs(tree)
    neighbor_skews = np.array(
        [abs(arrivals[a] - arrivals[b]) for a, b in pairs], dtype=float
    )
    disjoint = max_neighbor_disjoint_path(tree, pairs)
    return TreeSkewReport(
        global_skew=float(values.max() - values.min()),
        max_neighbor_skew=float(neighbor_skews.max()) if neighbor_skews.size else 0.0,
        avg_neighbor_skew=float(neighbor_skews.mean()) if neighbor_skews.size else 0.0,
        max_neighbor_disjoint_path=float(disjoint),
        nominal_depth=tree.depth(),
    )
