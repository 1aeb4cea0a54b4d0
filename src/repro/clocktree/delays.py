"""Delay model of the clock-tree baseline.

Every tree edge contributes a wire delay proportional to its length plus a
buffer delay at its downstream node, each subject to a bounded relative
variation (process/voltage/temperature spread, routing detours, buffer
mismatch).  The paper's argument is that in a tree those variations accumulate
along the *disjoint parts* of two root-to-sink paths, which for physically
adjacent sinks served by different top-level subtrees means almost the entire
``Theta(sqrt(n))`` path -- whereas in HEX the relevant uncertainty is the
per-link ``epsilon`` of an ``O(1)``-length wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.clocktree.htree import HTree

__all__ = [
    "TreeDelayConfig",
    "sample_element_delays",
    "sample_delay_array",
    "nominal_element_delays",
]


@dataclass(frozen=True)
class TreeDelayConfig:
    """Delay parameters of the clock tree.

    Attributes
    ----------
    wire_delay_per_unit:
        Nominal wire delay per unit length (same time unit as the HEX model,
        e.g. ns per sink pitch).
    buffer_delay:
        Nominal delay of each clock buffer (one per internal tree node and one
        per sink's local driver).
    relative_variation:
        Half-width of the relative variation: each element's delay is drawn
        uniformly from ``nominal * [1 - v, 1 + v]``.
    """

    wire_delay_per_unit: float = 1.0
    buffer_delay: float = 0.2
    relative_variation: float = 0.05

    def __post_init__(self) -> None:
        if self.wire_delay_per_unit <= 0:
            raise ValueError("wire_delay_per_unit must be positive")
        if self.buffer_delay < 0:
            raise ValueError("buffer_delay must be non-negative")
        if not 0 <= self.relative_variation < 1:
            raise ValueError("relative_variation must lie in [0, 1)")


def nominal_element_delays(tree: HTree, config: TreeDelayConfig) -> Dict[int, float]:
    """Nominal per-edge delay (wire + downstream buffer), keyed by child node index."""
    delays: Dict[int, float] = {}
    for node in tree.nodes():
        if node.parent is None:
            continue
        delays[node.index] = (
            config.wire_delay_per_unit * node.wire_length + config.buffer_delay
        )
    return delays


def sample_element_delays(
    tree: HTree,
    config: TreeDelayConfig,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> Dict[int, float]:
    """Draw per-edge delays with bounded relative variation.

    Returns
    -------
    dict
        Mapping child-node index -> delay of the edge from its parent
        (wire plus the child's buffer), each element independently varied by a
        uniform factor in ``[1 - v, 1 + v]``.
    """
    generator = rng if rng is not None else np.random.default_rng(seed)
    children = [node for node in tree.nodes() if node.parent is not None]
    wire_lengths = np.array([node.wire_length for node in children], dtype=float)
    delays = sample_delay_array(wire_lengths, config, generator)
    return dict(zip((node.index for node in children), delays.tolist()))


def sample_delay_array(
    wire_lengths: np.ndarray, config: TreeDelayConfig, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized core of :func:`sample_element_delays`.

    ``wire_lengths`` lists the tree edges in node-index order; the result is
    their delays in the same order.  One ``uniform(size=2 m)`` call draws the
    factors element by element, wire first, then buffer (``u[0::2]`` and
    ``u[1::2]``) -- the same values, in the same generator order, as two
    scalar draws per element.
    """
    variation = config.relative_variation
    factors = rng.uniform(1.0 - variation, 1.0 + variation, size=2 * len(wire_lengths))
    wire = config.wire_delay_per_unit * wire_lengths * factors[0::2]
    return wire + config.buffer_delay * factors[1::2]
