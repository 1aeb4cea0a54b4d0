"""Link delay models.

The paper's testbench supports "both random delays (uniform within [d-, d+])
and deterministic delays" for every individual link.  The classes here cover
both, plus per-link tables for the hand-crafted worst-case constructions of
Figs. 5 and 17.

All models implement the :class:`repro.core.pulse_solver.LinkDelayProvider`
protocol (``delay(source, destination) -> float``) and additionally a
``sample(source, destination)`` method used by the discrete-event simulator for
each individual message:

* for :class:`UniformRandomDelays` the per-link delay is drawn lazily once and
  then cached, so the analytic solver and the discrete-event simulator observe
  *identical* delays for the same run -- this is what makes the engine
  cross-validation tests exact;
* :class:`FreshUniformDelays` instead draws a fresh delay for every message,
  modelling per-message jitter in long multi-pulse runs.
"""

from __future__ import annotations

import abc
from typing import Dict, Mapping

import numpy as np

from repro.core.parameters import TimingConfig
from repro.core.topology import HexGrid, LinkId, NodeId

__all__ = [
    "DelayModel",
    "ConstantDelays",
    "TableDelays",
    "UniformRandomDelays",
    "FreshUniformDelays",
]


class DelayModel(abc.ABC):
    """Base class of all link delay models."""

    @abc.abstractmethod
    def delay(self, source: NodeId, destination: NodeId) -> float:
        """The (stable) delay of the directed link ``source -> destination``."""

    def sample(self, source: NodeId, destination: NodeId) -> float:
        """The delay of one particular message on the link.

        Defaults to the stable per-link delay; models with per-message jitter
        override this.
        """
        return self.delay(source, destination)

    def validate_against(self, timing: TimingConfig, grid: HexGrid) -> bool:
        """Check that every link delay of ``grid`` lies within ``[d-, d+]``.

        Mainly used in tests and when loading hand-crafted delay tables.
        """
        for source, destination in grid.links():
            value = self.delay(source, destination)
            if not (timing.d_min - 1e-12 <= value <= timing.d_max + 1e-12):
                return False
        return True


class ConstantDelays(DelayModel):
    """Every link has the same fixed delay.

    Useful for analytic sanity checks (e.g. with delay ``d+`` everywhere a
    fault-free wave is perfectly synchronous within each layer).
    """

    def __init__(self, value: float) -> None:
        if value <= 0:
            raise ValueError(f"link delay must be positive, got {value}")
        self._value = float(value)

    @property
    def value(self) -> float:
        """The constant delay."""
        return self._value

    def delay(self, source: NodeId, destination: NodeId) -> float:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"ConstantDelays({self._value})"


class TableDelays(DelayModel):
    """Per-link delays from an explicit table, with a default for unlisted links.

    Used by the deterministic worst-case constructions (Figs. 5 and 17), where
    specific links are made fast (``d-``) or slow (``d+``).
    """

    def __init__(self, table: Mapping[LinkId, float], default: float) -> None:
        if default <= 0:
            raise ValueError(f"default link delay must be positive, got {default}")
        for link, value in table.items():
            if value <= 0:
                raise ValueError(f"link delay must be positive, got {value} for {link}")
        self._table: Dict[LinkId, float] = dict(table)
        self._default = float(default)

    @property
    def default(self) -> float:
        """The delay of links not listed in the table."""
        return self._default

    def set(self, source: NodeId, destination: NodeId, value: float) -> None:
        """Set the delay of a single link."""
        if value <= 0:
            raise ValueError(f"link delay must be positive, got {value}")
        self._table[(source, destination)] = float(value)

    def delay(self, source: NodeId, destination: NodeId) -> float:
        return self._table.get((source, destination), self._default)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"TableDelays({len(self._table)} entries, default={self._default})"


class UniformRandomDelays(DelayModel):
    """Per-link delays drawn uniformly from ``[d-, d+]``, lazily, then cached.

    Every directed link gets exactly one delay per model instance; repeated
    queries return the same value.  This matches the paper's single-pulse
    experiments (each run draws one delay per link) and guarantees that the
    analytic solver and the discrete-event simulator agree exactly when given
    the same model instance.
    """

    def __init__(self, timing: TimingConfig, rng: np.random.Generator) -> None:
        self._timing = timing
        self._rng = rng
        self._cache: Dict[LinkId, float] = {}

    @property
    def timing(self) -> TimingConfig:
        """The delay bounds the model draws from."""
        return self._timing

    def delay(self, source: NodeId, destination: NodeId) -> float:
        key = (source, destination)
        value = self._cache.get(key)
        if value is None:
            value = float(self._rng.uniform(self._timing.d_min, self._timing.d_max))
            self._cache[key] = value
        return value

    def draw(self, count: int) -> np.ndarray:
        """Draw the delays of ``count`` distinct links in one generator call.

        The values -- and the generator state afterwards -- equal those of
        ``count`` :meth:`delay` queries on distinct links, in order.  The
        caller owns the mapping of values to links: nothing is cached, so the
        model must not have drawn any link yet (a cached link would consume
        no randomness on its scalar query).
        """
        if self._cache:
            raise ValueError(
                "draw() needs a model that has drawn no link yet; "
                f"{len(self._cache)} link delays are already cached"
            )
        return self._rng.uniform(self._timing.d_min, self._timing.d_max, size=count)

    def materialize(self, grid: HexGrid) -> Dict[LinkId, float]:
        """Draw (and cache) delays for *all* links of a grid and return them."""
        return {link: self.delay(*link) for link in grid.links()}

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"UniformRandomDelays([{self._timing.d_min}, {self._timing.d_max}], "
            f"{len(self._cache)} cached)"
        )


class FreshUniformDelays(DelayModel):
    """Delays drawn uniformly from ``[d-, d+]`` independently for every message.

    ``delay`` returns a fresh draw as well (so the model is *not* stable); use
    :class:`UniformRandomDelays` when the analytic solver needs to see the same
    delays as the simulator.
    """

    def __init__(self, timing: TimingConfig, rng: np.random.Generator) -> None:
        self._timing = timing
        self._rng = rng

    @property
    def timing(self) -> TimingConfig:
        """The delay bounds the model draws from."""
        return self._timing

    def delay(self, source: NodeId, destination: NodeId) -> float:
        return float(self._rng.uniform(self._timing.d_min, self._timing.d_max))

    def sample(self, source: NodeId, destination: NodeId) -> float:
        return self.delay(source, destination)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"FreshUniformDelays([{self._timing.d_min}, {self._timing.d_max}])"
