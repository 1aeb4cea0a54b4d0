"""Materialized adversaries: concrete timed mutations of a running network.

A :class:`~repro.adversary.schedule.FaultSchedule` is declarative; calling its
``materialize(grid, rng)`` resolves every random choice (placements under
Condition 1, Byzantine per-link behaviours, mobile-fault walks) into a
:class:`ScheduledAdversary` -- an ordered tuple of ``(time, action)`` pairs
whose actions are pure data and *consume no randomness at run time*.  The
discrete-event network schedules one adversary-action event per pair (an
:class:`~repro.simulation.events.AdversaryAction` to observers) and, when the
event fires, calls ``action.apply(network, time)``; each action maps to one of
the network's public mutation hooks (``inject_node_fault``, ``heal_node``,
``flip_node_behavior``, ``set_link_behavior``).

Keeping all draws in the materialization step (which happens once, from the
run's seeded generator, in a documented order) is what makes schedule-driven
runs bit-for-bit reproducible across processes -- the same contract as every
other draw site in the code base.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Protocol, Tuple

from repro.core.topology import LinkId, NodeId
from repro.faults.models import LinkBehavior, NodeFault

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.network import HexNetwork

__all__ = [
    "AdversaryActionBody",
    "InjectFault",
    "HealNode",
    "FlipBehavior",
    "SetLinkBehavior",
    "ScheduledAdversary",
]


class AdversaryActionBody(Protocol):
    """What the network expects of an installed adversary action."""

    def apply(self, network: "HexNetwork", time: float) -> None:
        """Mutate ``network`` at simulation time ``time``."""
        ...

    def describe(self) -> str:
        """One-line human-readable description (CLI preview)."""
        ...


@dataclass(frozen=True)
class InjectFault:
    """Make a node faulty from the action time on (inject / crash events).

    The concrete :class:`~repro.faults.models.NodeFault` -- including any
    randomly drawn Byzantine per-link behaviour and, for crash faults, the
    crash time equal to the action time -- was fixed at materialization.
    """

    fault: NodeFault

    def apply(self, network: "HexNetwork", time: float) -> None:
        network.inject_node_fault(self.fault, time)

    def describe(self) -> str:
        kind = self.fault.fault_type.value
        return f"inject {kind} fault at node {self.fault.node}"


@dataclass(frozen=True)
class HealNode:
    """Return a faulty node to correct behaviour (transient fault ends)."""

    node: NodeId

    def apply(self, network: "HexNetwork", time: float) -> None:
        network.heal_node(self.node, time)

    def describe(self) -> str:
        return f"heal node {self.node}"


@dataclass(frozen=True)
class FlipBehavior:
    """Toggle every outgoing-link behaviour of a Byzantine node (0 <-> 1)."""

    node: NodeId

    def apply(self, network: "HexNetwork", time: float) -> None:
        network.flip_node_behavior(self.node, time)

    def describe(self) -> str:
        return f"flip Byzantine behavior of node {self.node}"


@dataclass(frozen=True)
class SetLinkBehavior:
    """Force one directed link to a behaviour (intermittent-link events)."""

    link: LinkId
    behavior: LinkBehavior

    def apply(self, network: "HexNetwork", time: float) -> None:
        network.set_link_behavior(self.link, self.behavior, time)

    def describe(self) -> str:
        source, destination = self.link
        return f"set link {source}->{destination} to {self.behavior.value}"


@dataclass(frozen=True)
class ScheduledAdversary:
    """A fully-resolved adversary: time-ordered concrete actions.

    Produced by :meth:`repro.adversary.schedule.FaultSchedule.materialize`;
    installed into a network with :meth:`install` (the DES engine does this
    between ``initialize`` and pulse scheduling).  Same-time actions apply in
    tuple order, which materialization fixes deterministically (heals before
    injections of the same directive, directives in schedule order).
    """

    actions: Tuple[Tuple[float, AdversaryActionBody], ...]

    @property
    def num_actions(self) -> int:
        """Number of concrete timed actions."""
        return len(self.actions)

    @property
    def last_time(self) -> float:
        """Time of the final action (0.0 for an empty adversary)."""
        if not self.actions:
            return 0.0
        return max(time for time, _action in self.actions)

    def install(self, network: "HexNetwork") -> None:
        """Schedule every action as an event of ``network``'s queue."""
        network.install_adversary(self.actions)

    def describe(self) -> List[str]:
        """Human-readable timeline, one line per action (CLI preview)."""
        return [
            f"t={time:g}: {action.describe()}"
            for time, action in sorted(
                self.actions, key=lambda pair: pair[0]
            )
        ]
