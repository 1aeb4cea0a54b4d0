"""The HEX pulse-forwarding algorithm (Algorithm 1) as an executable state machine.

The paper implements each HEX node as two cooperating asynchronous state
machines (Fig. 7):

* the **firing state machine** (Fig. 7a) cycles through
  ``READY -> (guard satisfied) -> FIRING -> SLEEPING -> READY``; the memory
  flags are cleared on the ``SLEEPING -> READY`` transition;
* one **memory-flag state machine per incoming link** (Fig. 7b) that moves from
  ``ready`` to ``memorize`` when a trigger message is received and back to
  ``ready`` after the link timeout ``T_link`` expires (or when the firing state
  machine clears it on wake-up).

The firing guard of Algorithm 1 is: trigger messages memorized from

* the **left and lower-left** neighbours (the node is then *left-triggered*), or
* the **lower-left and lower-right** neighbours (*centrally triggered*), or
* the **lower-right and right** neighbours (*right-triggered*).

:class:`HexNodeAutomaton` models exactly this timed behaviour in an
engine-agnostic way: it never draws random numbers and never touches an event
queue.  Timer durations are supplied by the caller, and state transitions
return structured :class:`FiringRecord` values so that causal analysis
(Definition 1) can be performed on simulation traces.  The discrete-event
network (:mod:`repro.simulation.network`) runs the same transitions in its
compiled loop on int-indexed state and keeps one automaton per node as the
state view it loads before and writes back after every run.

Since the paper folds the node's switching delay into the end-to-end link delay
bounds, firing is instantaneous here: when the guard becomes satisfied at time
``t`` the node's trigger messages are sent at time ``t``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.topology import GUARD_NAMES, TRIGGER_GUARDS, Direction, NodeId

__all__ = [
    "NodePhase",
    "GuardKind",
    "FiringRecord",
    "HexNodeAutomaton",
    "INCOMING_DIRECTIONS",
]

#: The four incoming directions a forwarding node listens to, in a fixed order
#: (used for deterministic iteration and array layouts).
INCOMING_DIRECTIONS: Tuple[Direction, ...] = (
    Direction.LEFT,
    Direction.LOWER_LEFT,
    Direction.LOWER_RIGHT,
    Direction.RIGHT,
)


class NodePhase(enum.Enum):
    """Phase of the firing state machine of Fig. 7a.

    ``FIRING`` is a transient phase in the hardware; in the timed abstraction
    the node passes through it instantaneously, so only ``READY`` and
    ``SLEEPING`` are observable between events.
    """

    READY = "ready"
    SLEEPING = "sleeping"


class GuardKind(enum.IntEnum):
    """Which of the three guards of Algorithm 1 caused a node to fire.

    The integer values index :data:`repro.core.topology.TRIGGER_GUARDS`.
    Following Definition 1 the node is called left-, centrally- or
    right-triggered respectively, and the two links of the satisfied guard are
    the *causal links* of the firing.
    """

    LEFT_TRIGGERED = 0
    CENTRALLY_TRIGGERED = 1
    RIGHT_TRIGGERED = 2

    @property
    def causal_directions(self) -> Tuple[Direction, Direction]:
        """The two incoming directions whose links are causal for this guard."""
        return TRIGGER_GUARDS[int(self)]

    @property
    def label(self) -> str:
        """Short human-readable label (``"left"``, ``"central"``, ``"right"``)."""
        return GUARD_NAMES[int(self)]


@dataclass(frozen=True)
class FiringRecord:
    """A single firing (pulse forwarding) of a HEX node.

    Attributes
    ----------
    node:
        The firing node.
    time:
        The real time at which the node fired (= broadcast its trigger message).
    guard:
        Which guard was satisfied, or ``None`` for layer-0 source pulses and for
        spurious firings forced by an arbitrary initial state.
    memorized:
        Snapshot of which incoming directions were memorized at firing time.
    """

    node: NodeId
    time: float
    guard: Optional[GuardKind]
    memorized: Tuple[Direction, ...] = ()


@dataclass
class HexNodeAutomaton:
    """Executable model of one HEX forwarding node (Algorithm 1 / Fig. 7).

    The automaton is driven by four kinds of stimuli, each supplied with the
    current real time ``now`` by the simulation network:

    * :meth:`receive_trigger` -- a trigger message arrived on an incoming link;
    * :meth:`expire_flag` -- a link timer ran out;
    * :meth:`wake_up` -- the sleep timer ran out;
    * :meth:`try_fire` -- re-evaluate the firing guard (called internally after
      every flag change, and by the network after initialisation).

    The automaton itself never draws timer durations; the caller passes the
    concrete ``T_link``/``T_sleep`` duration drawn for each individual timer
    start, which keeps all randomness under the control of the simulation's
    seeded RNG streams.

    Attributes
    ----------
    node:
        The node's grid coordinates (layer, column).
    phase:
        Current phase of the firing state machine.
    flags:
        ``direction -> expiry time`` for currently memorized trigger messages.
        A direction is memorized iff it is a key of this dict.
    wake_time:
        Absolute time at which the node wakes up (only meaningful while
        sleeping).
    firings:
        Chronological list of all firings of this node in the current run.
    """

    node: NodeId
    phase: NodePhase = NodePhase.READY
    flags: Dict[Direction, float] = field(default_factory=dict)
    wake_time: float = -math.inf
    firings: List[FiringRecord] = field(default_factory=list)

    # ------------------------------------------------------------------
    # inspection helpers
    # ------------------------------------------------------------------
    def is_memorized(self, direction: Direction) -> bool:
        """Whether a trigger message from ``direction`` is currently memorized."""
        return direction in self.flags

    def memorized_directions(self) -> Tuple[Direction, ...]:
        """The currently memorized incoming directions, in canonical order."""
        return tuple(d for d in INCOMING_DIRECTIONS if d in self.flags)

    def satisfied_guard(self) -> Optional[GuardKind]:
        """The first satisfied guard of Algorithm 1, or ``None``.

        Guards are checked in the fixed order left / central / right; when the
        trigger messages of more than one guard are memorized simultaneously the
        classification is ambiguous in the paper as well, and the simulator
        simply reports the first match (the skew analysis never depends on
        which of several simultaneously-satisfied guards is reported).
        """
        for kind in GuardKind:
            a, b = kind.causal_directions
            if a in self.flags and b in self.flags:
                return kind
        return None

    @property
    def num_firings(self) -> int:
        """Number of firings recorded so far."""
        return len(self.firings)

    # ------------------------------------------------------------------
    # stimuli
    # ------------------------------------------------------------------
    def receive_trigger(
        self, direction: Direction, now: float, link_timeout: float
    ) -> Optional[float]:
        """Process an arriving trigger message.

        Parameters
        ----------
        direction:
            The incoming direction the message arrived on.
        now:
            Current real time.
        link_timeout:
            The concrete duration drawn from ``[T^-_link, T^+_link]`` for this
            memorization (per Fig. 7b a *new* timer is started only when the
            flag transitions from clear to set; messages arriving while the
            flag is already set are absorbed by the set flag and ignored).

        Returns
        -------
        Optional[float]
            The absolute expiry time of the freshly started link timer, or
            ``None`` if the message was absorbed by an already-set flag (in
            which case no new expiry event must be scheduled).
        """
        if direction not in INCOMING_DIRECTIONS:
            raise ValueError(f"{direction} is not an incoming direction")
        if link_timeout <= 0:
            raise ValueError(f"link timeout must be positive, got {link_timeout}")
        if direction in self.flags:
            return None
        expiry = now + link_timeout
        self.flags[direction] = expiry
        return expiry

    def expire_flag(self, direction: Direction, expiry: float) -> bool:
        """Clear a memory flag whose link timer ran out.

        The ``expiry`` timestamp is compared against the currently stored one so
        that stale expiry events (e.g. the flag was cleared on wake-up and set
        again afterwards) are ignored.

        Returns
        -------
        bool
            ``True`` if the flag was actually cleared.
        """
        stored = self.flags.get(direction)
        if stored is not None and math.isclose(stored, expiry, rel_tol=0.0, abs_tol=1e-12):
            del self.flags[direction]
            return True
        return False

    def try_fire(self, now: float, sleep_duration: float) -> Optional[FiringRecord]:
        """Fire if the node is ready and a guard is satisfied.

        Parameters
        ----------
        now:
            Current real time.
        sleep_duration:
            The concrete duration drawn from ``[T^-_sleep, T^+_sleep]`` to be
            used *if* the node fires now (ignored otherwise).

        Returns
        -------
        Optional[FiringRecord]
            The firing record if the node fired, else ``None``.  When a firing
            is returned the caller must broadcast the node's trigger messages
            and schedule a wake-up event at ``self.wake_time``.
        """
        if self.phase is not NodePhase.READY:
            return None
        guard = self.satisfied_guard()
        if guard is None:
            return None
        if sleep_duration <= 0:
            raise ValueError(f"sleep duration must be positive, got {sleep_duration}")
        record = FiringRecord(
            node=self.node,
            time=now,
            guard=guard,
            memorized=self.memorized_directions(),
        )
        self.firings.append(record)
        self.phase = NodePhase.SLEEPING
        self.wake_time = now + sleep_duration
        return record

    def wake_up(self, now: float) -> bool:
        """Wake up from sleeping: clear all memory flags and become ready.

        Stale wake-up events (time not matching :attr:`wake_time`, e.g. after a
        forced re-initialisation) are ignored.

        Returns
        -------
        bool
            ``True`` if the node actually woke up.
        """
        if self.phase is not NodePhase.SLEEPING:
            return False
        if not math.isclose(self.wake_time, now, rel_tol=0.0, abs_tol=1e-9):
            return False
        self.phase = NodePhase.READY
        self.flags.clear()
        self.wake_time = -math.inf
        return True

    # ------------------------------------------------------------------
    # initial-state control (self-stabilization experiments)
    # ------------------------------------------------------------------
    def force_state(
        self,
        phase: NodePhase,
        flags: Optional[Dict[Direction, float]] = None,
        wake_time: float = -math.inf,
    ) -> None:
        """Force an arbitrary internal state (for stabilization experiments).

        Parameters
        ----------
        phase:
            The phase to start in.
        flags:
            Mapping ``direction -> absolute flag-expiry time`` of memory flags
            that are set in the initial state.  Expiry times must lie in the
            future of the simulation start for the flags to have any effect.
        wake_time:
            Absolute wake-up time if starting in the ``SLEEPING`` phase.
        """
        self.phase = phase
        self.flags = dict(flags) if flags else {}
        for direction in self.flags:
            if direction not in INCOMING_DIRECTIONS:
                raise ValueError(f"{direction} is not an incoming direction")
        self.wake_time = wake_time if phase is NodePhase.SLEEPING else -math.inf

    def reset(self) -> None:
        """Reset to the clean initial state (ready, no flags, no history)."""
        self.phase = NodePhase.READY
        self.flags.clear()
        self.wake_time = -math.inf
        self.firings.clear()
