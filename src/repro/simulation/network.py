"""A HEX grid of node automata wired through delay channels.

:class:`HexNetwork` owns

* one :class:`~repro.core.algorithm.HexNodeAutomaton` per correct (or
  crash-faulty, pre-crash) forwarding node,
* the :class:`~repro.simulation.engine.EventQueue`,
* the link delay model, the timeout configuration and the fault model,

and runs the timed semantics of Algorithm 1 on the grid in one compiled event
loop (:meth:`HexNetwork.run`).  Queue entries are flat
``(time, seq, kind, a, b, c)`` tuples with an int ``kind``:

* source pulse -- a layer-0 clock source fires and broadcasts to its two
  upper neighbours;
* arrival -- a trigger message is memorized (starting a link timer) and the
  receiving node fires if one of the three guards became satisfied;
* flag expiry -- a memory flag is cleared after ``T_link``;
* wake-up -- a sleeping node clears all flags and becomes ready again;
* stuck-at-1 arrival and adversary action (see below).

Node fields are row-major node indices and direction fields are
incoming-direction codes (positions in
:data:`~repro.core.algorithm.INCOMING_DIRECTIONS`).  Out-links come from the
grid's cached :func:`~repro.core.pulse_solver.solver_plan`, the table the heap
solver uses (out-directions in ``Direction.value`` order: left, right,
upper-left, upper-right).  During a run each node's state lives in
int-indexed lists (phase, a 4-bit flag mask plus four expiry times, the wake
time); the automata are loaded before the run and written back after it and
around every adversary action, so the ``automata``, ``source_firings`` and
``firing_times`` views read as if each automaton had processed its own events.

Byzantine stuck-at-1 links are modelled exactly as the hardware behaves: the
receiver's memory flag for such a link is set at simulation start and re-set
immediately whenever it is cleared (by a link timeout or a wake-up).

The network never draws a random number outside the ``rng`` stream handed to it
and never iterates over unordered sets when scheduling, so runs are bit-for-bit
reproducible given (seed, parameters).  Inside a run every scalar uniform draw
goes through an exact block stream (:mod:`repro.simulation.draws`): the same
values, and the same generator state afterwards, as scalar draws.
"""

from __future__ import annotations

import enum
import heapq
import math
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.algorithm import (
    INCOMING_DIRECTIONS,
    FiringRecord,
    GuardKind,
    HexNodeAutomaton,
    NodePhase,
)
from repro.core.parameters import TimeoutConfig, TimingConfig
from repro.core.pulse_solver import solver_plan
from repro.core.topology import Direction, HexGrid, NodeId
from repro.faults.models import FaultModel, FaultType, LinkBehavior, NodeFault
from repro.simulation.draws import BlockDraws
from repro.simulation.engine import EventQueue
from repro.simulation.events import (
    AdversaryAction,
    Event,
    FlagExpiry,
    MessageArrival,
    SourcePulse,
    WakeUp,
)
from repro.simulation.links import DelayModel

__all__ = ["TimerPolicy", "HexNetwork"]

#: Queue-entry kinds ``(time, seq, kind, a, b, c)``.
_ARRIVAL = 0  # a = destination, b = direction code, c = source
_EXPIRY = 1  # a = node, b = direction code, c = expiry time the flag was armed with
_WAKE = 2  # a = node
_SOURCE = 3  # a = layer-0 source (its column), b = pulse index
_HIGH = 4  # a stuck-at-1 link asserting itself; fields as _ARRIVAL
_ADVERSARY = 5  # a = index into the installed action table

_IN_CODE = {direction: code for code, direction in enumerate(INCOMING_DIRECTIONS)}
_BIT = (1, 2, 4, 8)


def _first_guard(mask: int) -> Optional[GuardKind]:
    """The first satisfied guard of a flag mask: left ``&3``, central ``&6``, right ``&12``."""
    for kind, bits in zip(GuardKind, (3, 6, 12)):
        if mask & bits == bits:
            return kind
    return None


#: Flag mask -> first satisfied guard / memorized directions (canonical order).
_GUARD = tuple(_first_guard(mask) for mask in range(16))
_MEMORIZED = tuple(
    tuple(d for code, d in enumerate(INCOMING_DIRECTIONS) if mask & _BIT[code])
    for mask in range(16)
)


class TimerPolicy(enum.Enum):
    """How concrete timer durations are chosen within their allowed intervals."""

    #: Always use the lower bound (``T^-_link`` / ``T^-_sleep``): an ideal,
    #: drift-free implementation.
    NOMINAL = "nominal"
    #: Draw uniformly from ``[T^-, T^+]``: models the clock drift ``theta``.
    UNIFORM = "uniform"


class HexNetwork:
    """Executable HEX grid for the discrete-event simulator.

    Parameters
    ----------
    grid:
        The HEX grid topology.
    timing:
        Link-delay bounds and drift factor.
    timeouts:
        Algorithm timeouts (``T_link``, ``T_sleep``) and pulse separation.
    delays:
        Link delay model; ``sample`` is called once per message.
    fault_model:
        Faults to inject; ``None`` means fault-free.
    rng:
        Random generator used for timer draws and random initial states.
        Required unless ``timer_policy`` is ``NOMINAL`` and no random initial
        states are requested.
    timer_policy:
        How link/sleep timer durations are drawn.
    max_events:
        Safety cap on processed events (guards against run-away Byzantine
        feedback loops in misconfigured experiments).
    """

    def __init__(
        self,
        grid: HexGrid,
        timing: TimingConfig,
        timeouts: TimeoutConfig,
        delays: DelayModel,
        fault_model: Optional[FaultModel] = None,
        rng: Optional[np.random.Generator] = None,
        timer_policy: TimerPolicy = TimerPolicy.UNIFORM,
        max_events: int = 5_000_000,
    ) -> None:
        if fault_model is not None and fault_model.grid != grid:
            raise ValueError("fault model belongs to a different grid")
        if timer_policy is TimerPolicy.UNIFORM and rng is None:
            raise ValueError("a random generator is required for the UNIFORM timer policy")
        self.grid = grid
        self.timing = timing
        self.timeouts = timeouts
        self.delays = delays
        self.faults = fault_model if fault_model is not None else FaultModel.fault_free(grid)
        self.rng = rng
        self.timer_policy = timer_policy
        self.max_events = max_events

        self.queue: EventQueue[Event] = EventQueue()
        #: Firing records of layer-0 sources (guard is ``None``).
        self.source_firings: List[FiringRecord] = []
        #: Whether runs append :class:`FiringRecord` values (to
        #: ``source_firings`` and the automata).  The DES engine clears it for
        #: ``multi_pulse(collect_firings=False)``, whose observer consumes the
        #: firings as they happen.
        self.record_firings = True
        self._plan = solver_plan(grid)

        # Automata exist for correct forwarding nodes and for crash-faulty nodes
        # (which behave correctly until their crash time).
        self.automata: Dict[NodeId, HexNodeAutomaton] = {}
        for node in grid.forwarding_nodes():
            fault = self.faults.node_fault(node)
            if fault is None or fault.fault_type is FaultType.CRASH:
                self.automata[node] = HexNodeAutomaton(node=node)

        # Pre-compute, per receiving node, the incoming directions driven by a
        # stuck-at-1 link (Byzantine neighbour or broken wire stuck high).
        self._byzantine_high_inputs: Dict[NodeId, List[Tuple[Direction, NodeId]]] = {}
        for node in self.automata:
            entries: List[Tuple[Direction, NodeId]] = []
            for direction, source in sorted(
                grid.in_neighbors(node).items(), key=lambda item: item[0].value
            ):
                if self.faults.link_behavior((source, node)) is LinkBehavior.CONSTANT_ONE:
                    entries.append((direction, source))
            if entries:
                self._byzantine_high_inputs[node] = entries

        #: Installed adversary actions (see :meth:`install_adversary`); the
        #: queue carries only indices into this table.
        self._adversary_actions: List[object] = []
        self._initialized = False
        #: Optional read-only run observer, duck-typed: ``on_firing(node,
        #: time)`` and ``on_adversary(time, action)`` are required,
        #: ``on_event(time, event)`` is optional -- a run decodes its queue
        #: entries into :mod:`repro.simulation.events` dataclasses only for
        #: an observer that defines it (in practice a
        #: :class:`repro.obs.capture.DesRunObserver`, injected by the DES
        #: engine when observability is enabled).  The default ``None`` keeps
        #: a single ``is None`` guard as the only cost -- the network itself
        #: never imports :mod:`repro.obs`.
        self.observer: Optional[object] = None

    # ------------------------------------------------------------------
    # initialisation
    # ------------------------------------------------------------------
    def _index(self, node: NodeId) -> int:
        """Row-major node index (the plan's numbering)."""
        layer, column = self.grid.validate_node(node)
        return layer * self.grid.width + column

    def initialize(self) -> None:
        """Seed the event queue with the stuck-at-1 link assertions.

        Must be called exactly once before :meth:`run` (the runner does this).
        """
        if self._initialized:
            return
        self._initialized = True
        for node in sorted(self._byzantine_high_inputs):
            for direction, source in self._byzantine_high_inputs[node]:
                self.queue.push(
                    0.0, _HIGH, self._index(node), _IN_CODE[direction], self._index(source)
                )

    def schedule_source_pulses(self, schedule: np.ndarray) -> None:
        """Schedule the layer-0 pulse generation.

        Parameters
        ----------
        schedule:
            Array of shape ``(num_pulses, W)``: entry ``[k, i]`` is the time at
            which source ``(0, i)`` generates its ``k``-th pulse.  Entries of
            faulty sources are ignored (their behaviour is governed by the
            fault model); ``nan`` entries are skipped.
        """
        schedule = np.atleast_2d(np.asarray(schedule, dtype=float))
        if schedule.shape[1] != self.grid.width:
            raise ValueError(
                f"schedule must have {self.grid.width} columns, got shape {schedule.shape}"
            )
        for pulse_index in range(schedule.shape[0]):
            for column in range(self.grid.width):
                source = (0, column)
                if self.faults.is_faulty(source):
                    continue
                time = schedule[pulse_index, column]
                if not math.isfinite(time):
                    continue
                self.queue.push(float(time), _SOURCE, column, pulse_index)

    def apply_random_initial_states(self, rng: Optional[np.random.Generator] = None) -> None:
        """Put every correct forwarding node into a random internal state.

        Used by the self-stabilization experiments of Section 4.4 ("starting
        with all non-faulty nodes in random initial states").  Each node is
        independently ready or sleeping (with a uniformly random residual sleep
        time), and each of its memory flags is independently set (with a
        uniformly random residual link-timer duration).

        Must be called after :meth:`initialize` and before :meth:`run`.
        """
        generator = rng if rng is not None else self.rng
        if generator is None:
            raise ValueError("a random generator is required for random initial states")
        for node in sorted(self.automata):
            automaton = self.automata[node]
            index = self._index(node)
            sleeping = bool(generator.integers(0, 2))
            flags: Dict[Direction, float] = {}
            for direction in INCOMING_DIRECTIONS:
                if bool(generator.integers(0, 2)):
                    expiry = float(generator.uniform(0.0, self.timeouts.t_link_max))
                    flags[direction] = expiry
            if sleeping:
                wake_time = float(generator.uniform(0.0, self.timeouts.t_sleep_max))
                automaton.force_state(NodePhase.SLEEPING, flags=flags, wake_time=wake_time)
                self.queue.push(wake_time, _WAKE, index)
            else:
                automaton.force_state(NodePhase.READY, flags=flags)
            for direction, expiry in flags.items():
                self.queue.push(expiry, _EXPIRY, index, _IN_CODE[direction], expiry)
        # Nodes whose arbitrary initial flags already satisfy a guard fire as
        # soon as the run starts.
        self._execute(-math.inf, fire_ready_at=0.0)

    def apply_adversarial_initial_states(self) -> None:
        """Put every correct forwarding node into the adversarial initial state.

        Every node starts ready with *all four* memory flags set (expiring at
        ``T^+_link``): every guard is satisfied at once, so the entire grid
        fires one spurious wave at ``t = 0`` and then sleeps -- the most
        violent coherent "arbitrary state" a transient fault can leave behind.
        Deterministic (no generator draws), so it composes with any seed
        stream.  Must be called after :meth:`initialize` and before
        :meth:`run`.
        """
        expiry = self.timeouts.t_link_max
        for node in sorted(self.automata):
            automaton = self.automata[node]
            flags = {direction: expiry for direction in INCOMING_DIRECTIONS}
            automaton.force_state(NodePhase.READY, flags=flags)
            for code in range(len(INCOMING_DIRECTIONS)):
                self.queue.push(expiry, _EXPIRY, self._index(node), code, expiry)
        self._execute(-math.inf, fire_ready_at=0.0)

    # ------------------------------------------------------------------
    # dynamic adversary hooks (repro.adversary)
    # ------------------------------------------------------------------
    def install_adversary(self, actions: Iterable[Tuple[float, object]]) -> None:
        """Schedule a materialized adversary's timed mutations.

        Parameters
        ----------
        actions:
            ``(time, action)`` pairs; each ``action`` implements
            ``apply(network, time)`` (see
            :class:`repro.adversary.runtime.ScheduledAdversary`).  Actions are
            scheduled in iteration order, which breaks same-time ties
            deterministically.
        """
        for time, action in actions:
            index = len(self._adversary_actions)
            self._adversary_actions.append(action)
            self.queue.push(float(time), _ADVERSARY, index)

    def inject_node_fault(self, fault: NodeFault, time: float) -> None:
        """Make a node faulty from ``time`` on (dynamic fault injection).

        The node's automaton (if any) stops executing -- a run rebuilds its
        fault view after every adversary action -- and freshly stuck-at-1 outgoing
        links start asserting themselves at ``time``.  Messages the node sent
        before ``time`` are already in flight and still arrive, exactly as in
        hardware.
        """
        node = self.grid.validate_node(fault.node)
        self.faults.add_node_fault(fault)
        self._register_stuck_high_links(node, time)

    def heal_node(self, node: NodeId, time: float) -> None:
        """Return a faulty node to correct behaviour from ``time`` on.

        The transient fault ends: the fault entry (including any crash time)
        is removed, the node's stuck-at-1 output registrations are retracted
        (receivers' already-set flags persist until their own timeouts, as the
        hardware's would), and the node resumes with a clean ready state --
        re-stabilization of the *network* is HEX's job, not the healed
        node's.  Healing a node that was never faulty is a no-op.
        """
        node = self.grid.validate_node(node)
        removed = self.faults.remove_node_fault(node)
        if removed is None:
            return
        self._unregister_stuck_high_links(node)
        if node[0] == 0:
            return
        automaton = self.automata.get(node)
        if automaton is None:
            automaton = HexNodeAutomaton(node=node)
            self.automata[node] = automaton
        else:
            automaton.force_state(NodePhase.READY, flags={})
        # Stuck-at-1 in-links of *other* faulty neighbours resume driving the
        # healed node's flags immediately.  Recompute the registry entry from
        # the live fault model: a statically faulty node had no automaton at
        # construction, so its in-link registrations were never built.
        entries: List[Tuple[Direction, NodeId]] = []
        for direction, source in sorted(
            self.grid.in_neighbors(node).items(), key=lambda item: item[0].value
        ):
            if self.faults.link_behavior((source, node), time=math.inf) is (
                LinkBehavior.CONSTANT_ONE
            ):
                entries.append((direction, source))
        if entries:
            self._byzantine_high_inputs[node] = entries
        else:
            self._byzantine_high_inputs.pop(node, None)
        index = self._index(node)
        for direction, _source in entries:
            for high_direction, source in entries:
                if high_direction is direction:
                    self.queue.push(
                        time, _HIGH, index, _IN_CODE[direction], self._index(source)
                    )

    def flip_node_behavior(self, node: NodeId, time: float) -> None:
        """Toggle a Byzantine node's per-link constant-0/constant-1 outputs."""
        node = self.grid.validate_node(node)
        fault = self.faults.node_fault(node)
        if fault is None or fault.fault_type is not FaultType.BYZANTINE:
            return
        flipped = {
            destination: (
                LinkBehavior.CONSTANT_ZERO
                if behavior is LinkBehavior.CONSTANT_ONE
                else LinkBehavior.CONSTANT_ONE
            )
            for destination, behavior in fault.link_behaviors.items()
        }
        self._unregister_stuck_high_links(node)
        self.faults.add_node_fault(
            NodeFault(node=node, fault_type=FaultType.BYZANTINE, link_behaviors=flipped)
        )
        self._register_stuck_high_links(node, time)

    def set_link_behavior(self, link: Tuple[NodeId, NodeId], behavior: LinkBehavior, time: float) -> None:
        """Force one directed link to a behaviour (intermittent-link faults)."""
        source, destination = link
        source = self.grid.validate_node(source)
        destination = self.grid.validate_node(destination)
        previous = self.faults.link_behavior((source, destination), time=time)
        self.faults.add_link_fault((source, destination), behavior)
        if behavior is LinkBehavior.CONSTANT_ONE and previous is not LinkBehavior.CONSTANT_ONE:
            self._register_one_stuck_high_link(source, destination, time)
        elif behavior is not LinkBehavior.CONSTANT_ONE and previous is LinkBehavior.CONSTANT_ONE:
            self._unregister_one_stuck_high_link(source, destination)

    def _register_stuck_high_links(self, node: NodeId, time: float) -> None:
        """Register (and assert) every stuck-at-1 outgoing link of ``node``."""
        for destination in sorted(self.grid.out_neighbors(node).values()):
            if self.faults.link_behavior((node, destination), time=math.inf) is (
                LinkBehavior.CONSTANT_ONE
            ):
                self._register_one_stuck_high_link(node, destination, time)

    def _register_one_stuck_high_link(
        self, source: NodeId, destination: NodeId, time: float
    ) -> None:
        if destination[0] == 0 or destination not in self.automata:
            return
        direction = self.grid.direction_between(source, destination)
        entries = self._byzantine_high_inputs.setdefault(destination, [])
        if any(existing_source == source for _d, existing_source in entries):
            return
        entries.append((direction, source))
        entries.sort(key=lambda item: item[0].value)
        self.queue.push(
            float(time),
            _HIGH,
            self._index(destination),
            _IN_CODE[direction],
            self._index(source),
        )

    def _unregister_stuck_high_links(self, node: NodeId) -> None:
        """Retract every stuck-at-1 registration whose source is ``node``."""
        for destination in sorted(self.grid.out_neighbors(node).values()):
            self._unregister_one_stuck_high_link(node, destination)

    def _unregister_one_stuck_high_link(self, source: NodeId, destination: NodeId) -> None:
        entries = self._byzantine_high_inputs.get(destination)
        if not entries:
            return
        remaining = [item for item in entries if item[1] != source]
        if remaining:
            self._byzantine_high_inputs[destination] = remaining
        else:
            self._byzantine_high_inputs.pop(destination, None)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: float = math.inf) -> int:
        """Process events in time order up to ``until`` (inclusive).

        Returns
        -------
        int
            The number of events processed by this call.

        Raises
        ------
        RuntimeError
            If the safety cap ``max_events`` is exceeded.
        """
        if not self._initialized:
            self.initialize()
        return self._execute(until)

    def _execute(self, until: float, fire_ready_at: Optional[float] = None) -> int:
        """The compiled event loop behind :meth:`run`.

        With ``fire_ready_at`` set, every ready node whose flags satisfy a
        guard first fires at that time (in node order), as an arbitrary
        initial state demands.  Node state is loaded from the automata into
        a :class:`_RunState` and written back when the loop exits, normally
        or by exception, and around every adversary action (whose body sees
        the automata, queue and fault model exactly as between runs); the
        action's mutations are picked up by reloading the state and
        rebuilding the fault view.  All scalar draws go through the run's
        block streams, closed (rewound to the exact scalar position) on exit.
        """
        queue = self.queue
        heap = queue._heap
        push = heapq.heappush
        pop = heapq.heappop
        check_time = queue.check_time
        inf = math.inf
        nodes = self._plan.nodes
        state = _RunState(self)
        sleeping = state.sleeping
        mask = state.mask
        expiry = state.expiry
        wake = state.wake
        records = state.records
        deadline = state.deadline
        out = state.out
        high = state.high
        link_behavior = self.faults.link_behavior
        constant_one = LinkBehavior.CONSTANT_ONE
        observer = self.observer
        on_event = getattr(observer, "on_event", None)
        on_firing = observer.on_firing if observer is not None else None  # type: ignore[attr-defined]
        source_records = self.source_firings if self.record_firings else None
        timeouts = self.timeouts
        link_low, link_high = float(timeouts.t_link_min), float(timeouts.t_link_max)
        sleep_low, sleep_high = float(timeouts.t_sleep_min), float(timeouts.t_sleep_max)
        processed_base = queue.num_processed
        limit = self.max_events - processed_base
        popped = 0
        seq = queue.num_scheduled
        time = queue.now

        with BlockDraws() as draws:
            draw = None
            if self.timer_policy is TimerPolicy.UNIFORM:
                draw = draws.stream(self.rng).uniform  # type: ignore[arg-type]
            sample = self.delays.sampler(draws)

            def refuse(when: float, now: float) -> None:
                queue._now = now
                check_time(when)  # raises: the inline range check failed

            def broadcast(index: int, now: float, lower: float) -> None:
                nonlocal seq
                links = out[index]
                if links is None:
                    links = self._live_links(index, now)
                source = nodes[index]
                for destination, code in links:
                    arrival = float(now + sample(source, nodes[destination]))
                    if not lower <= arrival < inf:
                        refuse(arrival, now)
                    push(heap, (arrival, seq, _ARRIVAL, destination, code, index))
                    seq += 1

            def fire(index: int, now: float, lower: float, flags: int) -> None:
                nonlocal seq
                duration = sleep_low if draw is None else draw(sleep_low, sleep_high)
                if duration <= 0:
                    raise ValueError(f"sleep duration must be positive, got {duration}")
                log = records[index]
                if log is not None:
                    log.append(
                        FiringRecord(
                            node=nodes[index],
                            time=now,
                            guard=_GUARD[flags],
                            memorized=_MEMORIZED[flags],
                        )
                    )
                sleeping[index] = True
                wake_time = now + duration
                wake[index] = wake_time
                if on_firing is not None:
                    on_firing(nodes[index], now)
                if not lower <= wake_time < inf:
                    refuse(wake_time, now)
                push(heap, (wake_time, seq, _WAKE, index, None, None))
                seq += 1
                broadcast(index, now, lower)

            try:
                if fire_ready_at is not None:
                    lower = time - 1e-12
                    for index in state.automaton_indices:
                        flags = mask[index]
                        if (
                            not sleeping[index]
                            and _GUARD[flags] is not None
                            and fire_ready_at < deadline[index]
                        ):
                            fire(index, fire_ready_at, lower, flags)
                while heap:
                    if heap[0][0] > until:
                        break
                    time, _seq, kind, a, b, c = pop(heap)
                    popped += 1
                    if on_event is not None:
                        on_event(time, self._decode(kind, a, b, c))
                    if kind == _EXPIRY:
                        bit = _BIT[b]
                        if mask[a] & bit and abs(expiry[4 * a + b] - c) <= 1e-12:
                            mask[a] ^= bit
                            for code, source in high.get(a, ()):
                                if code == b:
                                    push(heap, (time, seq, _HIGH, a, b, source))
                                    seq += 1
                    elif kind == _ARRIVAL or kind == _HIGH:
                        if time < deadline[a] and (
                            kind == _ARRIVAL
                            or link_behavior((nodes[c], nodes[a]), time=time) is constant_one
                        ):
                            timeout = link_low if draw is None else draw(link_low, link_high)
                            if timeout <= 0:
                                raise ValueError(f"link timeout must be positive, got {timeout}")
                            flags = mask[a]
                            bit = _BIT[b]
                            if not flags & bit:
                                flags |= bit
                                mask[a] = flags
                                expiry_time = time + timeout
                                expiry[4 * a + b] = expiry_time
                                if not time - 1e-12 <= expiry_time < inf:
                                    refuse(expiry_time, time)
                                push(heap, (expiry_time, seq, _EXPIRY, a, b, expiry_time))
                                seq += 1
                            if not sleeping[a] and _GUARD[flags] is not None:
                                fire(a, time, time - 1e-12, flags)
                    elif kind == _WAKE:
                        if sleeping[a] and abs(wake[a] - time) <= 1e-9:
                            sleeping[a] = False
                            mask[a] = 0
                            wake[a] = -inf
                            entries = high.get(a, ())
                            for code, _source in entries:
                                for other_code, source in entries:
                                    if other_code == code:
                                        push(heap, (time, seq, _HIGH, a, code, source))
                                        seq += 1
                    elif kind == _SOURCE:
                        # Sources that turned faulty mid-run (dynamic injection /
                        # crash) stop generating; statically faulty sources were
                        # never scheduled.
                        if time < deadline[a]:
                            if source_records is not None:
                                source_records.append(
                                    FiringRecord(node=nodes[a], time=time, guard=None)
                                )
                            if on_firing is not None:
                                on_firing(nodes[a], time)
                            broadcast(a, time, time - 1e-12)
                    else:
                        queue._now = time
                        queue._num_scheduled = seq
                        queue._num_processed = processed_base + popped
                        state.store(self)
                        action = self._adversary_actions[a]
                        try:
                            action.apply(self, time)  # type: ignore[attr-defined]
                        finally:
                            state.load(self)
                            seq = queue.num_scheduled
                        if observer is not None:
                            observer.on_adversary(time, action)  # type: ignore[attr-defined]
                    if popped > limit:
                        raise RuntimeError(
                            f"event cap of {self.max_events} exceeded; "
                            "check the fault model / timeout configuration for livelock"
                        )
            finally:
                queue._now = time
                queue._num_scheduled = seq
                queue._num_processed = processed_base + popped
                state.store(self)
        return popped

    def _live_links(self, index: int, time: float) -> List[Tuple[int, int]]:
        """Out-links of a source with a node fault, asking the live fault model."""
        nodes = self._plan.nodes
        source = nodes[index]
        return [
            (destination, code)
            for destination, code, _layer, _column in self._plan.out_links[index]
            if nodes[destination] in self.automata
            and self.faults.link_behavior((source, nodes[destination]), time=time)
            is LinkBehavior.CORRECT
        ]

    def _decode(self, kind: int, a: int, b: Any, c: Any) -> Event:
        """The dataclass form of a queue entry, for observers with ``on_event``."""
        nodes = self._plan.nodes
        if kind == _ARRIVAL or kind == _HIGH:
            return MessageArrival(
                source=nodes[c],
                destination=nodes[a],
                direction=INCOMING_DIRECTIONS[b],
                from_byzantine_high=kind == _HIGH,
            )
        if kind == _EXPIRY:
            return FlagExpiry(node=nodes[a], direction=INCOMING_DIRECTIONS[b], expiry=c)
        if kind == _WAKE:
            return WakeUp(node=nodes[a])
        if kind == _SOURCE:
            return SourcePulse(node=nodes[a], pulse_index=b)
        return AdversaryAction(index=a)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def firing_times(self, node: NodeId) -> List[float]:
        """All firing times of a node (sources and forwarding nodes alike)."""
        node = self.grid.validate_node(node)
        if node[0] == 0:
            return [record.time for record in self.source_firings if record.node == node]
        automaton = self.automata.get(node)
        if automaton is None:
            return []
        return [record.time for record in automaton.firings]

    def all_firings(self) -> List[FiringRecord]:
        """All firing records of the run, sorted by time."""
        records = list(self.source_firings)
        for automaton in self.automata.values():
            records.extend(automaton.firings)
        return sorted(records, key=lambda record: (record.time, record.node))

    def first_firing_matrix(self) -> np.ndarray:
        """Matrix of shape ``(L + 1, W)`` with each node's *first* firing time.

        Nodes that never fired carry ``+inf``; faulty nodes -- and
        structurally absent nodes of a degraded topology -- carry ``nan``.
        Intended for single-pulse runs, where the first firing is the pulse.
        """
        times = np.full(self.grid.shape, math.inf, dtype=float)
        times[~self.grid.presence_mask()] = math.nan
        for layer, column in self.grid.nodes():
            node = (layer, column)
            if self.faults.is_faulty(node):
                times[layer, column] = math.nan
                continue
            firings = self.firing_times(node)
            if firings:
                times[layer, column] = firings[0]
        return times


class _RunState:
    """Int-indexed node state and fault view of one :meth:`HexNetwork.run`.

    Node state: ``sleeping``, the 4-bit flag ``mask`` (bit ``k`` = incoming
    direction code ``k``), the four flag ``expiry`` times at ``4 * node +
    code`` and the ``wake`` time; ``records`` holds each automaton's firing
    list (``None`` while firings are not recorded).  Fault view: a node runs
    the algorithm while ``time < deadline[node]`` (``inf`` for correct nodes,
    the crash time of crash faults, ``-inf`` for other faults and for slots
    without an automaton); ``out[node]`` lists the ``(destination, code)``
    links a broadcast delivers on -- destinations with an automaton over
    links the fault model calls ``CORRECT`` -- or is ``None`` for a source
    with a node fault, whose links the loop checks against the live model;
    ``high`` maps a node to the ``(code, source)`` stuck-at-1 links driving
    it, in the registry's order: a cleared flag or a wake-up re-asserts them.

    The loop holds references to the lists, so :meth:`load` refills them in
    place; it rebuilds everything from the automata, the fault model and the
    stuck-at-1 registry, which adversary actions are the only ones to change
    mid-run.
    """

    def __init__(self, network: HexNetwork) -> None:
        self.sleeping: List[bool] = []
        self.mask: List[int] = []
        self.expiry: List[float] = []
        self.wake: List[float] = []
        self.records: List[Optional[List[FiringRecord]]] = []
        self.deadline: List[float] = []
        self.out: List[Optional[Tuple[Tuple[int, int], ...]]] = []
        self.high: Dict[int, List[Tuple[int, int]]] = {}
        self.automaton_indices: List[int] = []
        self.load(network)

    def load(self, network: HexNetwork) -> None:
        """Refill every list from the network's automata, faults and registry."""
        plan = network._plan
        width = plan.width
        size = plan.num_nodes
        record = network.record_firings
        sleeping = [False] * size
        mask = [0] * size
        expiry = [0.0] * (4 * size)
        wake = [-math.inf] * size
        records: List[Optional[List[FiringRecord]]] = [None] * size
        deadline = [math.inf] * width + [-math.inf] * (size - width)
        indices = []
        for (layer, column), automaton in network.automata.items():
            index = layer * width + column
            indices.append(index)
            sleeping[index] = automaton.phase is NodePhase.SLEEPING
            flags = 0
            for direction, time in automaton.flags.items():
                code = _IN_CODE[direction]
                flags |= _BIT[code]
                expiry[4 * index + code] = time
            mask[index] = flags
            wake[index] = automaton.wake_time
            if record:
                records[index] = automaton.firings
            deadline[index] = math.inf
        faults = network.faults
        faulty = set()
        for node in faults.faulty_nodes():
            index = node[0] * width + node[1]
            faulty.add(index)
            fault = faults.node_fault(node)
            if index < width or node in network.automata:
                deadline[index] = (
                    fault.crash_time  # type: ignore[union-attr]
                    if fault.fault_type is FaultType.CRASH  # type: ignore[union-attr]
                    else -math.inf
                )
        present = set(indices)
        cut = {
            (source[0] * width + source[1], destination[0] * width + destination[1])
            for source, destination in faults.faulty_links()
        }
        out: List[Optional[Tuple[Tuple[int, int], ...]]] = [
            None
            if index in faulty
            else tuple(
                (destination, code)
                for destination, code, _layer, _column in links
                if destination in present and (index, destination) not in cut
            )
            for index, links in enumerate(plan.out_links)
        ]
        self.high.clear()
        for (layer, column), entries in network._byzantine_high_inputs.items():
            self.high[layer * width + column] = [
                (_IN_CODE[direction], source[0] * width + source[1])
                for direction, source in entries
            ]
        self.sleeping[:] = sleeping
        self.mask[:] = mask
        self.expiry[:] = expiry
        self.wake[:] = wake
        self.records[:] = records
        self.deadline[:] = deadline
        self.out[:] = out
        self.automaton_indices[:] = sorted(indices)

    def store(self, network: HexNetwork) -> None:
        """Write the node state back to the automata."""
        width = network._plan.width
        for (layer, column), automaton in network.automata.items():
            index = layer * width + column
            automaton.phase = NodePhase.SLEEPING if self.sleeping[index] else NodePhase.READY
            flags = self.mask[index]
            automaton.flags.clear()
            for code, direction in enumerate(INCOMING_DIRECTIONS):
                if flags & _BIT[code]:
                    automaton.flags[direction] = self.expiry[4 * index + code]
            automaton.wake_time = self.wake[index]
