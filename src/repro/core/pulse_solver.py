"""Analytic single-pulse trigger-time solver.

For the propagation of a *single* pulse wave through the HEX grid -- assuming
constraints (C1) and (C2) of Section 3.1 hold, i.e. all correct nodes start
with cleared memory flags, never forget a memorized message before firing, and
do not sleep while the wave passes -- the firing time of a correct forwarding
node ``v`` is fully determined by the firing times of its in-neighbours and the
link delays:

    ``t_v = min over the three guards {(left, lower-left), (lower-left,
    lower-right), (lower-right, right)} of max(arrival_a, arrival_b)``

where ``arrival_x = t_x + delay(x -> v)`` for a correct in-neighbour ``x``,
``arrival_x = +inf`` for a silent (constant-0 / fail-silent / crashed) link and
``arrival_x = byzantine_high_time`` (default 0, the start of the run) for a
stuck-at-1 Byzantine link, which sets the receiver's memory flag as soon as the
run starts.

Because all link delays are strictly positive this fixed point can be computed
with a Dijkstra-style sweep: firing times are finalized in non-decreasing
order, and every candidate generated from a finalized neighbour is at least
that neighbour's firing time plus ``d-``.  This makes the solver exact and
O(n log n); it is the engine used for the large single-pulse statistical sweeps
(Tables 1-2, Figs. 8-16), while the discrete-event simulator in
:mod:`repro.simulation` handles multi-pulse and stabilization experiments.
The two engines are cross-validated against each other in the test suite.

The solver is deliberately defensive about *who* may fire: layer-0 nodes fire
exactly at the externally supplied times, faulty nodes never fire (their
outgoing links behave according to the fault model instead), and nodes whose
guard is never satisfied keep a firing time of ``+inf``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.core.algorithm import GuardKind
from repro.core.topology import TRIGGER_GUARDS, Direction, HexGrid, NodeId
from repro.faults.models import FaultModel, LinkBehavior

__all__ = [
    "LinkDelayProvider",
    "PulseSolution",
    "SolverPlan",
    "solve_single_pulse",
    "solver_plan",
]


class LinkDelayProvider(Protocol):
    """Anything that can report the delay of a directed link.

    The delay models in :mod:`repro.simulation.links` implement this protocol;
    a plain ``dict``-backed adapter or a constant-delay lambda wrapped in a
    small class works just as well for analytic constructions.
    """

    def delay(self, source: NodeId, destination: NodeId) -> float:
        """The end-to-end delay of the directed link ``source -> destination``."""
        ...


@dataclass
class PulseSolution:
    """The result of propagating a single pulse through the grid.

    Attributes
    ----------
    grid:
        The HEX grid the pulse propagated through.
    trigger_times:
        Array of shape ``(L + 1, W)``.  Entry ``[l, i]`` is the firing time of
        node ``(l, i)``; ``+inf`` if the node never fired, ``nan`` if the node
        is faulty (faulty nodes have no meaningful firing time).
    guards:
        Integer array of shape ``(L + 1, W)``; entry is the
        :class:`~repro.core.algorithm.GuardKind` value of the guard that fired
        the node, ``-1`` for layer-0 sources, never-fired and faulty nodes.
    correct_mask:
        Boolean array, ``True`` where the node is correct.
    layer0_times:
        The layer-0 firing times the solution was computed from (length ``W``;
        faulty sources carry ``nan``).
    work:
        Deterministic work counters of the sweep: ``heap_pushes`` (guards that
        completed, each pushed exactly once), ``frontier_advances``
        (forwarding nodes finalized) and ``messages_delivered`` (trigger
        arrivals that landed, including Byzantine stuck-at-1 seeds).  Pure
        functions of topology, delays and faults -- bit-deterministic across
        runs and machines.
    """

    grid: HexGrid
    trigger_times: np.ndarray
    guards: np.ndarray
    correct_mask: np.ndarray
    layer0_times: np.ndarray
    work: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------
    def trigger_time(self, node: NodeId) -> float:
        """Firing time of a single node."""
        layer, column = self.grid.validate_node(node)
        return float(self.trigger_times[layer, column])

    def guard_kind(self, node: NodeId) -> Optional[GuardKind]:
        """The guard that fired ``node`` (Definition 1), or ``None``."""
        layer, column = self.grid.validate_node(node)
        value = int(self.guards[layer, column])
        return GuardKind(value) if value >= 0 else None

    def causal_in_neighbors(self, node: NodeId) -> Tuple[NodeId, ...]:
        """The in-neighbours on the causal links of ``node`` (Definition 1)."""
        guard = self.guard_kind(node)
        if guard is None:
            return ()
        return tuple(
            self.grid.neighbor(node, direction) for direction in guard.causal_directions
        )

    def all_triggered(self, include_faulty: bool = False) -> bool:
        """Whether every (correct) forwarding node fired."""
        times = self.trigger_times[1:, :]
        mask = self.correct_mask[1:, :]
        if include_faulty:
            return bool(np.all(np.isfinite(times)))
        return bool(np.all(np.isfinite(times[mask])))

    def finite_times(self) -> np.ndarray:
        """Copy of the trigger-time matrix with non-finite entries masked as ``nan``."""
        times = self.trigger_times.copy()
        times[~np.isfinite(times)] = np.nan
        return times


#: Flat indices of the four incoming directions, chosen so that the three
#: guards of :data:`TRIGGER_GUARDS` become the consecutive pairs
#: ``(0, 1), (1, 2), (2, 3)``.
_IN_INDEX = {
    Direction.LEFT: 0,
    Direction.LOWER_LEFT: 1,
    Direction.LOWER_RIGHT: 2,
    Direction.RIGHT: 3,
}

#: One out-link of a plan: ``(dest_index, in_direction_index, dest_layer,
#: dest_column)``.
_Link = Tuple[int, int, int, int]


@dataclass(frozen=True)
class SolverPlan:
    """RNG-free scaffolding of :func:`solve_single_pulse`.

    A plan compiles a grid's neighbour tables into flat Python lists indexed
    by the row-major node index, so the sweep's inner loop touches no dicts,
    no ``(layer, column)`` tuples and no :class:`Direction` enums.  Plans
    contain only topology-derived data (no randomness, no faults, no per-run
    state), so one plan serves every run on an equal grid; :func:`solver_plan`
    caches them by grid identity.

    Attributes
    ----------
    nodes:
        Node index -> ``(layer, column)`` tuple (the form delay models and
        result matrices expect).
    out_links:
        Node index -> tuple of ``(dest_index, in_direction_index, dest_layer,
        dest_column)`` links, in the exact iteration order of
        ``grid.out_neighbors(node).values()``; destinations on layer 0 or
        structurally absent are excluded (they never fire on a trigger).
    present_sources:
        The layer-0 columns whose source node is structurally present.
    """

    num_nodes: int
    width: int
    layers: int
    nodes: Tuple[NodeId, ...]
    out_links: Tuple[Tuple[_Link, ...], ...]
    present_sources: Tuple[int, ...]

    @classmethod
    def compile(cls, grid: HexGrid) -> "SolverPlan":
        """Compile the plan of one grid (any registered topology family)."""
        width = grid.width
        presence = grid.presence_mask()
        # Enumerate every row-major slot, including structurally absent ones
        # (``grid.nodes()`` skips holes on degraded grids); absent slots keep
        # an empty link list and are never finalized.
        nodes = tuple(
            (layer, column)
            for layer in range(grid.layers + 1)
            for column in range(width)
        )
        out_links: List[Tuple[_Link, ...]] = []
        for node in nodes:
            layer, column = node
            links: List[_Link] = []
            if presence[layer, column]:
                for destination in grid.out_neighbors(node).values():
                    dest_layer, dest_column = destination
                    if dest_layer == 0 or not presence[dest_layer, dest_column]:
                        continue
                    direction = grid.direction_between(node, destination)
                    links.append(
                        (
                            dest_layer * width + dest_column,
                            _IN_INDEX[direction],
                            dest_layer,
                            dest_column,
                        )
                    )
            out_links.append(tuple(links))
        present_sources = tuple(
            column for column in range(width) if presence[0, column]
        )
        return cls(
            num_nodes=grid.num_nodes,
            width=width,
            layers=grid.layers,
            nodes=nodes,
            out_links=tuple(out_links),
            present_sources=present_sources,
        )


@lru_cache(maxsize=16)
def solver_plan(grid: HexGrid) -> SolverPlan:
    """The (cached) :class:`SolverPlan` of a grid.

    Grids are immutable and equality-keyed by their identity (family,
    dimensions, damage spec), so equal grids share one compiled plan.
    """
    return SolverPlan.compile(grid)


def _fault_view(
    plan: SolverPlan,
    faults: FaultModel,
    arrivals: List[Optional[float]],
    heap: List[Tuple[float, int, int, int]],
    byzantine_high_time: float,
) -> Tuple[Sequence[Tuple[_Link, ...]], Tuple[int, ...]]:
    """Fold one run's faults into the plan; returns ``(out_links, sources)``.

    Apart from one shallow copy of the plan's link table, the work is
    proportional to the number of faults: only the *touched* sources --
    faulty nodes, their in-neighbours and the sources of faulty links -- get
    filtered link lists; every other source keeps the plan's own.  A touched source keeps exactly its ``CORRECT`` links into
    correct nodes, so the sweep consults the delay model for the same links
    in the same order as a per-link behaviour check would; faulty nodes keep
    none (they never fire).  ``CONSTANT_ONE`` links into correct nodes are
    written into ``arrivals`` as ``byzantine_high_time`` seeds, and every
    guard two seeds complete is pushed right away (a delivered arrival
    pushes the guards it completes itself).  Faulty clock sources are
    dropped from the layer-0 sources.

    Link behaviours are queried at their eventual time: faulty nodes --
    crash faults included -- never fire, so no link of theirs is ever
    consulted at a firing time.
    """
    width = plan.width
    nodes = plan.nodes
    grid = faults.grid
    dead = {layer * width + column for layer, column in faults.faulty_nodes()}
    touched = set(dead)
    for node in faults.faulty_nodes():
        for source in grid.in_neighbors(node).values():
            touched.add(source[0] * width + source[1])
    for source, _destination in faults.faulty_links():
        touched.add(source[0] * width + source[1])
    if not touched:
        return plan.out_links, plan.present_sources

    out_links = list(plan.out_links)
    seeded: List[int] = []
    for source_index in sorted(touched):
        source = nodes[source_index]
        kept: List[_Link] = []
        for link in out_links[source_index]:
            dest_index, direction = link[0], link[1]
            if dest_index in dead:
                continue
            behavior = faults.link_behavior((source, nodes[dest_index]))
            if behavior is LinkBehavior.CONSTANT_ONE:
                arrivals[dest_index * 4 + direction] = byzantine_high_time
                seeded.append(dest_index)
            elif behavior is LinkBehavior.CORRECT and source_index not in dead:
                kept.append(link)
        out_links[source_index] = tuple(kept)
    for dest_index in sorted(set(seeded)):
        layer, column = nodes[dest_index]
        base = dest_index * 4
        for guard_value in range(len(TRIGGER_GUARDS)):
            first = arrivals[base + guard_value]
            second = arrivals[base + guard_value + 1]
            if first is not None and second is not None:
                heapq.heappush(heap, (max(first, second), layer, column, guard_value))
    sources = tuple(column for column in plan.present_sources if column not in dead)
    return out_links, sources


def solve_single_pulse(
    grid: HexGrid,
    layer0_times: Sequence[float],
    delays: LinkDelayProvider,
    fault_model: Optional[FaultModel] = None,
    byzantine_high_time: float = 0.0,
) -> PulseSolution:
    """Compute the firing time of every node for a single pulse wave.

    Parameters
    ----------
    grid:
        The HEX grid.
    layer0_times:
        Firing times of the ``W`` layer-0 clock sources (scenario-dependent;
        see :mod:`repro.clocksource.scenarios`).  Faulty layer-0 nodes are
        handled through the fault model; their entry here is ignored.
    delays:
        Link delay provider (see :class:`LinkDelayProvider`).  Only consulted
        for links that behave correctly, each at most once, in the order the
        sweep delivers over them.
    fault_model:
        Faults to inject; ``None`` means fault-free.
    byzantine_high_time:
        The time at which a stuck-at-1 Byzantine link sets the receiver's
        memory flag.  The paper's testbench drives such links high from the
        start of the run, hence the default of 0.

    Returns
    -------
    PulseSolution

    The sweep runs over the flat arrays of the grid's cached
    :func:`solver_plan`, shared by every run on an equal grid.  A fault model
    is folded in per run (:func:`_fault_view`), at a cost proportional to the
    number of faults; the hot loop is the same for faulty and fault-free runs.
    """
    layer0 = np.asarray(layer0_times, dtype=float)
    if layer0.shape != (grid.width,):
        raise ValueError(
            f"layer0_times must have shape ({grid.width},), got {layer0.shape}"
        )
    if fault_model is not None and fault_model.grid != grid:
        raise ValueError("fault model belongs to a different grid")
    plan = solver_plan(grid)

    num_nodes, width = plan.num_nodes, plan.width
    trigger_flat = [math.inf] * num_nodes
    guard_flat = [-1] * num_nodes
    # arrivals[node * 4 + direction_index]; None = no message yet.
    arrivals: List[Optional[float]] = [None] * (num_nodes * 4)
    finalized = bytearray(num_nodes)
    heap: List[Tuple[float, int, int, int]] = []
    out_links: Sequence[Tuple[_Link, ...]] = plan.out_links
    sources = plan.present_sources
    if fault_model is not None:
        out_links, sources = _fault_view(
            plan, fault_model, arrivals, heap, byzantine_high_time
        )
    push = heapq.heappush
    pop = heapq.heappop
    node_tuples = plan.nodes
    link_delay = delays.delay

    def deliver(source_index: int, fire_time: float) -> None:
        source = node_tuples[source_index]
        for dest_index, direction, dest_layer, dest_column in out_links[source_index]:
            arrival = fire_time + link_delay(source, node_tuples[dest_index])
            base = dest_index * 4
            arrivals[base + direction] = arrival
            # Push exactly the guards this arrival completes.  Candidates are
            # always later than the node being finalized, so the pop order --
            # and with it the order of delay queries -- is the sorted order of
            # the candidate tuples, whatever order they were pushed in.
            if direction == 0:
                other = arrivals[base + 1]
                if other is not None:
                    push(
                        heap,
                        (
                            arrival if arrival > other else other,
                            dest_layer,
                            dest_column,
                            0,
                        ),
                    )
            elif direction == 1:
                other = arrivals[base]
                if other is not None:
                    push(
                        heap,
                        (
                            arrival if arrival > other else other,
                            dest_layer,
                            dest_column,
                            0,
                        ),
                    )
                other = arrivals[base + 2]
                if other is not None:
                    push(
                        heap,
                        (
                            arrival if arrival > other else other,
                            dest_layer,
                            dest_column,
                            1,
                        ),
                    )
            elif direction == 2:
                other = arrivals[base + 1]
                if other is not None:
                    push(
                        heap,
                        (
                            arrival if arrival > other else other,
                            dest_layer,
                            dest_column,
                            1,
                        ),
                    )
                other = arrivals[base + 3]
                if other is not None:
                    push(
                        heap,
                        (
                            arrival if arrival > other else other,
                            dest_layer,
                            dest_column,
                            2,
                        ),
                    )
            else:
                other = arrivals[base + 2]
                if other is not None:
                    push(
                        heap,
                        (
                            arrival if arrival > other else other,
                            dest_layer,
                            dest_column,
                            2,
                        ),
                    )

    for column in sources:
        fire_time = float(layer0[column])
        trigger_flat[column] = fire_time
        finalized[column] = 1
        deliver(column, fire_time)

    while heap:
        candidate, layer, column, guard_value = pop(heap)
        index = layer * width + column
        if finalized[index]:
            continue
        finalized[index] = 1
        trigger_flat[index] = candidate
        guard_flat[index] = guard_value
        deliver(index, candidate)

    # Post-hoc work accounting over the flat arrival slots (O(n), outside the
    # sweep).  A guard counts as one heap push when both of its arrivals
    # landed -- exactly when the sweep pushed it.
    messages_delivered = 0
    heap_pushes = 0
    for base in range(0, 4 * num_nodes, 4):
        has_left = arrivals[base] is not None
        has_lower_left = arrivals[base + 1] is not None
        has_lower_right = arrivals[base + 2] is not None
        has_right = arrivals[base + 3] is not None
        messages_delivered += has_left + has_lower_left + has_lower_right + has_right
        heap_pushes += (
            (has_left and has_lower_left)
            + (has_lower_left and has_lower_right)
            + (has_lower_right and has_right)
        )
    work = {
        "heap_pushes": heap_pushes,
        "frontier_advances": sum(finalized) - len(sources),
        "messages_delivered": messages_delivered,
    }

    trigger_times = np.array(trigger_flat, dtype=float).reshape(plan.layers + 1, width)
    guards = np.array(guard_flat, dtype=np.int8).reshape(plan.layers + 1, width)
    # Structurally absent nodes (punctured slots of a degraded topology) are
    # excluded like faulty nodes: nan trigger time, masked out of statistics.
    correct_mask = grid.presence_mask().copy()
    if fault_model is not None:
        correct_mask &= fault_model.correctness_mask()
    trigger_times[~correct_mask] = math.nan
    return PulseSolution(
        grid=grid,
        trigger_times=trigger_times,
        guards=guards,
        correct_mask=correct_mask,
        layer0_times=trigger_times[0, :].copy(),
        work=work,
    )
