"""The analytic single-pulse solver as an execution engine.

Draw order (the reproducibility contract, identical to the historical
``execute_task`` single-pulse body): layer-0 firing times, then fault
placement and behaviour, then the per-link delays -- which
:class:`~repro.simulation.links.UniformRandomDelays` draws lazily inside the
solver's own link traversal, exactly as before.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.clocksource.scenarios import scenario_layer0_times
from repro.core.parameters import TimingConfig
from repro.core.pulse_solver import solve_single_pulse
from repro.core.topology import HexGrid
from repro.engines.base import (
    EngineCapabilities,
    RunResult,
    RunSpec,
    batch_key,
    require_kind,
    require_schedule_support,
    require_topology_support,
    validate_layer0,
)
from repro.faults.models import FaultModel
from repro.faults.placement import build_fault_model
from repro.simulation.links import DelayModel, UniformRandomDelays

__all__ = ["SolverEngine"]


def _record_solver_work(solution) -> None:
    """Record one solution's deterministic work counters (no-op when off).

    ``solver.heap_pushes`` / ``solver.frontier_advances`` /
    ``solver.messages_delivered`` are pure functions of topology, delays and
    faults (see :attr:`~repro.core.pulse_solver.PulseSolution.work`), so they
    diagnose perf regressions independent of wall clock and are identical
    whether a sweep ran serially or across pool workers.
    """
    if not obs.metrics_enabled():
        return
    for name, value in solution.work.items():
        obs.inc(f"solver.{name}", value)


class SolverEngine:
    """The paper's single-pulse semantics: the analytic fixed-point solver.

    Fast and exact under constraints (C1)/(C2); the reference backend for the
    skew experiments (Tables 1-2, Figs. 8-16).
    """

    name = "solver"
    capabilities = EngineCapabilities(
        kinds=("single_pulse",),
        supports_faults=True,
        supported_topologies=("*",),
        exactness="bit_identical",
        description="analytic single-pulse fixed-point solver (exact under (C1)/(C2))",
    )

    def run(self, spec: RunSpec) -> RunResult:
        """Execute a declarative single-pulse run (scenario-driven draws)."""
        with obs.span("engine.run", engine=self.name, kind=spec.kind):
            obs.inc("engine.solver.runs")
            return self._run(spec, spec.make_grid())

    def run_batch(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Execute several single-pulse runs, sharing one grid per batch key.

        Bit-identical to ``[run(spec) for spec in specs]`` (pinned by the
        test suite): each distinct :func:`~repro.engines.base.batch_key`
        builds its grid once, so fault placement reuses the grid's neighbour
        tables, and every run on it shares the grid's cached
        :func:`~repro.core.pulse_solver.solver_plan`.  Grid construction
        consumes no randomness, so the sharing cannot perturb seeded draws.
        """
        with obs.span("engine.run_batch", engine=self.name, size=len(specs)):
            obs.inc("engine.solver.runs", len(specs))
            grids: Dict[Tuple[str, int, int], HexGrid] = {}
            results: List[RunResult] = []
            for spec in specs:
                key = batch_key(spec)
                if key not in grids:
                    grids[key] = spec.make_grid()
                results.append(self._run(spec, grids[key]))
            return results

    def _run(self, spec: RunSpec, grid: HexGrid) -> RunResult:
        require_kind(self, spec)
        require_schedule_support(self, spec)
        require_topology_support(self, spec)
        generator = spec.rng()
        timing = spec.make_timing()
        layer0 = scenario_layer0_times(spec.scenario, grid.width, timing, rng=generator)
        fault_model = build_fault_model(
            grid,
            spec.num_faults,
            spec.make_fault_type(),
            generator,
            fixed_positions=spec.fixed_fault_positions,
        )
        result = self.single_pulse(
            grid,
            timing,
            layer0,
            rng=generator,
            fault_model=fault_model,
            delays=spec.make_delays(timing, generator, kind_default="uniform"),
        )
        result.spec = spec
        return result

    def single_pulse(
        self,
        grid: HexGrid,
        timing: TimingConfig,
        layer0_times: Sequence[float],
        *,
        rng: Optional[np.random.Generator] = None,
        fault_model: Optional[FaultModel] = None,
        delays: Optional[DelayModel] = None,
    ) -> RunResult:
        """Propagate one pulse wave with explicit inputs.

        ``rng`` is drawn from only to default ``delays`` to per-link uniform
        draws; a caller passing its own delay model needs none.
        """
        layer0 = validate_layer0(grid, layer0_times)
        if delays is None:
            if rng is None:
                raise ValueError("single_pulse needs a delay model or an rng to draw one")
            delays = UniformRandomDelays(timing, rng)
        solution = solve_single_pulse(grid, layer0, delays, fault_model=fault_model)
        _record_solver_work(solution)
        return RunResult(
            engine=self.name,
            kind="single_pulse",
            grid=grid,
            timing=timing,
            trigger_times=solution.trigger_times,
            correct_mask=solution.correct_mask,
            layer0_times=solution.layer0_times,
            solution=solution,
            fault_model=fault_model,
        )
