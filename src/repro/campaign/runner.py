"""Campaign execution: serial or multiprocessing fan-out over run tasks.

:func:`execute_task` is the single entry point that turns a
:class:`~repro.campaign.spec.RunTask` into a
:class:`~repro.campaign.records.RunRecord`.  Execution dispatches through the
engine registry (:func:`repro.engines.get_engine`): the task is translated to
a :class:`~repro.engines.base.RunSpec` and handed to the engine's ``run``,
which reproduces the historical per-run bodies exactly -- same generator,
same draw order (layer-0 times, fault placement, fault behaviour, link delays
for single-pulse runs; fault placement, pulse schedule, simulation draws for
multi-pulse runs).  Because a task rebuilds its generator from
``(entropy, run_index)`` alone, the result is independent of which process
executes it and in which order: a campaign run with ``workers=8`` produces
canonically byte-identical records to a serial run.

:class:`CampaignRunner` expands a spec, consults the optional on-disk store
for already-completed tasks (``resume=True``), executes the remainder either
in-process or on a ``multiprocessing`` pool, persists results as they
complete (so an interrupted campaign resumes where it stopped) and returns
the records in deterministic task order.

Serial execution additionally groups consecutive same-engine single-pulse
tasks and dispatches each group through ``engine.run_batch``
(:func:`execute_task_batch`), so same-grid sweep cells amortize topology
construction and the solver's compiled plan.  Batching is purely a
wall-clock optimisation: the engine contract keeps batched results
bit-identical to per-task execution, so canonical records -- and therefore
the serial/parallel/resume equalities -- are unchanged.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.analysis.skew import SkewStatistics
from repro.analysis.stabilization import sigma_bound, stabilization_time
from repro.campaign.progress import ProgressReporter
from repro.campaign.records import RunRecord, group_by_point, pooled_statistics, stabilization_times
from repro.campaign.spec import CampaignSpec, RunTask
from repro.campaign.store import CampaignStore
from repro.clocksource.scenarios import parse_scenario
from repro.engines import Engine, get_engine
from repro.engines.des import scenario_layer0_spread
from repro.stream import StreamingMoments, StreamingQuantiles

__all__ = ["execute_task", "execute_task_batch", "CampaignResult", "CampaignRunner"]


def _single_pulse_record(task: RunTask, result) -> RunRecord:
    fault_model = result.fault_model
    mask = result.analysis_mask()
    # The clock-tree engine reports a sink-array matrix whose shape differs
    # from the hex grid's; its rows/columns are plain physical adjacency, so
    # the (wrapping) default applies.  Hex grids report their own wrap flag.
    wrap = bool(getattr(result.grid, "column_wrap", True))
    skew_row = SkewStatistics.from_times(result.trigger_times, mask, wrap=wrap).as_row()
    faulty = tuple(fault_model.faulty_nodes()) if fault_model is not None else ()
    return RunRecord(
        key=task.key(),
        kind=task.kind,
        cell_index=task.cell_index,
        point_index=task.point_index,
        run_index=task.run_index,
        params=task.to_json_dict(),
        skew=skew_row,
        faulty_nodes=faulty,
        trigger_times=result.trigger_times if task.keep_times else None,
        layer0_times=result.layer0_times if task.keep_times else None,
    )


def _execute_single_pulse(task: RunTask, engine: Engine) -> RunRecord:
    return _single_pulse_record(task, engine.run(task.to_run_spec()))


def _execute_multi_pulse(task: RunTask, engine: Engine) -> RunRecord:
    if "multi_pulse" not in engine.capabilities.kinds:
        # The engine sweep axis is documented as ignored by multi-pulse
        # points (the stabilization workload has a single semantics); fall
        # back to the discrete-event backend as the historical bodies did.
        engine = get_engine("des")
    result = engine.run(task.to_run_spec())
    grid, timing = result.grid, result.timing
    spread = scenario_layer0_spread(parse_scenario(task.scenario), grid.width, timing)
    estimate = stabilization_time(
        result, sigma_bound(grid, timing, task.skew_choice, task.num_faults, spread)
    )
    fault_model = result.fault_model
    faulty = tuple(fault_model.faulty_nodes()) if fault_model is not None else ()
    return RunRecord(
        key=task.key(),
        kind=task.kind,
        cell_index=task.cell_index,
        point_index=task.point_index,
        run_index=task.run_index,
        params=task.to_json_dict(),
        faulty_nodes=faulty,
        stabilization_time=float(estimate) if estimate is not None else float("nan"),
        total_firings=result.total_firings(),
    )


def execute_task(task: RunTask) -> RunRecord:
    """Execute one run task and return its record.

    Deterministic given the task (except for the recorded wall time), whatever
    process runs it -- the foundation of the serial/parallel equality and of
    the resumable cache.  The execution backend is resolved through
    :func:`repro.engines.get_engine`, so an unknown ``task.engine`` fails
    with the list of registered engines before any simulation work starts.
    """
    start = time.perf_counter()
    with obs.span("campaign.task", engine=task.engine, kind=task.kind) as task_span:
        usage = obs.resources.snapshot() if obs.enabled() else None
        engine = get_engine(task.engine)
        if task.kind == "single_pulse":
            record = _execute_single_pulse(task, engine)
        elif task.kind == "multi_pulse":
            record = _execute_multi_pulse(task, engine)
        else:
            raise ValueError(f"unknown task kind {task.kind!r}")
        if usage is not None:
            task_span.set(**obs.resources.delta_attrs(usage))
    record.wall_time_s = time.perf_counter() - start
    obs.inc("campaign.tasks_executed")
    return record


def execute_task_batch(tasks: Sequence[RunTask]) -> List[RunRecord]:
    """Execute a group of same-engine single-pulse tasks in one engine call.

    Dispatches the whole group through ``engine.run_batch`` (falling back to
    a per-spec loop for engines without one), so same-grid sweep cells share
    topology construction and the solver's compiled plan.  The
    engine-level batching contract guarantees canonical records identical to
    per-task execution; only :attr:`RunRecord.wall_time_s` -- which the
    canonical form excludes -- differs, and is stamped as the group's
    per-task average.
    """
    if not tasks:
        return []
    engine_name = tasks[0].engine
    for task in tasks:
        if task.kind != "single_pulse" or task.engine != engine_name:
            raise ValueError(
                "execute_task_batch needs same-engine single-pulse tasks; got "
                f"kind={task.kind!r} engine={task.engine!r} in a "
                f"{engine_name!r} batch"
            )
    start = time.perf_counter()
    with obs.span("campaign.task_batch", engine=engine_name, size=len(tasks)) as batch_span:
        usage = obs.resources.snapshot() if obs.enabled() else None
        engine = get_engine(engine_name)
        batch_run = getattr(engine, "run_batch", None)
        specs = [task.to_run_spec() for task in tasks]
        if batch_run is not None:
            results = batch_run(specs)
        else:
            results = [engine.run(spec) for spec in specs]
        records = [
            _single_pulse_record(task, result) for task, result in zip(tasks, results)
        ]
        if usage is not None:
            batch_span.set(**obs.resources.delta_attrs(usage))
    share = (time.perf_counter() - start) / len(tasks)
    for record in records:
        record.wall_time_s = share
    obs.inc("campaign.batches")
    obs.inc("campaign.batched_tasks", len(tasks))
    obs.inc("campaign.tasks_executed", len(tasks))
    return records


def _execute_indexed(indexed: Tuple[int, RunTask]) -> Tuple[int, RunRecord]:
    """Pool-friendly wrapper keeping each record paired with its task index."""
    index, task = indexed
    return index, execute_task(task)


@dataclass
class CampaignResult:
    """The outcome of a campaign run.

    Attributes
    ----------
    spec:
        The executed specification.
    records:
        One record per task, in deterministic task order (cells, then points,
        then run indices).
    executed, cached:
        How many tasks were simulated vs served from the store.
    wall_time_s:
        End-to-end campaign wall time.
    """

    spec: CampaignSpec
    records: List[RunRecord] = field(default_factory=list)
    executed: int = 0
    cached: int = 0
    wall_time_s: float = 0.0

    def records_for(
        self, cell_index: Optional[int] = None, point_index: Optional[int] = None
    ) -> List[RunRecord]:
        """Records filtered by cell and/or point index."""
        return [
            record
            for record in self.records
            if (cell_index is None or record.cell_index == cell_index)
            and (point_index is None or record.point_index == point_index)
        ]

    def point_statistics(
        self, cell_index: int, point_index: int, hops: int = 0
    ) -> SkewStatistics:
        """Pooled skew statistics of one grid point (single-pulse campaigns)."""
        return pooled_statistics(self.records_for(cell_index, point_index), hops=hops)

    def point_stabilization_times(self, cell_index: int, point_index: int) -> np.ndarray:
        """Per-run stabilization estimates of one point (multi-pulse campaigns)."""
        return stabilization_times(self.records_for(cell_index, point_index))

    def grouped(self) -> Dict[Tuple[int, int], List[RunRecord]]:
        """Records grouped by ``(cell_index, point_index)``."""
        return group_by_point(self.records)

    def wall_time_summary(self) -> Dict[str, float]:
        """Roll the per-task wall times up into a per-campaign summary.

        Aggregates the :attr:`RunRecord.wall_time_s` every record carries
        (workers stamp theirs, so the parallel path aggregates too; cached
        records keep the wall time of their original execution).  Keys:
        ``tasks``, ``executed``, ``cached``, ``task_total_s``,
        ``task_mean_s``, ``task_median_s``, ``task_p95_s``, ``tasks_per_s``
        (executed tasks per second of campaign wall time) and
        ``wall_time_s``.
        """
        times = sorted(
            record.wall_time_s
            for record in self.records
            if record.wall_time_s and math.isfinite(record.wall_time_s)
        )
        # One quantile/moment implementation for campaigns and soak runs
        # (repro.stream).  exact_cap=None keeps the accumulator exact, so
        # total/median/p95 stay bit-identical to the historical
        # float(sum(...)) / np.median / np.percentile(..., 95) spellings.
        moments = StreamingMoments()
        quantiles = StreamingQuantiles(exact_cap=None)
        for value in times:
            moments.add(value)
            quantiles.add(value)
        total = moments.total
        summary = {
            "tasks": float(len(self.records)),
            "executed": float(self.executed),
            "cached": float(self.cached),
            "task_total_s": total,
            "task_mean_s": total / len(times) if times else 0.0,
            "task_median_s": quantiles.median() if times else 0.0,
            "task_p95_s": quantiles.quantile(0.95) if times else 0.0,
            "tasks_per_s": (
                self.executed / self.wall_time_s if self.wall_time_s > 0 else 0.0
            ),
            "wall_time_s": float(self.wall_time_s),
        }
        return summary


class CampaignRunner:
    """Expand a campaign spec and execute it, serially or on a process pool.

    Parameters
    ----------
    spec:
        The campaign to run.
    workers:
        Number of worker processes; ``1`` executes in-process (no pool).
    store:
        Optional on-disk result cache -- a :class:`CampaignStore` or a
        directory path.  Completed records are appended as they arrive, so an
        interrupted campaign leaves a valid shard behind.
    resume:
        Reuse records already present in the store instead of re-simulating
        them.  Without ``resume`` an existing shard is overwritten.
    progress:
        ``True`` for a stderr progress/ETA line, a ready-made
        :class:`ProgressReporter`, or ``None``/``False`` for silence.
    batch_size:
        Maximum number of consecutive same-engine single-pulse tasks the
        serial path hands to one ``engine.run_batch`` call (see
        :func:`execute_task_batch`); sweep cells on the same grid then share
        topology construction and the solver's compiled plan.  ``1`` disables
        batching and restores strict per-task execution through the
        module-level :func:`execute_task` hook (which tests monkeypatch).
        Records are persisted as each batch completes, so an interrupt loses
        at most one in-flight batch.
    mp_start_method:
        Multiprocessing start method for the worker pool (``"fork"``,
        ``"spawn"`` or ``"forkserver"``); ``None`` uses the platform default.
        Records are start-method-independent (each task rebuilds its
        generator from ``(entropy, run_index)``), so this only affects how
        workers come up -- it exists so the cross-process observability path
        can be exercised under the macOS/Windows default (``spawn``) as well.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        workers: int = 1,
        store: Optional[Union[CampaignStore, str]] = None,
        resume: bool = False,
        progress: Union[bool, ProgressReporter, None] = None,
        batch_size: int = 32,
        mp_start_method: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if mp_start_method is not None:
            import multiprocessing

            available = multiprocessing.get_all_start_methods()
            if mp_start_method not in available:
                raise ValueError(
                    f"unknown multiprocessing start method {mp_start_method!r}; "
                    f"available: {', '.join(available)}"
                )
        self.spec = spec
        self.workers = workers
        self.batch_size = batch_size
        self.mp_start_method = mp_start_method
        if store is not None and not isinstance(store, CampaignStore):
            store = CampaignStore(store)
        self.store = store
        if resume and store is None:
            raise ValueError("resume=True requires a store")
        self.resume = resume
        if progress is True:
            progress = ProgressReporter(total=spec.num_tasks, label=spec.name)
        elif progress is False:
            progress = None
        self.progress = progress

    def run(self) -> CampaignResult:
        """Execute the campaign and return its ordered records."""
        with obs.span(
            "campaign.run", campaign=self.spec.name, workers=self.workers
        ):
            return self._run()

    def _run(self) -> CampaignResult:
        start = time.perf_counter()
        tasks = self.spec.tasks()

        cached: Dict[str, RunRecord] = {}
        if self.store is not None and self.resume:
            cached = self.store.load(self.spec)

        by_index: Dict[int, RunRecord] = {}
        pending: List[Tuple[int, RunTask]] = []
        for index, task in enumerate(tasks):
            # Hashing every task is only worthwhile when there is a cache to
            # probe; the executor stamps record keys itself.
            hit = cached.get(task.key()) if cached else None
            if hit is not None:
                # Serve each hit as an independent copy with the *current*
                # campaign coordinates: a task may have moved cells between
                # spec revisions, and two tasks with equal content keys
                # (cells differing only in label) must not alias one record.
                by_index[index] = dataclasses.replace(
                    hit,
                    cell_index=task.cell_index,
                    point_index=task.point_index,
                    run_index=task.run_index,
                    params=task.to_json_dict(),
                )
            else:
                pending.append((index, task))

        if self.progress is not None:
            self.progress.start(cached=len(by_index))
        obs.inc("campaign.cache_hits", len(by_index))
        obs.inc("campaign.tasks", len(tasks))

        result = CampaignResult(spec=self.spec, cached=len(by_index))
        writer_ctx = (
            self.store.open_writer(self.spec, append=self.resume)
            if self.store is not None
            else None
        )
        try:
            for index, record in self._execute_pending(pending):
                by_index[index] = record
                result.executed += 1
                if writer_ctx is not None:
                    writer_ctx.append(record)
                if self.progress is not None:
                    self.progress.advance()
        finally:
            if writer_ctx is not None:
                writer_ctx.close()
            if self.progress is not None:
                self.progress.finish()

        result.records = [by_index[index] for index in range(len(tasks))]
        result.wall_time_s = time.perf_counter() - start
        if obs.metrics_enabled():
            summary = result.wall_time_summary()
            for key in ("task_total_s", "task_median_s", "task_p95_s", "tasks_per_s"):
                obs.gauge(f"campaign.{key}", summary[key])
            if result.wall_time_s > 0:
                # Fraction of the worker-seconds budget spent inside tasks;
                # ~1.0 means the pool (or the serial loop) ran saturated.
                obs.gauge(
                    "campaign.worker_utilization",
                    summary["task_total_s"] / (self.workers * result.wall_time_s),
                )
            # Orchestrator-process resource accounting; worker CPU/RSS arrives
            # separately through the worker.* metrics fan-in.
            for name, value in obs.resources.usage_gauges("campaign").items():
                obs.gauge(name, value)
        return result

    def _execute_pending(self, pending: Sequence[Tuple[int, RunTask]]):
        """Yield ``(index, record)`` pairs as tasks complete."""
        if not pending:
            return
        if self.workers == 1 or len(pending) == 1:
            group: List[Tuple[int, RunTask]] = []
            for index, task in pending:
                batchable = task.kind == "single_pulse" and self.batch_size > 1
                if group and (
                    not batchable
                    or task.engine != group[-1][1].engine
                    or len(group) >= self.batch_size
                ):
                    yield from self._flush_group(group)
                    group = []
                if batchable:
                    group.append((index, task))
                else:
                    # Looked up through the module so tests can monkeypatch
                    # the executor for fault-injection and resume accounting.
                    yield index, execute_task(task)
            yield from self._flush_group(group)
            return
        import multiprocessing

        workers = min(self.workers, len(pending))
        chunksize = max(1, math.ceil(len(pending) / (workers * 4)))
        # With obs on in the parent, each worker runs its own instrumented
        # session: fork_context() captures the picklable TraceContext the
        # initializer needs to open a pid-suffixed trace shard and a fresh
        # registry (workers must never write through the parent's inherited
        # trace handle -- worker_init always drops that first).
        context = obs.fork_context()
        mp_context = (
            multiprocessing.get_context(self.mp_start_method)
            if self.mp_start_method is not None
            else multiprocessing
        )
        # Deliberately NOT `with Pool(...)`: the context manager form calls
        # terminate(), which kills workers before the Finalize teardown that
        # flushes their telemetry shards can run.  close()+join() lets every
        # worker exit cleanly; terminate() remains the error path.
        pool = mp_context.Pool(
            processes=workers, initializer=obs.worker_init, initargs=(context,)
        )
        try:
            for index, record in pool.imap_unordered(
                _execute_indexed, pending, chunksize=chunksize
            ):
                yield index, record
            pool.close()
        except BaseException:
            pool.terminate()
            raise
        finally:
            pool.join()
        if context is not None:
            obs.absorb_worker_shards(context, expected=workers)

    def _flush_group(self, group: Sequence[Tuple[int, RunTask]]):
        """Execute one pending batch group, yielding ``(index, record)`` pairs."""
        if not group:
            return
        if len(group) == 1:
            index, task = group[0]
            yield index, execute_task(task)
            return
        records = execute_task_batch([task for _, task in group])
        for (index, _), record in zip(group, records):
            yield index, record
