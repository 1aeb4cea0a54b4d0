"""``repro.obs``: zero-overhead-by-default observability.

The subsystem is a strict no-op unless explicitly enabled: module state starts
as ``None``, every public helper is guarded by one ``is None`` check, and no
instrumentation site in the deterministic core imports anything from here
(the DES hook is dependency-injected, see :mod:`repro.obs.capture`).

Three facilities share one on/off switch:

* **metrics** -- a process-global :class:`~repro.obs.metrics.MetricsRegistry`
  fed by counters/gauges/timers at instrumentation sites;
* **tracing** -- a :class:`~repro.obs.trace.Tracer` writing nested spans and
  point events to a ``hex-repro/trace/v1`` JSONL file;
* **DES event capture** -- per-run :class:`~repro.obs.capture.DesRunObserver`
  instances recording every simulation event into the trace.

The hard contract (test-enforced, see ``tests/test_obs.py``): enabling or
disabling any of these never changes content keys, seed streams or canonical
records.  Instrumentation *reads* state; it never draws randomness and never
mutates the simulation.

Typical programmatic use::

    from repro import obs

    with obs.observed(trace="run.jsonl", des_events=True) as session:
        result = runner.run()
    session.registry.write("metrics.json")

State crosses process boundaries through :mod:`repro.obs.context`: when the
parent has observability on, :func:`fork_context` captures a picklable
:class:`TraceContext` that the campaign runner passes through the pool
initializer.  Each worker then runs its own registry and (when tracing is on)
writes its own pid-suffixed trace shard; on pool teardown workers flush raw
metrics shards, the parent folds them back in with ``worker.*`` provenance
(:func:`absorb_worker_shards`), and the trace shards are deterministically
merged into the parent trace when it closes (:mod:`repro.obs.merge`).
"""

from __future__ import annotations

import os as _os
import shutil as _shutil
import tempfile as _tempfile
import time as _time
import warnings as _warnings
from pathlib import Path
from typing import Any, List, Optional, Tuple, Union

from repro.obs import resources
from repro.obs.capture import DesRunObserver, first_firing_matrix_from_events
from repro.obs.context import (
    SPAN_ID_STRIDE,
    TraceContext,
    find_metrics_shards,
    worker_metrics_path,
    worker_trace_path,
)
from repro.obs.log import configure_logging, get_logger
from repro.obs.merge import MergeReport, merge_trace
from repro.obs.metrics import (
    METRICS_SCHEMA,
    METRICS_SCHEMA_VERSION,
    WORKER_METRICS_SCHEMA,
    WORKER_METRICS_SCHEMA_VERSION,
    MetricsRegistry,
    load_metrics,
    load_worker_metrics,
    metrics_delta,
)
from repro.obs.trace import (
    TRACE_SCHEMA,
    TRACE_SCHEMA_VERSION,
    Tracer,
    TraceSink,
    load_trace,
    load_trace_records,
)

__all__ = [
    "METRICS_SCHEMA",
    "METRICS_SCHEMA_VERSION",
    "TRACE_SCHEMA",
    "TRACE_SCHEMA_VERSION",
    "WORKER_METRICS_SCHEMA",
    "WORKER_METRICS_SCHEMA_VERSION",
    "DesRunObserver",
    "MergeReport",
    "MetricsRegistry",
    "TraceContext",
    "Tracer",
    "TraceSink",
    "ObsSession",
    "configure_logging",
    "get_logger",
    "enable",
    "disable",
    "worker_init",
    "fork_context",
    "absorb_worker_shards",
    "observed",
    "enabled",
    "metrics_enabled",
    "tracing_enabled",
    "des_events_enabled",
    "registry",
    "tracer",
    "span",
    "event",
    "inc",
    "gauge",
    "observe",
    "des_observer",
    "record_des_observer",
    "load_metrics",
    "load_trace",
    "load_trace_records",
    "load_worker_metrics",
    "merge_trace",
    "metrics_delta",
    "resources",
    "first_firing_matrix_from_events",
]

# ----------------------------------------------------------------------
# module-global state (None == disabled == zero overhead)
# ----------------------------------------------------------------------
_registry: Optional[MetricsRegistry] = None
_tracer: Optional[Tracer] = None
_des_events: bool = False
#: Path of the live trace file (needed to locate worker shards at merge time).
_trace_path: Optional[Path] = None
#: Trace merges queued by :func:`absorb_worker_shards`, run when the parent
#: tracer closes (the parent trace must be complete before worker spans can be
#: re-parented under it).
_pending_merges: List[Tuple[Path, Optional[int]]] = []


class ObsSession:
    """Handle returned by :func:`enable` / :func:`observed`.

    Exposes the live registry/tracer so callers can snapshot metrics or
    inspect trace counters after the observed region ends.
    """

    def __init__(
        self, registry: Optional[MetricsRegistry], tracer: Optional[Tracer]
    ) -> None:
        self.registry = registry
        self.tracer = tracer

    def write_metrics(self, path: Union[str, Path]) -> Optional[Path]:
        """Write the metrics snapshot if metrics are on; returns the path."""
        if self.registry is None:
            return None
        return self.registry.write(path)


def worker_init(context: Optional[TraceContext] = None) -> None:
    """Initialize obs state in a pool worker process.

    Fork-started workers inherit the parent's enabled registry and tracer --
    including the open trace file handle, whose file offset is shared with
    the parent; several processes writing through it would interleave and
    corrupt the JSONL stream.  Workers therefore always drop the inherited
    state *without* closing the handle (a close would flush the worker's copy
    of the parent's unflushed buffer, duplicating lines).

    With a :class:`TraceContext` (parent had obs on), the worker then brings
    up its own session: a fresh registry, and -- when the parent was tracing
    -- a tracer writing this worker's own pid-suffixed shard, anchored at the
    parent's timeline origin with pid-namespaced span ids.  Teardown is
    registered through ``multiprocessing.util.Finalize`` (NOT ``atexit``,
    which pool children skip: they exit via ``os._exit`` after
    ``util._exit_function``, and only the latter runs these finalizers under
    both ``fork`` and ``spawn``): on worker exit the registry is flushed to a
    raw ``hex-repro/worker-metrics/v1`` shard and the trace shard is closed.

    Passed as the ``initializer`` of the campaign runner's multiprocessing
    pool, with :func:`fork_context`'s result as its ``initargs``.
    """
    global _registry, _tracer, _des_events, _trace_path, _pending_merges
    _registry = None
    _tracer = None
    _des_events = False
    _trace_path = None
    _pending_merges = []
    if context is None:
        return
    pid = _os.getpid()
    _registry = MetricsRegistry() if context.metrics else None
    if context.tracing:
        sink = TraceSink(
            worker_trace_path(context, pid),
            header_extra={
                "trace_id": context.trace_id,
                "worker": pid,
                "parent_span_id": context.parent_span_id,
            },
        )
        _tracer = Tracer(sink, origin=context.origin, id_offset=pid * SPAN_ID_STRIDE)
    _des_events = bool(context.des_events)
    from multiprocessing.util import Finalize

    Finalize(None, _worker_teardown, args=(context,), exitpriority=10)


def _worker_teardown(context: TraceContext) -> None:
    """Flush this worker's telemetry shards on process exit (idempotent)."""
    global _registry, _tracer, _des_events
    if _registry is not None:
        try:
            _registry.write_worker_snapshot(worker_metrics_path(context, _os.getpid()))
        except OSError:
            pass
    if _tracer is not None:
        _tracer.close()
    _registry = None
    _tracer = None
    _des_events = False


def fork_context() -> Optional[TraceContext]:
    """The picklable context pool workers need, or ``None`` when obs is off.

    Captured by the campaign runner immediately before creating its pool, so
    ``parent_span_id`` is the orchestrator span the workers' task spans will
    hang under after the merge (normally ``campaign.run``).  When only
    metrics are on, a throwaway shard directory is created for the workers'
    metrics shards; :func:`absorb_worker_shards` removes it.
    """
    if not enabled():
        return None
    tracing = _tracer is not None and _trace_path is not None
    if tracing:
        shard_dir = str(_trace_path.parent) or "."
        stem = _trace_path.stem
        origin = _tracer.origin
        parent_span_id = _tracer.current_span_id
    else:
        shard_dir = _tempfile.mkdtemp(prefix="hex-repro-obs-")
        stem = f"metrics-{_os.getpid()}"
        origin = 0.0
        parent_span_id = None
    return TraceContext(
        trace_id=f"{stem}-{_os.getpid()}",
        trace_stem=stem,
        shard_dir=shard_dir,
        origin=origin,
        parent_span_id=parent_span_id,
        tracing=tracing,
        metrics=_registry is not None,
        des_events=_des_events and tracing,
    )


def absorb_worker_shards(
    context: TraceContext, expected: Optional[int] = None
) -> None:
    """Fold worker telemetry shards back into the parent session.

    Called by the campaign runner after the pool has been ``close()``d and
    ``join()``ed (so every worker's ``Finalize`` teardown has flushed its
    shards).  Metrics shards merge immediately, every name prefixed with
    ``worker.``; trace shards are *queued* and merged when the parent tracer
    closes, because worker spans re-parent under orchestrator spans that are
    only written once the parent trace is complete.

    ``expected`` (the pool's worker count) makes incomplete telemetry loud: a
    missing shard raises a ``RuntimeWarning`` instead of merging silently.
    """
    shard_dir = Path(context.shard_dir)
    if context.metrics:
        shards = find_metrics_shards(shard_dir, context.trace_stem)
        if _registry is not None:
            if expected is not None and len(shards) < expected:
                _warnings.warn(
                    f"expected {expected} worker metrics shard(s) under "
                    f"{shard_dir}, found {len(shards)} -- merged counters are "
                    f"missing worker activity",
                    RuntimeWarning,
                    stacklevel=2,
                )
            for shard in shards:
                try:
                    payload = load_worker_metrics(shard)
                except (OSError, ValueError) as error:
                    _warnings.warn(
                        f"{shard}: unreadable worker metrics shard ({error}); "
                        f"dropped from merge",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    continue
                _registry.merge_worker_snapshot(payload)
        for shard in shards:
            try:
                shard.unlink()
            except OSError:
                pass
    if context.tracing and _trace_path is not None:
        entry = (Path(_trace_path), expected)
        if entry not in _pending_merges:
            _pending_merges.append(entry)
    if not context.tracing:
        _shutil.rmtree(shard_dir, ignore_errors=True)


def enable(
    *,
    metrics: bool = True,
    trace: Optional[Union[str, Path]] = None,
    des_events: bool = False,
) -> ObsSession:
    """Turn observability on for this process.

    Parameters
    ----------
    metrics:
        Create a fresh :class:`MetricsRegistry` fed by all ``inc``/``gauge``/
        ``observe`` sites.
    trace:
        Path of a ``hex-repro/trace/v1`` JSONL file; when given, spans and
        events are recorded through a fresh :class:`Tracer`.
    des_events:
        Capture every DES event of every run into the trace (requires
        ``trace``; expensive for large runs, meant for single-run forensics).
        Without a trace file, ``des_events`` still records per-kind counters
        if metrics are on.
    """
    global _registry, _tracer, _des_events, _trace_path
    disable()
    _registry = MetricsRegistry() if metrics else None
    _tracer = Tracer(TraceSink(trace)) if trace is not None else None
    _trace_path = Path(trace) if trace is not None else None
    _des_events = bool(des_events)
    return ObsSession(_registry, _tracer)


def _finalize_tracer() -> None:
    """Close the live tracer, then run any queued worker-shard merges."""
    global _tracer, _pending_merges
    if _tracer is not None:
        _tracer.close()
        _tracer = None
    pending, _pending_merges = _pending_merges, []
    for path, expected in pending:
        try:
            report = merge_trace(path, expected_shards=expected)
        except (OSError, ValueError) as error:
            _warnings.warn(
                f"trace merge failed for {path}: {error}",
                RuntimeWarning,
                stacklevel=3,
            )
            continue
        for message in report.warnings:
            _warnings.warn(message, RuntimeWarning, stacklevel=3)


def disable() -> None:
    """Turn observability off, closing any open trace file (idempotent).

    Closing the trace also merges any worker shards queued by
    :func:`absorb_worker_shards` into it.
    """
    global _registry, _tracer, _des_events, _trace_path
    _finalize_tracer()
    _registry = None
    _tracer = None
    _des_events = False
    _trace_path = None


class observed:
    """Context manager enabling observability for a region, then restoring.

    Restores whatever state was active before (normally: disabled), so nested
    or test use cannot leak an enabled registry into later code.
    """

    def __init__(
        self,
        *,
        metrics: bool = True,
        trace: Optional[Union[str, Path]] = None,
        des_events: bool = False,
    ) -> None:
        self._kwargs = {"metrics": metrics, "trace": trace, "des_events": des_events}
        self._previous: Optional[tuple] = None

    def __enter__(self) -> ObsSession:
        global _registry, _tracer, _des_events, _trace_path, _pending_merges
        self._previous = (_registry, _tracer, _des_events, _trace_path, _pending_merges)
        # Detach (without closing) any outer session before enable() resets:
        # a closed outer tracer must not be restored on exit.
        _registry, _tracer, _des_events, _trace_path = None, None, False, None
        _pending_merges = []
        return enable(**self._kwargs)

    def __exit__(self, *exc_info) -> None:
        global _registry, _tracer, _des_events, _trace_path, _pending_merges
        _finalize_tracer()
        assert self._previous is not None
        _registry, _tracer, _des_events, _trace_path, _pending_merges = self._previous
        self._previous = None


# ----------------------------------------------------------------------
# cheap state queries
# ----------------------------------------------------------------------
def enabled() -> bool:
    """Whether any observability facility is on."""
    return _registry is not None or _tracer is not None


def metrics_enabled() -> bool:
    """Whether the metrics registry is live."""
    return _registry is not None


def tracing_enabled() -> bool:
    """Whether a trace file is being written."""
    return _tracer is not None


def des_events_enabled() -> bool:
    """Whether per-run DES event capture was requested."""
    return _des_events


def registry() -> Optional[MetricsRegistry]:
    """The live registry, or ``None`` when metrics are off."""
    return _registry


def tracer() -> Optional[Tracer]:
    """The live tracer, or ``None`` when tracing is off."""
    return _tracer


# ----------------------------------------------------------------------
# no-op-guarded instrumentation API
# ----------------------------------------------------------------------
class _NullSpan:
    """Shared do-nothing span handle used while observability is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    """Context manager pairing ``Tracer.start_span`` with a metrics timer."""

    __slots__ = ("_name", "_attrs", "_span", "_timer_start", "_registry")

    def __init__(self, name: str, attrs: dict) -> None:
        self._name = name
        self._attrs = attrs
        self._span = None
        self._registry = _registry
        self._timer_start = 0.0

    def __enter__(self):
        if _tracer is not None:
            self._span = _tracer.start_span(self._name, **self._attrs)
        if self._registry is not None:
            self._timer_start = _time.perf_counter()
        return self._span if self._span is not None else self

    def __exit__(self, *exc_info) -> None:
        if self._registry is not None:
            self._registry.observe(
                f"{self._name}_s", _time.perf_counter() - self._timer_start
            )
        if self._span is not None and _tracer is not None:
            _tracer.end_span(self._span)

    def set(self, **attrs: Any) -> None:
        if self._span is not None:
            self._span.set(**attrs)


def span(name: str, **attrs: Any):
    """A traced + timed region; a shared no-op handle when obs is off.

    Meant for per-run / per-batch granularity (engine runs, campaign tasks),
    NOT for per-event loops -- those go through the dependency-injected
    :class:`DesRunObserver` instead.
    """
    if _tracer is None and _registry is None:
        return _NULL_SPAN
    return _LiveSpan(name, attrs)


def event(name: str, **attrs: Any) -> None:
    """Record a point-in-time trace event (no-op without a tracer)."""
    if _tracer is not None:
        _tracer.event(name, **attrs)


def inc(name: str, value: float = 1.0) -> None:
    """Increment a counter (no-op without metrics)."""
    if _registry is not None:
        _registry.inc(name, value)


def gauge(name: str, value: float) -> None:
    """Set a gauge (no-op without metrics)."""
    if _registry is not None:
        _registry.gauge(name, value)


def observe(name: str, seconds: float) -> None:
    """Record a timer observation (no-op without metrics)."""
    if _registry is not None:
        _registry.observe(name, seconds)


# ----------------------------------------------------------------------
# DES run capture plumbing (used by repro.engines.des)
# ----------------------------------------------------------------------
def des_observer() -> Optional[DesRunObserver]:
    """A fresh per-run observer when obs is on, else ``None``.

    The DES engine assigns the result to ``HexNetwork.observer``; a ``None``
    leaves the network's single ``is None`` guard as the only cost.
    """
    if not enabled():
        return None
    return DesRunObserver(capture_events=_des_events and _tracer is not None)


def record_des_observer(
    observer: Optional[DesRunObserver],
    *,
    events_scheduled: int = 0,
    events_processed: int = 0,
) -> None:
    """Flush one finished run's observer into the registry and tracer.

    ``events_scheduled`` / ``events_processed`` come from the network's
    :class:`~repro.simulation.engine.EventQueue` counters, which are
    maintained unconditionally (they predate obs and cost nothing extra), so
    the DES engine records them for every run; ``observer`` is ``None`` when
    the caller supplied its own network observer (a soak), whose counts the
    caller owns.
    """
    if _registry is not None:
        _registry.inc("des.events_scheduled", events_scheduled)
        _registry.inc("des.events_processed", events_processed)
        if observer is not None:
            for kind, count in sorted(observer.counts.items()):
                _registry.inc(f"des.{kind}", count)
    if _tracer is not None and observer is not None and observer.capture_events:
        for record in observer.events:
            attrs = dict(record)
            kind = attrs.pop("kind")
            _tracer.event("des.event", kind=kind, **attrs)
