"""In-memory spans recorded around calls into the program's public entry points.

The benchmark never edits the program: for a traced round it swaps selected
public functions and methods for thin wrappers (:class:`Instrumentation`)
that open a span on entry and close it on exit, then restores the originals.
Each span is ``[name, start, end, parent]``; a span's *self time* is its
duration minus the durations of its direct children, so the self times of
all spans under a root add up to the root's duration exactly -- the
attribution identity the traced run reports and the tests pin.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Name of the benchmark's own root span around one round; its self time is
#: the part of the round no wrapped layer accounts for.
ROOT = "bench.round"


class SpanRecorder:
    """Spans and counters of one traced round, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def current(self) -> Optional[str]:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def add(self, name: str, value: float) -> None:
        self.counts[name] += float(value)


def self_times(spans: List[List[Any]]) -> List[float]:
    """Per-span self time: duration minus the durations of direct children."""
    result = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            result[parent] -= end - start
    return result


def layer_self_times(spans: List[List[Any]]) -> Dict[str, float]:
    """Self time summed per span name."""
    totals: Dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] += own
    return dict(totals)


def call_durations(spans: List[List[Any]], name: str) -> List[float]:
    """Inclusive durations of every span called ``name``."""
    return [end - start for span_name, start, end, _ in spans if span_name == name]


class Instrumentation:
    """Temporarily wrap program entry points so calls record spans.

    Spans accumulate in :attr:`recorder` across every ``with`` block of one
    instance.  ``targets`` lists ``(owner, attribute, span name, hook)``: ``owner`` is a
    class or module, the span name ``None`` records no span, and ``hook``
    (or ``None``) is called as ``hook(recorder, result, args)`` after each
    call to add counts.  A call into a layer already innermost on the stack
    (an engine's batch method calling its own ``run``) records no nested
    span, so each layer's calls are counted once.
    """

    def __init__(self, targets: List[Tuple[Any, str, Optional[str], Optional[Callable]]]) -> None:
        self.targets = targets
        self.recorder = SpanRecorder()
        self._saved: List[Tuple[Any, str, Any]] = []

    def _wrap(self, function: Callable, name: Optional[str], hook: Optional[Callable]) -> Callable:
        instrumentation = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            recorder = instrumentation.recorder
            if name is None or recorder.current() == name:
                result = function(*args, **kwargs)
            else:
                index = recorder.open(name)
                try:
                    result = function(*args, **kwargs)
                finally:
                    recorder.close(index)
            if hook is not None:
                hook(recorder, result, args)
            return result

        return wrapper

    def __enter__(self) -> SpanRecorder:
        for owner, attribute, name, hook in self.targets:
            raw = vars(owner)[attribute]
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self._wrap(raw.__func__, name, hook))
            else:
                patched = self._wrap(raw, name, hook)
            self._saved.append((owner, attribute, raw))
            setattr(owner, attribute, patched)
        return self.recorder

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attribute, raw = self._saved.pop()
            setattr(owner, attribute, raw)
