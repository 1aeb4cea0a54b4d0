"""The time-ordered event queue driving the HEX discrete-event simulation.

The queue is a thin, fully deterministic wrapper around :mod:`heapq`:

* events are ordered by scheduled time;
* ties are broken by insertion order (a monotonically increasing sequence
  number), never by comparing event payloads;
* time never moves backwards -- scheduling an event in the past of the current
  simulation time raises, which catches subtle causality bugs early.

Entries are ``(time, seq, event)`` tuples for :meth:`EventQueue.schedule` and
flat ``(time, seq, kind, a, b, c)`` tuples for :meth:`EventQueue.push`, the
int-coded events of :class:`repro.simulation.network.HexNetwork`, whose
compiled loop pops and pushes the heap directly (with the same checks and
counters) and syncs :attr:`EventQueue.now` and the counters back.

Keeping the engine this small (schedule / pop / peek) pushes all domain logic
into :mod:`repro.simulation.network`, which makes both parts easy to test in
isolation.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Generic, Iterator, List, Optional, Tuple, TypeVar

__all__ = ["EventQueue"]

E = TypeVar("E")


class EventQueue(Generic[E]):
    """A deterministic priority queue of timestamped events.

    Examples
    --------
    >>> q = EventQueue()
    >>> q.schedule(2.0, "b")
    >>> q.schedule(1.0, "a")
    >>> q.pop()
    (1.0, 'a')
    >>> q.now
    1.0
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._heap: List[Tuple[Any, ...]] = []
        self._now = float(start_time)
        #: Also the sequence number of the next entry (the tie-breaker).
        self._num_scheduled = 0
        self._num_processed = 0

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The current simulation time (time of the last popped event)."""
        return self._now

    @property
    def num_scheduled(self) -> int:
        """Total number of events scheduled so far."""
        return self._num_scheduled

    @property
    def num_processed(self) -> int:
        """Total number of events popped so far."""
        return self._num_processed

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def check_time(self, time: float) -> None:
        """Raise ``ValueError`` unless ``time`` may be scheduled now.

        Raises
        ------
        ValueError
            If ``time`` lies strictly before the current simulation time or is
            not finite.
        """
        if not math.isfinite(time):
            raise ValueError(f"cannot schedule an event at non-finite time {time}")
        if time < self._now - 1e-12:
            raise ValueError(
                f"cannot schedule an event at {time} before current time {self._now}"
            )

    def schedule(self, time: float, event: E) -> None:
        """Schedule ``event`` at absolute ``time`` (see :meth:`check_time`)."""
        self.check_time(time)
        seq = self._num_scheduled
        heapq.heappush(self._heap, (float(time), seq, event))
        self._num_scheduled = seq + 1

    def push(self, time: float, kind: int, a: Any, b: Any = None, c: Any = None) -> None:
        """Schedule a flat ``(time, seq, kind, a, b, c)`` entry at ``time``."""
        self.check_time(time)
        seq = self._num_scheduled
        heapq.heappush(self._heap, (float(time), seq, kind, a, b, c))
        self._num_scheduled = seq + 1

    def peek_time(self) -> Optional[float]:
        """The time of the next event, or ``None`` if the queue is empty."""
        if not self._heap:
            return None
        return self._heap[0][0]

    def pop(self) -> Tuple[float, Any]:
        """Remove and return the next ``(time, event)`` pair, advancing time.

        The event of a :meth:`push` entry is its ``(kind, a, b, c)`` tuple.

        Raises
        ------
        IndexError
            If the queue is empty.
        """
        entry = heapq.heappop(self._heap)
        time = entry[0]
        self._now = time
        self._num_processed += 1
        return time, (entry[2] if len(entry) == 3 else entry[2:])

    def pop_until(self, horizon: float) -> Iterator[Tuple[float, E]]:
        """Yield events in time order up to (and including) ``horizon``."""
        while self._heap and self._heap[0][0] <= horizon:
            yield self.pop()

    def clear(self) -> None:
        """Drop all pending events (current time is preserved)."""
        self._heap.clear()
