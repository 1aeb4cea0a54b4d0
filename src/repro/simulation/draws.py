"""Exact block draws: scalar ``Generator.uniform`` calls served from buffers.

``Generator.uniform(low, high)`` returns ``low + (high - low) * u``, where
``u`` is the generator's next double -- the same doubles
``Generator.random(size=n)`` returns, in the same order.  A
:class:`UniformStream` therefore draws ``random(size=block)`` once and serves
scalar draws from the buffer: every value is bit-identical to the scalar call
it replaces, under any interleaving of bounds (verified on numpy 2.4.6, x86-64;
``tests/test_simulation_engine.py`` re-checks it).  A scalar numpy call costs
about 1.5 us; a buffered draw a fraction of that.

Closing a stream rewinds its generator to the state it had when the stream
opened and re-draws exactly the doubles that were handed out, so the
generator ends where the scalar calls would have left it.  The rewind only
uses ``bit_generator.state`` and ``random``, so it works for every bit
generator.

:class:`BlockDraws` holds one run's streams, one per generator (the DES
network's timer draws and the delay models' per-message draws share the
run's generator, so they must share its stream), and closes them all when
the run leaves its ``with`` block, normally or by exception.  While a stream
is open every draw on its generator must go through it: a direct draw would
shift the buffered values, so closing detects one and raises instead of
leaving the records silently wrong.
"""

from __future__ import annotations

import math
from operator import length_hint
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

__all__ = ["BlockDraws", "UniformStream"]

#: Doubles drawn by a stream's first refill; each refill doubles it up to
#: :data:`_MAX_BLOCK`, so short runs waste little and long runs refill rarely.
_FIRST_BLOCK = 256
_MAX_BLOCK = 16384
_INF = math.inf


def _comparable(state: Any) -> Any:
    """A ``bit_generator.state`` value in a form ``==`` can compare."""
    if isinstance(state, dict):
        return tuple(sorted((key, _comparable(value)) for key, value in state.items()))
    if isinstance(state, np.ndarray):
        return (state.dtype.str, state.tobytes())
    return state


class UniformStream:
    """Buffered scalar uniform draws from one generator (see module docstring)."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._entry_state = rng.bit_generator.state
        self._block = _FIRST_BLOCK
        #: Doubles in the buffers before the current one.
        self._spent = 0
        self._buffer: List[float] = []
        self._iter: Iterator[float] = iter(self._buffer)
        self._next = self._iter.__next__
        self._filled_state: Optional[Any] = None

    def uniform(self, low: float, high: float) -> float:
        """Exactly ``float(rng.uniform(low, high))``, errors included."""
        span = high - low
        if 0.0 <= span < _INF:
            try:
                return low + span * self._next()
            except StopIteration:
                return low + span * self._refill()
        if span < 0.0:
            raise ValueError("high - low < 0")
        raise OverflowError("high - low range exceeds valid bounds")

    def _refill(self) -> float:
        self._spent += len(self._buffer)
        block = self._block
        self._block = min(2 * block, _MAX_BLOCK)
        self._buffer = self._rng.random(block).tolist()
        self._filled_state = self._rng.bit_generator.state
        self._iter = iter(self._buffer)
        self._next = self._iter.__next__
        return self._next()

    @property
    def consumed(self) -> int:
        """Number of draws handed out so far."""
        return self._spent + len(self._buffer) - length_hint(self._iter)

    def close(self) -> None:
        """Rewind the generator to where the scalar draws would have left it.

        The stream is spent afterwards.

        Raises
        ------
        RuntimeError
            If the generator was drawn from directly while the stream was open.
        """
        rng = self._rng
        if self._filled_state is not None and _comparable(
            rng.bit_generator.state
        ) != _comparable(self._filled_state):
            raise RuntimeError(
                "a generator was drawn from directly while its block stream was "
                "open; a delay model drawing from the run's generator must draw "
                "through DelayModel.sampler"
            )
        remaining = self.consumed
        rng.bit_generator.state = self._entry_state
        while remaining > 0:
            count = min(remaining, _MAX_BLOCK)
            rng.random(count)
            remaining -= count


class BlockDraws:
    """The block streams of one run, one per generator.

    Use as a context manager: leaving the ``with`` block closes every stream
    (rewinding its generator exactly), also when the block exits by exception.
    """

    def __init__(self) -> None:
        self._streams: Dict[np.random.Generator, UniformStream] = {}

    def stream(self, rng: np.random.Generator) -> UniformStream:
        """The stream of ``rng`` (opened on first use)."""
        stream = self._streams.get(rng)
        if stream is None:
            stream = self._streams[rng] = UniformStream(rng)
        return stream

    def __enter__(self) -> "BlockDraws":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        failure: Optional[RuntimeError] = None
        for stream in self._streams.values():
            try:
                stream.close()
            except RuntimeError as error:
                failure = failure or error
        self._streams.clear()
        if failure is not None:
            raise failure
