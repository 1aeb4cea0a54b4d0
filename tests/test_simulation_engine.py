"""Tests for the event queue and the link delay models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.topology import HexGrid
from repro.simulation.engine import EventQueue
from repro.simulation.links import (
    ConstantDelays,
    FreshUniformDelays,
    TableDelays,
    UniformRandomDelays,
)


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.schedule(3.0, "c")
        queue.schedule(1.0, "a")
        queue.schedule(2.0, "b")
        assert [queue.pop()[1] for _ in range(3)] == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        for label in "abc":
            queue.schedule(1.0, label)
        assert [queue.pop()[1] for _ in range(3)] == ["a", "b", "c"]

    def test_now_advances_with_pops(self):
        queue = EventQueue()
        queue.schedule(2.5, "x")
        assert queue.now == 0.0
        queue.pop()
        assert queue.now == 2.5

    def test_cannot_schedule_in_the_past(self):
        queue = EventQueue()
        queue.schedule(5.0, "x")
        queue.pop()
        with pytest.raises(ValueError):
            queue.schedule(4.0, "y")

    def test_cannot_schedule_nonfinite(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.schedule(float("inf"), "x")
        with pytest.raises(ValueError):
            queue.schedule(float("nan"), "x")

    def test_peek_and_len(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        assert not queue
        queue.schedule(1.0, "a")
        assert queue.peek_time() == 1.0
        assert len(queue) == 1

    def test_pop_until(self):
        queue = EventQueue()
        for t in (1.0, 2.0, 3.0, 4.0):
            queue.schedule(t, t)
        popped = list(queue.pop_until(2.5))
        assert [time for time, _ in popped] == [1.0, 2.0]
        assert len(queue) == 2

    def test_counters(self):
        queue = EventQueue()
        queue.schedule(1.0, "a")
        queue.schedule(2.0, "b")
        queue.pop()
        assert queue.num_scheduled == 2
        assert queue.num_processed == 1

    def test_clear(self):
        queue = EventQueue()
        queue.schedule(1.0, "a")
        queue.clear()
        assert len(queue) == 0

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()


class TestDelayModels:
    def test_constant_delays(self):
        model = ConstantDelays(3.5)
        assert model.delay((0, 0), (1, 0)) == 3.5
        assert model.sample((0, 0), (1, 0)) == 3.5
        with pytest.raises(ValueError):
            ConstantDelays(0.0)

    def test_table_delays_default_and_override(self):
        model = TableDelays({((0, 0), (1, 0)): 2.0}, default=5.0)
        assert model.delay((0, 0), (1, 0)) == 2.0
        assert model.delay((0, 1), (1, 1)) == 5.0
        model.set((0, 1), (1, 1), 3.0)
        assert model.delay((0, 1), (1, 1)) == 3.0
        with pytest.raises(ValueError):
            model.set((0, 1), (1, 1), -1.0)
        with pytest.raises(ValueError):
            TableDelays({}, default=0.0)

    def test_uniform_delays_are_cached_and_in_range(self, timing, rng):
        model = UniformRandomDelays(timing, rng)
        first = model.delay((0, 0), (1, 0))
        second = model.delay((0, 0), (1, 0))
        assert first == second
        assert timing.d_min <= first <= timing.d_max

    def test_uniform_delays_differ_across_links(self, timing, rng):
        model = UniformRandomDelays(timing, rng)
        grid = HexGrid(layers=4, width=4)
        values = set(model.materialize(grid).values())
        assert len(values) > 10  # essentially all distinct

    def test_uniform_draw_equals_scalar_queries_on_distinct_links(self, timing):
        grid = HexGrid(layers=4, width=4)
        links = list(grid.links())
        scalar = UniformRandomDelays(timing, np.random.default_rng(9))
        batch = UniformRandomDelays(timing, np.random.default_rng(9))
        expected = [scalar.delay(*link) for link in links]
        assert batch.draw(len(links)).tolist() == expected
        # the generator is left in the same state: the next fresh link of
        # either model (any key neither has cached) draws the same value
        assert batch.delay((0, 0), (1, 0)) == scalar.delay((9, 9), (9, 9))
        with pytest.raises(ValueError, match="already cached"):
            batch.draw(1)

    def test_fresh_delays_resample_every_message(self, timing, rng):
        model = FreshUniformDelays(timing, rng)
        values = {model.sample((0, 0), (1, 0)) for _ in range(10)}
        assert len(values) > 1
        assert all(timing.d_min <= value <= timing.d_max for value in values)

    def test_validate_against(self, timing, rng):
        grid = HexGrid(layers=3, width=4)
        good = UniformRandomDelays(timing, rng)
        assert good.validate_against(timing, grid)
        bad = ConstantDelays(timing.d_max * 2)
        assert not bad.validate_against(timing, grid)
