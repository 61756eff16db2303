"""Discrete-event engine."""

import pytest

from repro.cluster import EventQueue


class TestEventQueue:
    def test_fires_in_time_order(self):
        q = EventQueue()
        seen = []
        q.schedule(3.0, lambda t: seen.append(("c", t)))
        q.schedule(1.0, lambda t: seen.append(("a", t)))
        q.schedule(2.0, lambda t: seen.append(("b", t)))
        q.run()
        assert seen == [("a", 1.0), ("b", 2.0), ("c", 3.0)]

    def test_ties_fire_in_schedule_order(self):
        q = EventQueue()
        seen = []
        for name in "abc":
            q.schedule(1.0, lambda t, n=name: seen.append(n))
        q.run()
        assert seen == ["a", "b", "c"]

    def test_now_advances(self):
        q = EventQueue()
        times = []
        q.schedule(5.0, lambda t: times.append(q.now))
        q.run()
        assert times == [5.0]
        assert q.now == 5.0

    def test_callbacks_can_schedule(self):
        q = EventQueue()
        seen = []

        def first(t):
            seen.append(t)
            if t < 3:
                q.schedule(t + 1.0, first)

        q.schedule(1.0, first)
        q.run()
        assert seen == [1.0, 2.0, 3.0]

    def test_run_until(self):
        q = EventQueue()
        seen = []
        q.schedule(1.0, lambda t: seen.append(t))
        q.schedule(10.0, lambda t: seen.append(t))
        q.run(until=5.0)
        assert seen == [1.0]
        q.run()
        assert seen == [1.0, 10.0]

    def test_cannot_schedule_in_past(self):
        q = EventQueue()
        q.schedule(2.0, lambda t: q.schedule(1.0, lambda t2: None))
        with pytest.raises(ValueError):
            q.run()

    def test_event_budget(self):
        q = EventQueue()

        def forever(t):
            q.schedule(t + 1.0, forever)

        q.schedule(0.0, forever)
        with pytest.raises(RuntimeError, match="budget"):
            q.run(max_events=1000)

    def test_determinism(self):
        def run_once():
            q = EventQueue()
            order = []
            for i in range(100):
                q.schedule((i * 37) % 10, lambda t, i=i: order.append(i))
            q.run()
            return order

        assert run_once() == run_once()
