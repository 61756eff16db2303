"""The §7 timing protocol."""

import pytest

from repro.harness import measure_node_speed, time_stepper


class FakeSim:
    """Step function with a controllable per-step cost."""

    def __init__(self, cost=0.0):
        self.cost = cost
        self.calls = []

    def step(self, n):
        self.calls.append(n)
        if self.cost:
            import time

            time.sleep(self.cost * n)


class TestTimeStepper:
    def test_warmup_then_repeats(self):
        sim = FakeSim()
        t = time_stepper(sim.step, steps=10, repeats=3, warmup=2)
        assert sim.calls == [2, 10, 10, 10]
        assert t.repeats == 3
        assert len(t.all_runs) == 3

    def test_best_of_repeats(self):
        sim = FakeSim()
        t = time_stepper(sim.step, steps=5, repeats=2, warmup=0)
        assert t.best == min(t.all_runs)
        assert t.seconds_per_step == t.best

    def test_measures_real_time(self):
        sim = FakeSim(cost=2e-3)
        t = time_stepper(sim.step, steps=5, repeats=3, warmup=0)
        assert t.seconds_per_step == pytest.approx(2e-3, rel=0.5)

    def test_no_warmup(self):
        sim = FakeSim()
        time_stepper(sim.step, steps=3, repeats=1, warmup=0)
        assert sim.calls == [3]  # exactly one timed run, no warmup


class TestNodeSpeed:
    def test_nodes_per_second(self):
        sim = FakeSim(cost=1e-3)
        speed = measure_node_speed(sim, n_nodes=1000, steps=5, repeats=1)
        assert speed == pytest.approx(1000 / 1e-3, rel=0.5)
