"""The threaded in-process runner: concurrency without divergence.

Bitwise parity with the serial runner across methods, dimensions and
decompositions is a runner parameter of
``tests/integration/test_parallel_equivalence.py``; this file covers
repeated ``step`` calls, absolute step numbering, error propagation and
one-block axes.
"""

import threading

import numpy as np
import pytest

from repro.core import Decomposition, Simulation, ThreadedSimulation
from repro.fluids import FluidParams, LBMethod, channel_geometry
from repro.trace import Tracer, load_trace
from tests.conftest import perturbed_fields, rest_fields


def _stepped(steps):
    """A 2x2 LB channel stepped ``steps`` times on worker threads."""
    shape = (32, 24)
    solid = channel_geometry(shape)
    params = FluidParams.lattice(
        2, nu=0.08, gravity=(1e-5, 0.0), filter_eps=0.02
    )
    thr = ThreadedSimulation(
        LBMethod(params, 2),
        Decomposition(shape, (2, 2), periodic=(True, False), solid=solid),
        perturbed_fields(shape, seed=21), solid,
    )
    thr.step(steps)
    return thr


def test_step_counts_advance_together():
    thr = _stepped(7)
    assert thr.step_count == 7
    assert all(s.step == 7 for s in thr.subs)


def test_repeated_step_calls():
    solid = channel_geometry((32, 24))
    params = FluidParams.lattice(2, nu=0.08, gravity=(1e-5, 0.0))
    fields = rest_fields((32, 24))
    thr = ThreadedSimulation(
        LBMethod(params, 2),
        Decomposition((32, 24), (2, 2), periodic=(True, False),
                      solid=solid),
        fields, solid,
    )
    seq = Simulation(
        LBMethod(params, 2),
        Decomposition((32, 24), (2, 2), periodic=(True, False),
                      solid=solid),
        fields, solid,
    )
    for _ in range(3):
        thr.step(5)
        seq.step(5)
    assert np.array_equal(thr.global_field("u"), seq.global_field("u"))


def test_single_subregion_fast_path():
    """One subregion steps like the serial runner, on one worker."""
    params = FluidParams.lattice(2, nu=0.08)
    fields = rest_fields((24, 16))
    thr = ThreadedSimulation(
        LBMethod(params, 2),
        Decomposition((24, 16), (1, 1), periodic=(True, True)),
        fields,
    )
    thr.step(5)
    assert thr.step_count == 5


def test_kernel_error_propagates():
    """A worker-thread exception surfaces in step(), not a deadlock,
    and every worker thread has exited by then."""

    class ExplodingMethod(LBMethod):
        def finalize_step(self, sub):
            if sub.step == 2 and sub.block.rank == 1:
                raise RuntimeError("boom at step 2")
            super().finalize_step(sub)

    params = FluidParams.lattice(2, nu=0.08)
    thr = ThreadedSimulation(
        ExplodingMethod(params, 2),
        Decomposition((24, 16), (2, 1), periodic=(True, True)),
        rest_fields((24, 16)),
    )
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="boom"):
        thr.step(10)
    assert threading.active_count() == before


def test_global_state_names():
    thr = _stepped(2)
    assert set(thr.global_state()) == {"rho", "u", "v", "f"}


def test_delays_and_spans_see_absolute_steps(tmp_path):
    """Two ``step(n)`` calls continue one step count: ``delay_fn`` and
    every traced span see 0..4, not a plan-relative 0..2 then 0..1."""
    seen = []
    lock = threading.Lock()

    def delay_fn(rank, step):
        with lock:
            seen.append((rank, step))
        return 0.0

    params = FluidParams.lattice(2, nu=0.08)
    tracer = Tracer(tmp_path / "trace.jsonl", rank=0)
    thr = ThreadedSimulation(
        LBMethod(params, 2),
        Decomposition((24, 16), (2, 1), periodic=(True, True)),
        rest_fields((24, 16)),
        tracer=tracer, delay_fn=delay_fn,
    )
    thr.step(3)
    thr.step(2)
    tracer.close()
    assert sorted(seen) == [(r, t) for r in (0, 1) for t in range(5)]
    spans = load_trace(tmp_path / "trace.jsonl")["spans"]
    for name in ("compute:0", "exchange:0", "finalize:0"):
        for tid in (0, 1):
            steps = sorted(s["step"] for s in spans
                           if s["name"] == name and s["tid"] == tid)
            assert set(steps) == set(range(5)), (name, tid, steps)


def test_has_no_close():
    """No pool outlives a step call, so there is nothing to close."""
    assert not hasattr(ThreadedSimulation, "close")
    assert not hasattr(ThreadedSimulation, "__enter__")


class TestLocalAxes:
    """Axes without cross-block traffic: replicate/hold fills only."""

    def _pair(self, blocks, periodic, steps=12):
        shape = (24, 20)
        params = FluidParams.lattice(
            2, nu=0.08, gravity=(1e-5, 0.0), filter_eps=0.02
        )
        fields = perturbed_fields(shape, seed=5)
        seq = Simulation(
            LBMethod(params, 2),
            Decomposition(shape, blocks, periodic=periodic),
            fields,
        )
        thr = ThreadedSimulation(
            LBMethod(params, 2),
            Decomposition(shape, blocks, periodic=periodic),
            fields,
        )
        seq.step(steps)
        thr.step(steps)
        return seq, thr

    def test_single_block_leading_axis_is_local(self):
        """blocks (1, 2), walls on axis 0: its edge ops are pure
        replicate/hold, ordered only against the rank's own nodes."""
        seq, thr = self._pair((1, 2), (False, False))
        for name in seq.method.field_names:
            assert np.array_equal(
                seq.global_field(name), thr.global_field(name)
            ), name

    def test_periodic_single_block_axis_stays_central(self):
        """A periodic wrap is a recv (self-roll) from the rank itself."""
        seq, thr = self._pair((1, 2), (True, False))
        for name in seq.method.field_names:
            assert np.array_equal(
                seq.global_field(name), thr.global_field(name)
            ), name

    def test_all_axes_central_when_fully_split(self):
        seq, thr = self._pair((2, 2), (True, False))
        for name in seq.method.field_names:
            assert np.array_equal(
                seq.global_field(name), thr.global_field(name)
            ), name
