"""The threaded in-process runner: concurrency without divergence.

Bitwise parity with the serial runner across methods, dimensions and
decompositions is a runner parameter of
``tests/integration/test_parallel_equivalence.py``; this file covers
the facade's threaded backend (fields and diagnostics, hybrid seams),
repeated ``step`` calls, checkpoint/resume, absolute step numbering,
the barrier-free overlap, error propagation and one-block axes.
"""

import threading
import time

import numpy as np
import pytest

import repro
from repro.core import Decomposition, Simulation, ThreadedSimulation
from repro.distrib import ProblemSpec, RunSettings
from repro.distrib.initprog import initial_fields
from repro.fluids import (FDMethod, FluidParams, LBMethod,
                          channel_geometry)
from repro.trace import Tracer, load_trace
from tests.conftest import SERIAL_ID, perturbed_fields, rest_fields

#: Upstream half LB, downstream half FD — the seam sits on every block
#: boundary used below.
HYBRID = {
    "default": "lb",
    "regions": [{"box": [[16, 0], [32, 24]], "method": "fd"}],
}


def _spec(method, blocks):
    return ProblemSpec(
        method=method,
        grid_shape=(32, 24),
        blocks=blocks,
        periodic=(True, False),
        params={"nu": 0.1, "gravity": (1e-5, 0.0), "filter_eps": 0.02},
        geometry={"kind": "channel"},
    )


def _assert_equal_runs(serial, graphed):
    assert graphed.backend == "threaded"
    for name in serial.fields:
        assert np.array_equal(serial.fields[name],
                              graphed.fields[name]), name
    assert len(serial.diagnostics) == len(graphed.diagnostics)
    for a, b in zip(serial.diagnostics, graphed.diagnostics):
        assert (a.step, a.total_mass, a.kinetic_energy, a.max_speed,
                a.n_nonfinite) == (b.step, b.total_mass, b.kinetic_energy,
                                   b.max_speed, b.n_nonfinite)


@pytest.mark.parametrize("method", ["fd", "lb", "hybrid"])
@pytest.mark.parametrize("blocks", [(1, 1), (2, 1), (2, 2)])
def test_graph_matches_serial_bitwise(method, blocks):
    """The threaded backend lands on the serial run's fields and
    diagnostics, its graph planned in ``diag_every`` chunks."""
    if method == "hybrid" and blocks[0] < 2:
        pytest.skip("a hybrid seam needs a block boundary to sit on")
    spec = _spec(HYBRID if method == "hybrid" else method, blocks)
    rs = RunSettings(steps=6, diag_every=3)
    _assert_equal_runs(repro.run(spec, "serial", rs),
                       repro.run(spec, "threaded", rs))


def test_graph_overlaps_alternating_hotspot():
    """Dependency-driven execution hides an imbalance barriers cannot.

    A four-rank *chain* (axis 0 closed by walls) where rank 0 sleeps on
    even steps and the far-end rank on odd steps: one rank is slow every
    step, so any schedule with a per-step barrier pays the full delay
    every step — ``steps × delay`` at least.  A delay travels along
    fill->compute edges at nphases hops per step, and the ends sit
    n-1 > nphases hops apart, so in the graph run consecutive sleeps
    never chain — each rank waits only for its own, half that bill.
    The sleeps dominate the 16x24 kernels, which keeps the comparison
    independent of the host's speed.
    """
    n_ranks, steps, delay = 4, 10, 0.02
    shape = (16 * n_ranks, 24)
    solid = np.zeros(shape, dtype=bool)
    solid[0, :] = solid[-1, :] = True
    params = FluidParams.lattice(2, nu=0.05)
    x = np.arange(shape[0], dtype=float)[:, None] / shape[0]
    y = np.arange(shape[1], dtype=float)[None, :] / shape[1]
    fields = {
        "rho": 1.0 + 1e-3 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y),
        "u": np.zeros(shape),
        "v": np.zeros(shape),
    }

    def build(runner=Simulation, **kw):
        decomp = Decomposition(shape, (n_ranks, 1), periodic=(False, True),
                               solid=solid)
        return runner(FDMethod(params, 2), decomp, fields, solid, **kw)

    def delay_fn(rank: int, step: int) -> float:
        hot = 0 if step % 2 == 0 else n_ranks - 1
        return delay if rank == hot else 0.0

    ref = build()
    ref.step(steps)
    want = ref.global_state()

    thr = build(ThreadedSimulation, delay_fn=delay_fn)
    t0 = time.perf_counter()
    thr.step(steps)
    t_graph = time.perf_counter() - t0
    got = thr.global_state()

    for name in want:
        assert np.array_equal(got[name], want[name]), name
    assert t_graph < steps * delay, (t_graph, steps * delay)


def _spec_sim(spec, runner):
    """``runner`` built straight from ``spec``, hybrid seams included."""
    from repro.fluids.coupling import build_converters

    decomp = spec.build_decomposition()
    methods = list(spec.build_methods())
    solid, _, _ = spec.build_geometry()
    return runner(
        methods, decomp, initial_fields(spec, "rest"), solid,
        converters=build_converters(decomp, methods)
        if spec.is_hybrid else None,
    )


@pytest.mark.parametrize("method", ["fd", "hybrid"])
def test_resume_continues_serial_run_bitwise(tmp_path, method):
    """Threaded save, resume on another threaded runner, keep stepping:
    bit-for-bit the uninterrupted serial run.  The resuming runner has
    stepped its own state first, so per-rank lookups left over from
    before ``resume()`` would show."""
    spec = _spec(HYBRID if method == "hybrid" else method, (2, 2))
    ref = _spec_sim(spec, Simulation)
    ref.step(9)

    thr = _spec_sim(spec, ThreadedSimulation)
    thr.step(4)
    thr.save(tmp_path)

    other = _spec_sim(spec, ThreadedSimulation)
    other.step(2)
    other.resume(tmp_path)
    assert other.step_count == 4
    other.step(5)
    assert other.step_count == 9
    got, want = other.global_state(), ref.global_state()
    assert set(got) == set(want)
    for name in want:
        assert np.array_equal(got[name], want[name]), name


@pytest.mark.parametrize("runner", [
    pytest.param(Simulation, id=SERIAL_ID),
    pytest.param(ThreadedSimulation, id="threaded"),
])
def test_negative_steps_rejected(runner):
    """Both runners refuse ``step(-n)`` with the same error instead of
    silently doing nothing."""
    sim = runner(
        LBMethod(FluidParams.lattice(2, nu=0.08), 2),
        Decomposition((24, 16), (2, 1), periodic=(True, True)),
        rest_fields((24, 16)),
    )
    with pytest.raises(ValueError, match=r"^steps must be >= 0, got -2$"):
        sim.step(-2)
    assert sim.step_count == 0


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
