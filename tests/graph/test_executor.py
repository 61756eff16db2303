"""Graph execution — how threaded runs step — is bit-for-bit the serial
run, through the facade and through the raw executor."""

import numpy as np
import pytest

import repro
from repro.distrib import ProblemSpec, RunSettings

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
    if method == "hybrid" and blocks[0] < 2:
        pytest.skip("a hybrid seam needs a block boundary to sit on")
    """The threaded backend lands on the serial run's fields and
    diagnostics, its graph planned in ``diag_every`` chunks."""
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
    import time

    from repro.core import Decomposition, Simulation, ThreadedSimulation
    from repro.fluids import FDMethod, FluidParams

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


def test_executor_direct_api():
    """The raw executor drives a Simulation exactly n steps."""
    from repro.core import Decomposition, Simulation
    from repro.fluids import FDMethod, FluidParams
    from repro.graph import GraphExecutor, plan_graph

    params = FluidParams.lattice(2, nu=0.05)
    shape = (32, 24)
    rng = np.random.default_rng(7)
    fields = {
        "rho": 1.0 + 1e-3 * rng.standard_normal(shape),
        "u": np.zeros(shape),
        "v": np.zeros(shape),
    }

    def build():
        return Simulation(
            FDMethod(params, 2),
            Decomposition(shape, (2, 2), periodic=(True, True)),
            fields,
        )

    ref = build()
    ref.step(5)

    sim = build()
    ex = GraphExecutor(sim, plan_graph(sim.decomp, sim.methods, 5))
    ex.run()
    got, want = sim.global_state(), ref.global_state()
    for name in want:
        assert np.array_equal(got[name], want[name]), name
    assert all(sub.step == 5 for sub in sim.subs)
