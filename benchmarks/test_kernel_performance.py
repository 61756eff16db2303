"""Kernel throughput on this machine (proper pytest-benchmark timing).

The §7 speed table's modern counterpart: fluid nodes integrated per
second for each (method x dimensionality), measured over repeated
rounds by pytest-benchmark, plus the ghost-exchange overhead.  These
are the numbers a user sizing a run on today's hardware needs, in the
same units the paper reports (nodes/s, padded areas excluded).
"""

import pytest

from repro.distrib import ProblemSpec


def _sim(method, ndim, side, blocks=None):
    return ProblemSpec(
        method=method,
        grid_shape=(side,) * ndim,
        blocks=blocks or (1,) * ndim,
        periodic=(True,) * ndim,
        params={"nu": 0.05},
    ).build_simulation()


@pytest.mark.parametrize(
    "method,ndim,side",
    [
        ("lb", 2, 128),
        ("fd", 2, 128),
        ("lb", 3, 24),
        ("fd", 3, 24),
    ],
    ids=["lb2d", "fd2d", "lb3d", "fd3d"],
)
def test_step_throughput(benchmark, method, ndim, side):
    sim = _sim(method, ndim, side)
    sim.step(2)  # warm caches and lazy allocations
    benchmark(sim.step, 1)
    nodes = side**ndim
    rate = nodes / benchmark.stats.stats.mean
    benchmark.extra_info["nodes_per_second"] = rate
    # the slowest kernel on any current machine still beats the 1994
    # HP 715/50 (39 132 nodes/s LB 2D)
    assert rate > 39_132


def test_exchange_overhead_2d(benchmark):
    """Cost of one full ghost exchange relative to a compute step."""
    sim = _sim("lb", 2, 128, blocks=(2, 2))
    sim.step(2)
    ex = sim.exchanger
    benchmark(ex.exchange, ("f",))
    # the in-process exchange must be a small fraction of a step
    # (communication cost lives in the transports, not the copies)
    assert benchmark.stats.stats.mean < 0.05


def test_filter_cost_share(benchmark):
    """The fourth-order filter is a bounded fraction of an FD step."""
    sim = _sim("fd", 2, 128)
    sim.step(2)
    sub = sim.subs[0]
    method = sim.method
    g1 = sub.grown_interior(1)
    benchmark(method.filter.apply, sub, method.field_names, g1)
    assert benchmark.stats.stats.mean < 0.1
