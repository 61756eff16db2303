"""The stall rule: fires by name on an injected slow rank, stays silent
on a balanced run."""

import numpy as np

from repro.core import Decomposition, Simulation
from repro.fluids import FDMethod, FluidParams
from repro.graph import GraphExecutor, StallDetector, plan_graph

PARAMS = FluidParams.lattice(2, nu=0.05)


def _sim():
    shape = (32, 24)
    fields = {
        "rho": np.ones(shape),
        "u": np.zeros(shape),
        "v": np.zeros(shape),
    }
    return Simulation(
        FDMethod(PARAMS, 2),
        Decomposition(shape, (2, 1), periodic=(True, True)),
        fields,
    )


def test_executor_stall_fires_on_slow_rank():
    sim = _sim()
    graph = plan_graph(sim.decomp, sim.methods, 4)
    ex = GraphExecutor(
        sim, graph, step_delays=[0.08, 0.0],
        stall_factor=1.5, stall_floor=0.01,
    )
    ex.run()
    assert ex.stalls, "injected slow rank produced no stall events"
    # the slow rank is named: everything late belongs to rank 0's orbit
    assert any(e.rank == 0 or ":from0" in e.label for e in ex.stalls)
    for e in ex.stalls:
        assert e.waited > 1.5 * e.cost


def test_executor_silent_when_balanced():
    sim = _sim()
    graph = plan_graph(sim.decomp, sim.methods, 4)
    ex = GraphExecutor(sim, graph, stall_factor=50.0, stall_floor=1.0)
    ex.run()
    assert ex.stalls == []


def test_stall_detector_unit():
    """The node-granular rule, driven with synthetic timestamps."""
    sim = _sim()
    graph = plan_graph(sim.decomp, sim.methods, 1)
    node = graph.nodes[0]
    det = StallDetector(factor=2.0, floor=0.01)
    det.node_ready(node, now=0.0)
    assert det.check(now=0.005) == []
    events = det.check(now=2.0 * node.cost + 0.02)
    assert [e.label for e in events] == [node.label]
    # flagged once, not re-reported
    assert det.check(now=10.0) == []
    det.node_done(node.id)

