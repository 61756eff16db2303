"""The planner: structurally correct DAGs."""

from collections import Counter

import pytest

from repro.core import Decomposition
from repro.core.taskgraph import plan_graph
from repro.fluids import FDMethod, FluidParams, LBMethod

PARAMS = FluidParams.lattice(2, nu=0.05)


def _fd_plan(blocks=(2, 1), steps=3):
    decomp = Decomposition((32, 24), blocks, periodic=(True, True))
    methods = [FDMethod(PARAMS, 2) for _ in decomp.active_blocks()]
    return plan_graph(decomp, methods, steps)


def test_validate_is_topological():
    """Ids are dense, every dependency points backwards."""
    graph = _fd_plan(steps=3)
    graph.validate()
    for node in graph.nodes:
        assert all(d < node.id for d in node.deps), node.label


def test_node_counts_fd():
    steps, n_ranks = 3, 2
    graph = _fd_plan(blocks=(n_ranks, 1), steps=steps)
    counts = Counter(n.kind for n in graph.nodes)
    nphases = len(FDMethod(PARAMS, 2).exchange_phases)
    assert counts["compute"] == steps * n_ranks * nphases
    assert counts["finalize"] == steps * n_ranks
    assert counts.get("exchange", 0) > 0
    assert set(counts) <= {"compute", "exchange", "replicate", "finalize"}


def test_lb_plan_single_phase():
    decomp = Decomposition((32, 24), (2, 1), periodic=(True, True))
    methods = [LBMethod(PARAMS, 2) for _ in decomp.active_blocks()]
    graph = plan_graph(decomp, methods, 2)
    nphases = len(LBMethod(PARAMS, 2).exchange_phases)
    assert Counter(n.kind for n in graph.nodes)["compute"] == 2 * 2 * nphases


def test_hybrid_seam_edges():
    """Converter edges become per-step seam nodes and are removed from
    the regular exchange set."""
    decomp = Decomposition((32, 24), (2, 1), periodic=(True, True))
    methods = [FDMethod(PARAMS, 2), LBMethod(PARAMS, 2)]
    edges = ((0, 1), (1, 0))
    steps = 3
    graph = plan_graph(decomp, methods, steps, converter_edges=edges)
    seams = [n for n in graph.nodes if n.kind == "seam"]
    assert seams, "hybrid plan produced no seam nodes"
    assert {(n.rank, n.src) for n in seams} == set(edges)
    for n in graph.nodes:
        if n.kind == "exchange":
            assert (n.rank, n.src) not in set(edges), n.label


def test_mismatched_methods_rejected():
    decomp = Decomposition((32, 24), (2, 1), periodic=(True, True))
    with pytest.raises(ValueError, match="methods"):
        plan_graph(decomp, [FDMethod(PARAMS, 2)], 1)
    with pytest.raises(ValueError, match="steps"):
        plan_graph(decomp, [FDMethod(PARAMS, 2)] * 2, -1)

