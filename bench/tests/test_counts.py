"""Counts that must come out exactly, on the workloads' own problems.

Union of what the traced runs emit must also be the declared per-layer
set: every declared layer metric is produced by some workload.
"""

import json

import pytest

from bench import ROOT, layers
from bench.spans import Recorder
from bench.workloads import (
    SERVE_REPEATS, WORKLOADS, Ops, ServeDriver, make_inputs, start_gateway,
)

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
DECLARED = [m["name"] for m in CONTRACT["per_layer"]]


def traced(name, tmp_path):
    ops = Ops()
    work = tmp_path / "work"
    work.mkdir()
    got = layers.measure_layers(WORKLOADS[name], 5, 1.0, True, work, ops,
                                DECLARED)
    assert ops.problems == []
    return got


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return {
        name: traced(name, tmp_path_factory.mktemp(name))
        for name in ("lb3d_serial", "fd2d_tcp_2rank", "hybrid2d_serial",
                     "serve_mix")
    }


def test_every_declared_layer_metric_is_emitted_and_none_else(runs):
    emitted = set().union(*(r["emitted"] for r in runs.values()))
    assert emitted == set(DECLARED)


def test_exchange_and_seam_calls_per_step(runs):
    lb, fd, hy = (runs[n]["metrics"] for n in
                  ("lb3d_serial", "fd2d_tcp_2rank", "hybrid2d_serial"))
    assert fd["core.exchange_calls_per_step"] == 2      # §6: FD, 2 messages
    assert lb["core.exchange_calls_per_step"] == 1      # §6: LB, 1 message
    assert hy["core.exchange_calls_per_step"] == 2
    assert hy["fluids.seam_calls_per_step"] == 1
    assert lb["fluids.seam_calls_per_step"] == 0
    assert fd["fluids.seam_calls_per_step"] == 0


def test_ghost_and_wire_bytes_equal_the_hand_count(runs):
    fd = runs["fd2d_tcp_2rank"]["metrics"]
    # a 64x128 strip, pad 4: two faces of 4 x (128 + 2*4) nodes, and FD
    # ships 3 values per node per step (u, v, then rho) as float64
    per_rank = 2 * 4 * (128 + 8) * 3 * 8
    assert fd["net.bytes_per_step"] == per_rank == 26112
    assert fd["net.messages_per_step"] == 4             # 2 phases x 2 faces
    assert fd["core.ghost_bytes_per_step"] == 2 * per_rank
    # 64^3 duct, pad 3, periodic x only: two 3 x 70 x 70 strips of all 15
    # populations (the paper ships the 5 that cross the face)
    lb = runs["lb3d_serial"]["metrics"]
    assert lb["core.ghost_bytes_per_step"] == 2 * 3 * 70 * 70 * 15 * 8


def test_idle_layers_report_zero(runs):
    lb = runs["lb3d_serial"]["metrics"]
    assert all(v == 0 for k, v in lb.items()
               if k.startswith(("net.", "distrib.", "serve.", "model.")))
    serve = runs["serve_mix"]["metrics"]
    assert all(v == 0 for k, v in serve.items()
               if k.startswith(("fluids.", "core.", "net.", "distrib.")))


def test_serve_computes_each_distinct_job_once(runs, tmp_path):
    m = runs["serve_mix"]["metrics"]
    assert m["serve.cache_hit_ratio"] == 1.0
    assert m["serve.computed_jobs_per_round"] == 3      # quick: 3 distinct
    ops = Ops()
    gw = start_gateway(tmp_path / "serve")
    try:
        from repro.serve import ServeClient

        driver = ServeDriver(ServeClient(gw.address), WORKLOADS["serve_mix"],
                             7, True, ops)
        driver.round()
    finally:
        gw.shutdown()
    assert ops.problems == []
    assert driver.computed == len(driver.cold) == 3
    assert driver.hits == len(driver.warm) == 3 * SERVE_REPEATS


def test_traced_step_decomposes_into_children_plus_self():
    wl = WORKLOADS["hybrid2d_serial"]
    rec = Recorder("t")
    sim = layers.build_simulation(wl, make_inputs(wl.spec, 1), rec)
    sim.step(5)
    from bench.spans import self_times

    step = rec.spans[0]
    assert step.name == "core.step" and step.parent == -1
    children = [s for s in rec.spans if s.parent == 0]
    assert {s.name for s in children} == {
        "fluids.seam", "fluids.compute_phase0", "fluids.compute_phase1",
        "core.exchange", "fluids.finalize",
    }
    rebuilt = self_times(rec.spans)[0] + sum(s.duration for s in children)
    assert rebuilt == pytest.approx(step.duration, rel=0.02)
