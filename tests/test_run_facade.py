"""The repro.run() facade: one call, four backends, one RunResult."""

import json
import threading

import numpy as np
import pytest

import repro
from repro.distrib import ProblemSpec, RunSettings


def _spec(method="fd", grid=(32, 24), blocks=(2, 2)):
    return ProblemSpec(
        method=method,
        grid_shape=grid,
        blocks=blocks,
        periodic=(True, False),
        params={"nu": 0.1, "gravity": (1e-5, 0.0), "filter_eps": 0.02},
        geometry={"kind": "channel"},
    )


def test_serial_runs_and_returns_fields():
    r = repro.run(_spec(), steps=5)
    assert r.backend == "serial" and r.steps == 5
    assert sorted(r.fields) == ["rho", "u", "v"]
    assert np.isfinite(r.fields["rho"]).all()
    assert r.trace_path is None and r.utilization is None
    assert r.timings == {}


def test_threaded_matches_serial_bitwise():
    serial = repro.run(_spec(), steps=8)
    threaded = repro.run(_spec(), "threaded", steps=8)
    assert threaded.backend == "threaded"
    for name in serial.fields:
        assert np.array_equal(serial.fields[name],
                              threaded.fields[name]), name


@pytest.mark.parametrize("backend", ["serial", "threaded"])
def test_traced_run_attaches_summary(tmp_path, backend):
    rs = RunSettings(steps=6, trace=True, diag_every=3)
    r = repro.run(_spec(), backend, rs, workdir=tmp_path)
    assert r.trace_path is not None and r.trace_path.exists()
    data = json.loads(r.trace_path.read_text())
    assert data["traceEvents"], "merged Chrome trace is empty"
    assert r.trace_summary.ranks[0].steps == 6
    assert 0.0 < r.utilization <= 1.0
    assert set(r.timings[0]) == {"t_comp", "t_comm", "t_other",
                                 "utilization"}
    # in-flight diagnostics sampled at steps 3 and 6
    assert [d.step for d in r.diagnostics] == [3, 6]


def test_traced_time_bounded_by_elapsed(tmp_path):
    """The trace cannot account more serial time than actually passed."""
    r = repro.run(_spec(), "serial", RunSettings(steps=6, trace=True),
                  workdir=tmp_path)
    t_total = r.trace_summary.ranks[0].t_total
    assert 0.0 < t_total <= r.elapsed * 1.05


def test_diagnostics_match_across_backends(tmp_path):
    rs = RunSettings(steps=6, diag_every=3)
    serial = repro.run(_spec(), "serial", rs)
    threaded = repro.run(_spec(), "threaded", rs)
    assert len(serial.diagnostics) == len(threaded.diagnostics) == 2
    for a, b in zip(serial.diagnostics, threaded.diagnostics):
        assert a.step == b.step
        assert a.total_mass == pytest.approx(b.total_mass)


def test_failed_threaded_run_releases_its_threads():
    """A run that raises mid-step still retires its worker pool."""
    from repro.distrib import DiagnosticsFailure
    from repro.distrib.initprog import initial_fields

    spec = _spec()
    fields = initial_fields(spec, None)
    fields["rho"][5, 5] = np.nan
    before = threading.active_count()
    with pytest.raises(DiagnosticsFailure):
        repro.run(spec, "threaded", RunSettings(steps=4, diag_every=1),
                  fields=fields)
    assert threading.active_count() == before


def test_simulated_backend(tmp_path):
    spec = _spec(grid=(100, 100), blocks=(2, 2))
    rs = RunSettings(steps=20, trace=True)
    r = repro.run(spec, "simulated", rs, workdir=tmp_path)
    assert r.backend == "simulated"
    assert r.fields is None, "the simulated backend models time only"
    assert r.sim.processors == 4
    assert r.elapsed == pytest.approx(r.sim.elapsed)
    assert r.trace_summary.n_ranks == 4
    assert r.trace_summary.simulated is True
    # the trace's utilization must agree with the simulator's own
    # compute-time accounting (same discrete events, two bookkeepers)
    sim_f = r.sim.compute_time_total / (r.sim.processors * r.sim.elapsed)
    assert r.utilization == pytest.approx(sim_f, rel=0.05)


def test_simulated_backend_requires_uniform_side():
    with pytest.raises(ValueError, match="uniform"):
        repro.run(_spec(grid=(32, 24)), "simulated", steps=3)


def test_simulated_backend_rejects_fields():
    spec = _spec(grid=(64, 64))
    with pytest.raises(ValueError, match="field data"):
        repro.run(spec, "simulated", steps=3,
                  fields={"rho": np.ones((64, 64))})


def test_bad_backend_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        repro.run(_spec(), "mpi", steps=1)


def test_steps_and_settings_must_agree():
    with pytest.raises(ValueError, match="contradicts"):
        repro.run(_spec(), "serial", RunSettings(steps=5), steps=9)
    with pytest.raises(ValueError, match="steps= or settings="):
        repro.run(_spec())


@pytest.mark.slow
def test_distributed_backend_end_to_end(tmp_path):
    """4 worker processes through the facade: fields match serial,
    diagnostics and the merged trace come back on the result."""
    rs = RunSettings(steps=10, trace=True, diag_every=5)
    r = repro.run(_spec(), "distributed", rs, workdir=tmp_path / "run")
    serial = repro.run(_spec(), steps=10)
    for name in serial.fields:
        assert np.array_equal(r.fields[name], serial.fields[name]), name
    assert [d.step for d in r.diagnostics] == [5, 10]
    assert r.trace_summary.n_ranks == 4
    assert all(bd.steps == 10 for bd in r.trace_summary.ranks)
    assert all(bd.bytes_sent > 0 for bd in r.trace_summary.ranks)
    data = json.loads(r.trace_path.read_text())
    assert data["otherData"]["ranks"] == 4
