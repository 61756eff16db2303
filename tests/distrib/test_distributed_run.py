"""End-to-end distributed runs: real worker processes, real TCP, real
signals — asserted bit-for-bit against the serial program.

These are the system's acceptance tests; they are slower than the unit
tests (each spawns several Python subprocesses).
"""

import threading
import time

import numpy as np
import pytest

import repro
from repro.core import Decomposition, Simulation
from repro.distrib import (
    DistributedRun,
    MonitorError,
    ProblemSpec,
    RunSettings,
    initial_fields,
)

pytestmark = pytest.mark.slow


def _spec(method="lb", blocks=(2, 2)):
    return ProblemSpec(
        method=method,
        grid_shape=(32, 24),
        blocks=blocks,
        periodic=(True, False),
        params={"nu": 0.1, "gravity": (1e-5, 0.0), "filter_eps": 0.02},
        geometry={"kind": "channel"},
    )


def _serial(spec, fields, steps):
    solid, _, _ = spec.build_geometry()
    d = Decomposition(
        spec.grid_shape, (1,) * spec.ndim, periodic=spec.periodic,
        solid=solid,
    )
    sim = Simulation(spec.build_method(), d, fields, solid)
    sim.step(steps)
    return sim


@pytest.mark.parametrize("method", ["lb", "fd"])
def test_distributed_matches_serial(tmp_path, method):
    spec = _spec(method)
    fields = initial_fields(spec, "rest")
    serial = _serial(spec, fields, steps=25)
    out = repro.run(
        spec, "distributed", RunSettings(steps=25),
        fields=fields, workdir=tmp_path / "run",
    ).fields
    for name in serial.method.field_names:
        assert np.array_equal(out[name], serial.global_field(name)), name
    # every active rank has its log, and no rank warned into it
    logs = sorted((tmp_path / "run" / "logs").glob("rank*.stdout"))
    assert len(logs) == spec.build_decomposition().n_active
    for log in logs:
        assert "RuntimeWarning" not in log.read_text(), log.name


def test_migration_preserves_bitwise_equality(tmp_path):
    """§5.1's dump -> rehost -> restart sequence must be invisible to
    the numerics."""
    spec = _spec()
    fields = initial_fields(spec, "rest")
    serial = _serial(spec, fields, steps=50)
    # step_delays keep the ranks stepping for >= 1 s, so the request at
    # 0.5 s lands mid-run however quickly the workers start
    run = DistributedRun(
        spec, fields, tmp_path / "run",
        RunSettings(steps=50, run_timeout=240, step_delays=[0.02] * 4),
    )
    mon = run.start()
    threading.Timer(0.5, lambda: mon.request_migration(1)).start()
    run.wait()
    out = run.collect()
    assert mon.migrations >= 1
    for name in serial.method.field_names:
        assert np.array_equal(out[name], serial.global_field(name)), name


def test_load_triggered_migration(tmp_path):
    """The monitoring program migrates a rank off a host whose
    five-minute load exceeds 1.5 (§5.1)."""
    spec = _spec()
    fields = initial_fields(spec, "rest")
    serial = _serial(spec, fields, steps=50)
    # step_delays keep the ranks stepping for >= 1 s, so the load at
    # 0.5 s lands mid-run however quickly the workers start
    run = DistributedRun(
        spec, fields, tmp_path / "run",
        RunSettings(steps=50, run_timeout=240, step_delays=[0.02] * 4),
    )
    mon = run.start()

    def make_busy():
        host = run.hostdb.host_of_rank(2)
        run.hostdb.set_load(host.name, load5=2.2)

    threading.Timer(0.5, make_busy).start()
    run.wait()
    out = run.collect()
    assert mon.migrations >= 1
    # the overloaded host no longer runs rank 2
    host = run.hostdb.host_of_rank(2)
    assert host.load5 < 1.5
    # the host table lives in the monitoring process: no registry file,
    # and the settings' host list is copied, never perturbed
    assert not (tmp_path / "run" / "hosts.json").exists()
    assert all(h.load5 == 0.0 for h in run.settings.hosts)
    for name in serial.method.field_names:
        assert np.array_equal(out[name], serial.global_field(name)), name


def test_staggered_checkpoints_written(tmp_path):
    spec = _spec(blocks=(2, 1))
    fields = initial_fields(spec, "rest")
    run = DistributedRun(
        spec, fields, tmp_path / "run",
        RunSettings(steps=30, save_every=10, run_timeout=240),
    )
    run.start()
    run.wait()
    dumps = sorted(p.name for p in (tmp_path / "run" / "dumps").iterdir())
    assert "ckpt000000010_rank0000.npz" in dumps
    assert "ckpt000000020_rank0001.npz" in dumps
    from repro.distrib import SaveTurns

    assert SaveTurns.latest_complete_step(tmp_path / "run") == 30


def test_crash_restarts_from_checkpoint(tmp_path):
    """§4.1: 'if an unrecoverable error occurs, [...] a new simulation
    is started from the last state which is saved automatically'."""
    spec = _spec(blocks=(2, 1))
    fields = initial_fields(spec, "rest")
    serial = _serial(spec, fields, steps=40)
    run = DistributedRun(
        spec, fields, tmp_path / "run",
        RunSettings(steps=40, save_every=10, run_timeout=240),
    )
    mon = run.start()

    def kill_one():
        # wait for the first complete checkpoint, then murder a worker
        from repro.distrib import SaveTurns

        deadline = time.time() + 60
        while SaveTurns.latest_complete_step(tmp_path / "run") is None:
            if time.time() > deadline:  # pragma: no cover
                return
            time.sleep(0.05)
        mon.procs[0].kill()

    threading.Thread(target=kill_one).start()
    run.wait()
    out = run.collect()
    assert mon.restarts >= 1
    for name in serial.method.field_names:
        assert np.array_equal(out[name], serial.global_field(name)), name


def test_inactive_blocks_use_fewer_workers(tmp_path):
    """Fig. 2: all-solid subregions get no worker process."""
    spec = ProblemSpec(
        method="lb",
        grid_shape=(96, 64),
        blocks=(2, 4),
        periodic=(False, False),
        params={"nu": 0.1, "filter_eps": 0.02},
        geometry={"kind": "flue_pipe", "variant": "channel",
                  "jet_speed": 0.05},
    )
    d = spec.build_decomposition()
    assert d.n_active < d.n_blocks, "fixture geometry must have inactive blocks"
    fields = initial_fields(spec, "rest")
    run = DistributedRun(
        spec, fields, tmp_path / "run", RunSettings(steps=10),
    )
    mon = run.start()
    assert len(mon.procs) == d.n_active
    run.wait()
    out = run.collect()
    assert np.isfinite(out["rho"]).all()


def test_nonempty_workdir_rejected(tmp_path):
    spec = _spec()
    fields = initial_fields(spec, "rest")
    wd = tmp_path / "run"
    wd.mkdir()
    (wd / "junk").touch()
    with pytest.raises(ValueError, match="not empty"):
        DistributedRun(spec, fields, wd, RunSettings(steps=5))
