"""Monitor recovery edge cases: checkpoint selection and restart limits.

Unit-level coverage of :meth:`Monitor._restart_from_checkpoint` and the
machinery around it — the paths a live chaos run only exercises by
luck: a corrupt *newest* checkpoint, a checkpoint missing one rank's
dump, an exhausted restart budget, and a migration or rebalance epoch
that breaks mid-sequence.  Worker processes are faked; only the
wake-on-exit check spawns a real (short-lived) child.
"""

import json
import os
import signal
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

import repro.distrib.monitor as monitor_mod
from repro.chaos import corrupt_dump
from repro.core import Decomposition, make_subregions
from repro.distrib import MonitorError, dump_path, save_dump
from repro.distrib.hostdb import HostDB
from repro.distrib.journal import Journal, read_journal
from repro.distrib.monitor import Monitor, _EpochBroken
from repro.distrib.sync import SaveTurns
from repro.distrib.worker import EXIT_MIGRATED, EXIT_REBALANCED
from repro.net import PortRegistry
from tests.distrib.test_dumpfile import drop_checksums

RANKS = (0, 1)


def _messages(workdir, kind_prefix: str = "") -> str:
    """The journal's ``msg`` fields whose kind starts with
    ``kind_prefix``, one per line."""
    return "\n".join(rec["msg"] for rec in read_journal(workdir)
                     if rec["kind"].startswith(kind_prefix))


class _DeadProc:
    """A worker process that has already exited."""

    pid = 99999
    returncode = 0
    maxrss_kb = 0

    def poll(self):
        return 0

    def send_signal(self, sig):  # pragma: no cover - dead already
        pass

    def wait(self, timeout=None):
        return 0

    def kill(self):  # pragma: no cover - dead already
        pass


class _LeavingProc:
    """A running worker that exits with ``code`` once SIGUSR2 lands."""

    pid = 99998
    maxrss_kb = 0

    def __init__(self, code):
        self.code = code
        self.returncode = None

    def poll(self):
        return self.returncode

    def send_signal(self, sig):
        if sig == signal.SIGUSR2:
            self.returncode = self.code

    def wait(self, timeout=None):
        return self.returncode

    def kill(self):  # pragma: no cover - exits on the signal
        self.returncode = -9


def _leaving_group(mon, tmp_path, code):
    """Replace ``mon``'s workers with running ones that leave with
    ``code`` when signalled, each registered for generation 0."""
    mon.procs = {rank: _LeavingProc(code) for rank in RANKS}
    registry = PortRegistry(tmp_path / "ports_tcp.txt")
    for rank in RANKS:
        registry.register(0, rank, "localhost", 50000 + rank)


def _write_checkpoint(workdir, step, ranks=RANKS):
    """A complete checkpoint: one valid dump per rank + the marker."""
    rng = np.random.default_rng(step)
    shape = (20, 16)
    fields = {"rho": rng.random(shape), "f": rng.random((9,) + shape)}
    d = Decomposition(shape, (2, 1), solid=None)
    subs = make_subregions(d, 3, fields, rng.random(shape) < 0.1)
    tag = f"ckpt{step:09d}"
    for rank in ranks:
        save_dump(subs[rank], dump_path(workdir / "dumps", rank, tag=tag))
    (workdir / "sync").mkdir(parents=True, exist_ok=True)
    SaveTurns.complete_marker(workdir, step).touch()
    return tag


def _monitor(tmp_path, **kw):
    return Monitor(
        tmp_path,
        HostDB(),
        {rank: _DeadProc() for rank in RANKS},
        {"steps_total": 40},
        **kw,
    )


class TestSelectCheckpoint:
    def test_prefers_newest_complete(self, tmp_path):
        _write_checkpoint(tmp_path, 10)
        tag = _write_checkpoint(tmp_path, 20)
        assert _monitor(tmp_path)._select_checkpoint() == tag

    def test_corrupt_newest_falls_back_one(self, tmp_path):
        old = _write_checkpoint(tmp_path, 10)
        bad = _write_checkpoint(tmp_path, 20)
        corrupt_dump(dump_path(tmp_path / "dumps", 1, tag=bad))
        mon = _monitor(tmp_path)
        assert mon._select_checkpoint() == old
        log = _messages(tmp_path, "recover:ckpt_fallback")
        assert f"checkpoint {bad} rejected" in log

    def test_missing_dump_falls_back_one(self, tmp_path):
        old = _write_checkpoint(tmp_path, 10)
        bad = _write_checkpoint(tmp_path, 20)
        dump_path(tmp_path / "dumps", 0, tag=bad).unlink()
        assert _monitor(tmp_path)._select_checkpoint() == old

    def test_unchecksummed_dump_falls_back_one(self, tmp_path):
        old = _write_checkpoint(tmp_path, 10)
        bad = _write_checkpoint(tmp_path, 20)
        drop_checksums(dump_path(tmp_path / "dumps", 1, tag=bad))
        mon = _monitor(tmp_path)
        assert mon._select_checkpoint() == old
        log = _messages(tmp_path, "recover:ckpt_fallback")
        assert f"checkpoint {bad} rejected" in log
        assert "has no CRC32" in log

    def test_every_checkpoint_bad_means_initial_state(self, tmp_path):
        bad = _write_checkpoint(tmp_path, 10)
        for rank in RANKS:
            corrupt_dump(dump_path(tmp_path / "dumps", rank, tag=bad),
                         truncate=True)
        assert _monitor(tmp_path)._select_checkpoint() == "state"

    def test_no_checkpoints_at_all(self, tmp_path):
        assert _monitor(tmp_path)._select_checkpoint() == "state"


class TestRestartFromCheckpoint:
    def test_max_restarts_exhaustion(self, tmp_path):
        mon = _monitor(tmp_path, max_restarts=2)
        mon.restarts = 2
        with pytest.raises(MonitorError, match="giving up after 2"):
            mon._restart_from_checkpoint(crashed=[1])

    def test_exhaustion_reports_worker_diagnostics(self, tmp_path):
        Journal(tmp_path, 1).write(
            "fatal", "Traceback (most recent call last):\n"
            "RuntimeError: boom\n", 7,
        )
        mon = _monitor(tmp_path, max_restarts=0)
        with pytest.raises(MonitorError, match="RuntimeError: boom"):
            mon._restart_from_checkpoint(crashed=[1])

    def test_restart_clears_stale_save_turn_state(self, tmp_path,
                                                  monkeypatch):
        """A restart must reset save tokens past the restart point, or
        the replaying workers abort the moment they re-save (the token
        file still holds the pre-crash count)."""
        _write_checkpoint(tmp_path, 10)
        bad = _write_checkpoint(tmp_path, 20)
        corrupt_dump(dump_path(tmp_path / "dumps", 0, tag=bad))
        sync = tmp_path / "sync"
        (sync / "save_turn_step000000020.txt").write_text("2")
        spawned = []
        monkeypatch.setattr(
            monitor_mod, "spawn_worker",
            lambda cfg: spawned.append(cfg) or _DeadProc(),
        )
        mon = _monitor(tmp_path)
        mon._restart_from_checkpoint(crashed=[0])
        assert mon.restarts == 1
        assert len(spawned) == len(RANKS)
        assert all(cfg.dump_in.endswith(
            f"ckpt{10:09d}_rank{cfg.rank:04d}.npz") for cfg in spawned)
        # step-20 state (corrupt, beyond the restart point) is gone;
        # the step-10 marker the restart reads from survives.
        assert not (sync / "save_turn_step000000020.txt").exists()
        assert not SaveTurns.complete_marker(tmp_path, 20).exists()
        assert SaveTurns.complete_marker(tmp_path, 10).exists()

    def test_restart_bumps_generation_and_clears_done(self, tmp_path,
                                                      monkeypatch):
        _write_checkpoint(tmp_path, 10)
        monkeypatch.setattr(monitor_mod, "spawn_worker",
                            lambda cfg: _DeadProc())
        mon = _monitor(tmp_path)
        mon._done.add(1)
        mon._restart_from_checkpoint()
        assert mon.generation == 1
        assert mon._done == set()


class TestMigrationEpochFailure:
    def test_broken_epoch_degrades_to_checkpoint_restart(self, tmp_path,
                                                         monkeypatch):
        """A migration that dies mid-sequence (§ App. B) is recoverable:
        the monitor falls back to a full checkpoint restart instead of
        aborting the run."""
        mon = _monitor(tmp_path)
        restarted = []
        monkeypatch.setattr(
            mon, "_migrate_epoch",
            lambda epoch, ranks: (_ for _ in ()).throw(
                _EpochBroken("registry: timed out")
            ),
        )
        monkeypatch.setattr(
            mon, "_restart_from_checkpoint",
            lambda crashed=None: restarted.append(True),
        )
        mon._migrate([1])
        assert restarted == [True]
        assert mon.migrations == 0
        log = _messages(tmp_path, "recover:migration_failed")
        assert "migration epoch 0 broken: registry: timed out" in log

    def test_intact_epoch_does_not_restart(self, tmp_path, monkeypatch):
        mon = _monitor(tmp_path)
        monkeypatch.setattr(mon, "_migrate_epoch",
                            lambda epoch, ranks: None)
        monkeypatch.setattr(
            mon, "_restart_from_checkpoint",
            lambda crashed=None: pytest.fail("restart on healthy epoch"),
        )
        mon._migrate([0])


class TestRebalanceEpochFailure:
    PLAN = SimpleNamespace(current=(10, 10), shares=(12, 8),
                           imbalance=0.2, cost=1.0, projected_saving=2.0)

    def test_broken_epoch_degrades_to_checkpoint_restart(self, tmp_path,
                                                         monkeypatch):
        """A rebalance whose ranks leave with the wrong code is broken
        like a migration: the monitor falls back to a full checkpoint
        restart and commits no rebalance."""
        mon = _monitor(tmp_path, stall_timeout=5.0)
        _leaving_group(mon, tmp_path, EXIT_MIGRATED)
        restarted = []
        monkeypatch.setattr(
            mon, "_restart_from_checkpoint",
            lambda crashed=None: restarted.append(True),
        )
        mon._rebalance(self.PLAN)
        assert restarted == [True]
        assert [rec["kind"] for rec in read_journal(tmp_path)
                if rec["kind"].startswith("recover:")] == [
            "recover:rebalance_failed"]
        assert mon.rebalances == 0
        assert mon.generation == 0
        log = _messages(tmp_path, "recover:rebalance_failed")
        assert (f"rebalance epoch 0 broken: rank 0 exited {EXIT_MIGRATED} "
                f"instead of {EXIT_REBALANCED}") in log
        request = json.loads(
            (tmp_path / "sync" / "epoch0000_request.json").read_text())
        assert request == {"action": "rebalance", "ranks": [0, 1],
                           "shares": [12, 8]}

    def test_refused_recut_degrades_to_checkpoint_restart(self, tmp_path,
                                                          monkeypatch):
        """A re-cut that refuses the dumps (here: saved at different
        steps) breaks the epoch instead of escaping the monitor."""
        import repro.balance.recut as recut_mod

        mon = _monitor(tmp_path, stall_timeout=5.0)
        _leaving_group(mon, tmp_path, EXIT_REBALANCED)
        restarted = []
        monkeypatch.setattr(
            mon, "_restart_from_checkpoint",
            lambda crashed=None: restarted.append(True),
        )

        def refuse(*args, **kwargs):
            raise recut_mod.RecutError("dumps saved at different steps")

        monkeypatch.setattr(recut_mod, "recut_problem", refuse)
        mon._rebalance(self.PLAN)
        assert restarted == [True]
        assert [rec["kind"] for rec in read_journal(tmp_path)
                if rec["kind"].startswith("recover:")] == [
            "recover:rebalance_failed"]
        assert mon.rebalances == 0
        assert mon.generation == 0
        log = _messages(tmp_path, "recover:rebalance_failed")
        assert "re-cut failed: dumps saved at different steps" in log


class TestSignalEpoch:
    def test_wrong_exit_code_breaks_the_epoch(self, tmp_path):
        mon = _monitor(tmp_path, stall_timeout=5.0)
        _leaving_group(mon, tmp_path, EXIT_REBALANCED)
        with pytest.raises(_EpochBroken, match=(
                f"rank 1 exited {EXIT_REBALANCED} instead of "
                f"{EXIT_MIGRATED}")):
            mon._signal_epoch(0, {"action": "migrate", "ranks": [1]},
                              EXIT_MIGRATED)

    def test_leavers_exit_with_their_code(self, tmp_path):
        mon = _monitor(tmp_path, stall_timeout=5.0)
        _leaving_group(mon, tmp_path, EXIT_REBALANCED)
        running = mon._signal_epoch(
            0, {"action": "rebalance", "ranks": [0, 1], "shares": [9, 11]},
            EXIT_REBALANCED,
        )
        assert sorted(running) == [0, 1]

    def test_unregistered_worker_breaks_the_epoch(self, tmp_path):
        mon = _monitor(tmp_path, stall_timeout=0.2)
        mon.procs = {rank: _LeavingProc(EXIT_MIGRATED) for rank in RANKS}
        with pytest.raises(_EpochBroken, match="port registry"):
            mon._signal_epoch(0, {"action": "migrate", "ranks": [0]},
                              EXIT_MIGRATED)
        assert not (tmp_path / "sync").exists()

    def test_exited_leaver_breaks_the_epoch(self, tmp_path):
        """A rank that exits between the epoch decision and the signal
        breaks the epoch instead of crashing the monitor."""
        mon = _monitor(tmp_path, stall_timeout=5.0)
        _leaving_group(mon, tmp_path, EXIT_REBALANCED)
        mon.procs[1].returncode = 1
        with pytest.raises(_EpochBroken, match=r"ranks \[1\] are not running"):
            mon._signal_epoch(
                0, {"action": "rebalance", "ranks": [0, 1], "shares": [9, 11]},
                EXIT_REBALANCED,
            )
        assert not (tmp_path / "sync").exists()


@pytest.mark.skipif(not hasattr(os, "pidfd_open"), reason="needs pidfd")
def test_wait_wakes_when_a_worker_exits(tmp_path, monkeypatch):
    """Between polls the monitor waits on the workers' pidfds, so a
    worker's exit ends the wait long before the poll period."""
    monkeypatch.setattr(monitor_mod, "MONITOR_POLL", 30.0)
    mon = _monitor(tmp_path)
    child = subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(0.2)"])
    try:
        t0 = time.monotonic()
        mon._wait_for_exit([child.pid])
        assert time.monotonic() - t0 < 10.0
        assert child.wait(timeout=10) == 0
    finally:
        child.kill()
        child.wait(timeout=10)
