"""The submit program: spawn hygiene and all-or-nothing host booking."""

import os
import subprocess

import pytest

from repro.distrib import HostDB, WorkerConfig, paper_cluster
from repro.distrib import submit as submit_mod
from repro.distrib.submit import spawn_worker, submit_all


def _open_fds():
    return set(os.listdir("/proc/self/fd"))


@pytest.fixture
def db():
    return HostDB(paper_cluster())


class TestSpawnWorker:
    def test_no_fd_leak(self, tmp_path):
        """Respawn-heavy runs (migrations, rebalances) must not
        accumulate descriptors in the submitting process.  The first
        spawn starts the rank host, whose two pipe ends stay open."""
        cfg = WorkerConfig(
            workdir=str(tmp_path), rank=0, host="h0", steps_total=1
        )
        spawn_worker(cfg).wait(timeout=30)
        before = _open_fds()
        procs = [spawn_worker(cfg) for _ in range(5)]
        for p in procs:
            p.wait(timeout=30)
        after = _open_fds()
        assert after - before == set()

    def test_writes_config_and_log(self, tmp_path):
        cfg = WorkerConfig(
            workdir=str(tmp_path), rank=3, host="h3", steps_total=1
        )
        proc = spawn_worker(cfg)
        proc.wait(timeout=30)
        assert WorkerConfig.path(tmp_path, 3).exists()
        assert (tmp_path / "logs" / "rank0003.stdout").exists()


class TestSubmitAllRollback:
    def test_spawn_failure_rolls_back_assignments(
        self, tmp_path, db, monkeypatch
    ):
        """If rank k fails to spawn, ranks 0..k-1 are killed and every
        host booked for this run is released."""
        started = []
        real_spawn = submit_mod.spawn_worker

        def flaky(cfg):
            if cfg.rank == 2:
                raise OSError("out of processes")
            proc = real_spawn(cfg)
            started.append(proc)
            return proc

        monkeypatch.setattr(submit_mod, "spawn_worker", flaky)
        with pytest.raises(OSError):
            submit_all(tmp_path, db, 4, {"steps_total": 1})
        assert len(started) == 2
        for proc in started:
            assert proc.poll() is not None  # killed and reaped
        assert all(h.rank is None for h in db.hosts())

    def test_success_books_one_host_per_rank(self, tmp_path, db):
        procs = submit_all(tmp_path, db, 3, {"steps_total": 1})
        try:
            booked = [h for h in db.hosts() if h.rank is not None]
            assert sorted(h.rank for h in booked) == [0, 1, 2]
            assert sorted(procs) == [0, 1, 2]
        finally:
            for p in procs.values():
                p.kill()
            for p in procs.values():
                try:
                    p.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    pass
