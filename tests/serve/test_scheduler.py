"""Scheduler-level regressions exercised against a stub worker pool.

These pin the serve layer's dispatch contract: every job is sent
exactly once with one job in flight per worker, a cancel kills the
worker without charging anyone a retry, a real death does charge one,
and a per-job failure inside collection must not wedge the tick.
"""

import json

import pytest

from repro._jsonl import LogDamaged
from repro.distrib import ProblemSpec
from repro.serve import JobHistory, JobRecord, Scheduler


class StubPool:
    """The channel surface of WorkerPool without any real processes."""

    def __init__(self, n_workers: int = 1) -> None:
        self.n_workers = n_workers
        self.sent: list[tuple[int, str]] = []
        self.replies: list[tuple[int, str | None]] = []  # finished() next
        self.killed: list[int] = []
        self.respawned: list[int] = []

    def send(self, index: int, job_id: str) -> None:
        self.sent.append((index, job_id))

    def finished(self) -> list[tuple[int, str | None]]:
        out, self.replies = self.replies, []
        return out

    def alive(self, index: int) -> bool:
        return True

    def ensure_alive(self, dead: list[int]) -> list[int]:
        self.respawned.extend(dead)
        return dead

    def kill(self, index: int) -> None:
        self.killed.append(index)


def _spec() -> ProblemSpec:
    return ProblemSpec(
        method="lb", grid_shape=(8, 8), blocks=(1, 1),
        periodic=(True, False), geometry={"kind": "channel"},
    )


def _scheduler(tmp_path, n_workers=1, **kw):
    pool = StubPool(n_workers)
    return Scheduler(tmp_path, pool, JobHistory.for_dir(tmp_path), **kw), pool


def _finish(sched, pool, rec, fields: bool = False) -> None:
    """The worker commits ``rec`` (with a ``fields.npz`` if ``fields``)
    and replies ``done``."""
    job_dir = sched.job_dir(rec.job_id)
    if fields:
        (job_dir / "fields.npz").write_bytes(b"fields of " +
                                             rec.job_id.encode())
    (job_dir / "result.json").write_text(
        json.dumps({"elapsed": 1.0, "job_id": rec.job_id})
    )
    pool.replies.append((rec.worker, rec.job_id))


class TestDispatch:
    def test_each_job_sent_once_with_one_in_flight_per_worker(
        self, tmp_path
    ):
        sched, pool = _scheduler(tmp_path, n_workers=2)
        recs = [
            sched.submit(_spec(), settings={"steps": 5 + i})
            for i in range(5)
        ]
        sched.tick()
        assert pool.sent == [(0, recs[0].job_id), (1, recs[1].job_id)]
        assert [r.state for r in recs] == ["running"] * 2 + ["queued"] * 3
        sched.tick()  # nothing finished: nothing more goes out
        assert len(pool.sent) == 2

        while any(not r.terminal for r in recs):
            in_flight = [r for r in recs if r.state == "running"]
            assert len({r.worker for r in in_flight}) == len(in_flight)
            for rec in in_flight:
                _finish(sched, pool, rec)
            sched.tick()
        assert all(r.state == "done" for r in recs)
        assert sorted(job for _, job in pool.sent) == \
            sorted(r.job_id for r in recs)


class TestCancelKill:
    def test_cancel_running_job_kills_worker_without_retry(self, tmp_path):
        sched, pool = _scheduler(tmp_path)
        a = sched.submit(_spec(), settings={"steps": 5})
        b = sched.submit(_spec(), settings={"steps": 6})
        sched.tick()
        assert a.state == "running" and b.state == "queued"

        sched.cancel(a.job_id)
        assert pool.killed == [0]
        assert a.state == "cancelled"

        # the kill surfaces as EOF on the next tick: the worker is
        # respawned and the next job sent, nobody charged a retry
        pool.replies.append((0, None))
        sched.tick()
        assert pool.respawned == [0]
        assert a.state == "cancelled" and a.retries == 0
        assert b.state == "running" and b.retries == 0
        assert pool.sent == [(0, a.job_id), (0, b.job_id)]

    def test_real_death_still_charges_retries(self, tmp_path):
        sched, pool = _scheduler(tmp_path)
        a = sched.submit(_spec(), settings={"steps": 5})
        sched.tick()
        pool.replies.append((0, None))
        sched.tick()
        assert a.retries == 1
        assert a.state == "running"  # requeued then reassigned


class TestCollectIsolation:
    def test_cache_put_failure_does_not_wedge_the_job(self, tmp_path):
        sched, pool = _scheduler(tmp_path, n_workers=2)
        a = sched.submit(_spec(), settings={"steps": 5})
        b = sched.submit(_spec(), settings={"steps": 6})
        sched.tick()
        # both "finish" but commit no fields.npz: nothing to cache
        for rec in (a, b):
            _finish(sched, pool, rec)
        sched.tick()
        assert a.state == "done" and b.state == "done"
        assert not sched._running
        assert sched.computed == {}
        again = sched.submit(_spec(), settings={"steps": 5})
        assert not again.cached and again.state == "queued"

    def test_one_bad_record_does_not_block_the_rest(self, tmp_path):
        sched, pool = _scheduler(tmp_path, n_workers=2)
        a = sched.submit(_spec(), settings={"steps": 5})
        b = sched.submit(_spec(), settings={"steps": 6})
        sched.tick()
        # corrupt one record so finalizing it raises inside collection
        _finish(sched, pool, a)
        _finish(sched, pool, b)
        a.state = "bogus"
        sched.tick()
        assert b.state == "done"


class TestReplayedJobIds:
    def test_a_job_id_that_is_a_path_is_damage(self, tmp_path):
        """A replayed ``job_id`` names the job's directory: one that
        climbs out of ``jobs/`` is refused before anything is sent or
        touched there."""
        serve = tmp_path / "serve"
        outside = serve / "outside"
        outside.mkdir(parents=True)
        (outside / "job.json").write_text("{}")
        history = JobHistory.for_dir(serve)
        with open(history.path, "w") as fh:
            fh.write(json.dumps({"event": "submitted", "wall": 0.0, "job": {
                **JobRecord("j0", "f" * 64).to_dict(),
                "job_id": "../outside"}}) + "\n")
        pool = StubPool()
        with pytest.raises(LogDamaged, match="line 1"):
            Scheduler(serve, pool, history)
        assert pool.sent == []
        assert sorted(p.name for p in outside.iterdir()) == ["job.json"]
        assert (outside / "job.json").read_text() == "{}"
