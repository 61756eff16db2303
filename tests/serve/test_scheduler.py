"""Scheduler-level regressions exercised against a stub worker pool.

These pin the review fixes of the serve layer: a kill the scheduler
ordered itself (cancellation) must not charge the batch-mates' retry
budget, a per-job failure inside collection must not wedge the tick,
and pool startup must void tickets left by a previous gateway
incarnation (the restart-recovery path re-tickets every job anyway).
"""

import json
from pathlib import Path

from repro.distrib import ProblemSpec
from repro.serve import JobHistory, ResultCache, Scheduler, WorkerPool


class StubPool:
    """The file surfaces of WorkerPool without any real processes."""

    def __init__(self, root: Path, n_workers: int = 1) -> None:
        self.root = root
        self.n_workers = n_workers
        self.dead: list[int] = []   # what ensure_alive reports next
        self.killed: list[int] = []
        self.hb: dict[int, dict] = {}
        for i in range(n_workers):
            self.inbox(i).mkdir(parents=True, exist_ok=True)

    def inbox(self, index: int) -> Path:
        return self.root / f"inbox-{index:02d}"

    def alive(self, index: int) -> bool:
        return True

    def ensure_alive(self) -> list[int]:
        dead, self.dead = self.dead, []
        return dead

    def heartbeat(self, index: int) -> dict | None:
        return self.hb.get(index)

    def kill(self, index: int) -> None:
        self.killed.append(index)


def _spec() -> ProblemSpec:
    return ProblemSpec(
        method="lb", grid_shape=(8, 8), blocks=(1, 1),
        periodic=(True, False), geometry={"kind": "channel"},
    )


def _scheduler(tmp_path, n_workers=1, **kw):
    pool = StubPool(tmp_path / "pool", n_workers)
    return Scheduler(
        tmp_path, pool, ResultCache(tmp_path / "cache"),
        JobHistory.for_dir(tmp_path), **kw,
    ), pool


class TestCancelKill:
    def test_cancel_kill_does_not_charge_batchmates(self, tmp_path):
        sched, pool = _scheduler(tmp_path, batch_size=4)
        a = sched.submit(_spec(), settings={"steps": 5})
        b = sched.submit(_spec(), settings={"steps": 6})
        sched.tick()
        assert a.state == "running" and b.state == "running"
        assert a.worker == b.worker == 0

        pool.hb[0] = {"job": a.job_id}
        sched.cancel(a.job_id)
        assert pool.killed == [0]
        assert a.state == "cancelled"

        # the kill surfaces as a worker death on the next tick; the
        # batch-mate is requeued (and immediately reassigned) for free
        pool.dead = [0]
        sched.tick()
        assert b.retries == 0
        assert b.state == "running"

    def test_real_death_still_charges_retries(self, tmp_path):
        sched, pool = _scheduler(tmp_path)
        a = sched.submit(_spec(), settings={"steps": 5})
        sched.tick()
        pool.dead = [0]
        sched.tick()
        assert a.retries == 1
        assert a.state == "running"  # requeued then reassigned


class TestCollectIsolation:
    def test_cache_put_failure_does_not_wedge_the_job(self, tmp_path):
        sched, pool = _scheduler(tmp_path)
        a = sched.submit(_spec(), settings={"steps": 5})
        b = sched.submit(_spec(), settings={"steps": 6})
        sched.tick()
        # both "finish" but commit no fields.npz, so cache.put raises
        for rec in (a, b):
            (sched.job_dir(rec.job_id) / "result.json").write_text(
                json.dumps({"elapsed": 1.0})
            )
        sched.tick()
        assert a.state == "done" and b.state == "done"
        assert not sched._assigned[0]
        assert sched.cache.get(a.fingerprint) is None

    def test_one_bad_record_does_not_block_the_rest(self, tmp_path):
        sched, pool = _scheduler(tmp_path, batch_size=4)
        a = sched.submit(_spec(), settings={"steps": 5})
        b = sched.submit(_spec(), settings={"steps": 6})
        sched.tick()
        # corrupt one record so finalizing it raises inside collection
        a.state = "bogus"
        (sched.job_dir(a.job_id) / "result.json").write_text(
            json.dumps({"elapsed": 1.0})
        )
        (sched.job_dir(b.job_id) / "result.json").write_text(
            json.dumps({"elapsed": 1.0})
        )
        sched.tick()
        assert b.state == "done"


class TestTicketWrite:
    def test_a_polling_worker_never_sees_a_partial_ticket(
        self, tmp_path, monkeypatch
    ):
        """A ticket appears under its ``*.json`` name whole.

        The pool worker globs ``*.json`` and unlinks what it cannot
        parse, so a ticket visible mid-write is deleted and its job
        stranded ``running``.  Here the worker's poll runs at the worst
        moment: with half the ticket's bytes on disk.
        """
        sched, pool = _scheduler(tmp_path)
        rec = sched.submit(_spec(), settings={"steps": 5})
        inbox = pool.inbox(0)
        real_write_text = Path.write_text

        def write_text_with_poll(path, data, *args, **kw):
            if path.parent != inbox:
                return real_write_text(path, data, *args, **kw)
            with open(path, "w") as fh:
                fh.write(data[: len(data) // 2])
                fh.flush()
                for ticket in inbox.glob("*.json"):  # pool_worker.main
                    try:
                        json.loads(ticket.read_text())["job_id"]
                    except (OSError, ValueError, KeyError):
                        ticket.unlink()
                fh.write(data[len(data) // 2:])
            return len(data)

        monkeypatch.setattr(Path, "write_text", write_text_with_poll)
        sched.tick()
        assert rec.state == "running"
        assert [
            json.loads(t.read_text())["job_id"]
            for t in inbox.glob("*.json")
        ] == [rec.job_id]


class TestStaleTickets:
    def test_start_voids_tickets_of_a_previous_incarnation(
        self, tmp_path, monkeypatch
    ):
        pool = WorkerPool(tmp_path / "serve", n_workers=2)
        survivor = pool.inbox(1)
        survivor.mkdir(parents=True)
        (survivor / "00000001_jdead.json").write_text("{}")
        # an inbox beyond n_workers, left by a wider previous pool
        extra = pool.pool_dir / "inbox-05"
        extra.mkdir(parents=True)
        (extra / "00000002_jdead.json").write_text("{}")
        monkeypatch.setattr(pool, "spawn", lambda i: None)
        pool.start()
        assert not list(survivor.glob("*.json"))
        assert not list(extra.glob("*.json"))
