"""The job scheduler: priority queue -> worker inboxes -> result cache.

One instance lives inside the gateway's event loop and owns the job
table.  All of its methods run on that single thread; everything shared
with the pool workers crosses through the filesystem (tickets in,
``result.json``/``error.json`` out), so there is no lock to take and a
crash on either side never leaves shared memory half-mutated.

Scheduling policy:

* jobs drain in ``(-priority, seq)`` order (strict priority, FIFO
  within a priority level);
* **small** jobs — grid below ``batch_nodes`` — are batched up to
  ``batch_size`` per worker assignment, amortizing ticket latency and
  keeping one warm interpreter marching many 2D problems back to back;
* **large** jobs get a worker to themselves and fan out through the
  normal distributed path inside that worker;
* a worker death requeues its in-flight jobs (``running -> queued``,
  bounded by ``max_retries``) — the serve-layer mirror of the
  monitor's checkpoint-restart contract;
* the first job to finish a fingerprint fills the result cache; every
  later identical submission is answered from the cache at submit time
  with zero compute.
"""

from __future__ import annotations

import heapq
import json
import logging
import time
from pathlib import Path

from .cache import ResultCache
from .hashing import canonical_request, fingerprint
from .jobs import JobHistory, JobRecord
from .pool import WorkerPool

__all__ = ["Scheduler"]

log = logging.getLogger("repro.serve")

#: Grids with at most this many nodes count as "small" and are batched.
DEFAULT_BATCH_NODES = 96 * 96


class Scheduler:
    """Single-threaded job scheduler over a :class:`WorkerPool`."""

    def __init__(
        self,
        serve_dir: str | Path,
        pool: WorkerPool,
        cache: ResultCache,
        history: JobHistory,
        batch_size: int = 4,
        batch_nodes: int = DEFAULT_BATCH_NODES,
        max_retries: int = 2,
    ) -> None:
        self.serve_dir = Path(serve_dir).resolve()
        self.pool = pool
        self.cache = cache
        self.history = history
        self.batch_size = max(1, batch_size)
        self.batch_nodes = batch_nodes
        self.max_retries = max_retries
        self.jobs_dir = self.serve_dir / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        #: job_id -> latest record (authoritative in-memory table)
        self.records: dict[str, JobRecord] = {}
        self._heap: list[tuple[int, int, str]] = []
        self._assigned: dict[int, set[str]] = {
            i: set() for i in range(pool.n_workers)
        }
        #: workers we killed ourselves to cancel a running job — their
        #: next "death" is expected, and batch-mates keep their retries
        self._cancel_kills: set[int] = set()
        self._logged: set[str] = set()
        self._seq = 0
        self.recovered = 0
        self._replay()

    # ------------------------------------------------------------------
    # restart recovery
    # ------------------------------------------------------------------
    def _replay(self) -> None:
        """Reload the job table from history; requeue interrupted jobs."""
        self.records = self.history.replay()
        if self.records:
            self._seq = max(r.seq for r in self.records.values()) + 1
        for rec in self.records.values():
            if rec.terminal:
                continue
            # A job left queued/running by a dead gateway: requeue it if
            # its job dir survived, fail it loudly otherwise.
            if (self.jobs_dir / rec.job_id / "job.json").exists():
                if rec.state == "running":
                    rec.advance("queued")
                rec.worker = -1
                heapq.heappush(
                    self._heap, (-rec.priority, rec.seq, rec.job_id)
                )
                self.history.append("recovered", rec)
                self.recovered += 1
            else:
                rec.error = "job directory lost across gateway restart"
                rec.advance("failed")
                rec.finished = time.time()  # wall stamp
                self.history.append("failed", rec)

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------
    def validate(self, spec, settings=None, seed: int = 0) -> str:
        """Check one request without enqueuing anything.

        Runs exactly the canonicalization :meth:`submit` would, so a
        batch can be vetted all-or-nothing before its first job is
        accepted.  Returns the request fingerprint.
        """
        canon = canonical_request(spec, settings, seed)
        if int(canon["settings"]["steps"]) <= 0:
            raise ValueError("settings.steps must be a positive integer")
        return fingerprint(spec, settings, seed)

    def submit(
        self,
        spec,
        settings=None,
        seed: int = 0,
        priority: int = 0,
        backend: str | None = None,
    ) -> JobRecord:
        """Accept one request; answer from cache or enqueue a job."""
        canon = canonical_request(spec, settings, seed)
        fp = fingerprint(spec, settings, seed)
        steps = int(canon["settings"]["steps"])
        if steps <= 0:
            raise ValueError("settings.steps must be a positive integer")
        if backend is None:
            nodes = 1
            for side in canon["spec"]["grid_shape"]:
                nodes *= side
            backend = (
                "serial" if nodes <= self.batch_nodes else "distributed"
            )
        seq = self._seq
        self._seq += 1
        job_id = f"j{seq:06d}-{fp[:8]}"
        rec = JobRecord(
            job_id=job_id,
            fingerprint=fp,
            priority=priority,
            seq=seq,
            seed=seed,
            backend=backend,
            submitted=time.time(),  # wall stamp
            steps=steps,
        )
        entry = self.cache.get(fp)
        if entry is not None:
            rec.cached = True
            rec.worker = -1
            rec.elapsed = 0.0
            rec.advance("running")
            rec.advance("done")
            rec.finished = rec.submitted
            self.records[job_id] = rec
            self.history.append("cached", rec)
            return rec
        job_dir = self.jobs_dir / job_id
        job_dir.mkdir(parents=True, exist_ok=True)
        if settings is None:
            settings_dict: dict = {"steps": steps}
        elif isinstance(settings, dict):
            settings_dict = dict(settings)
        else:
            from dataclasses import asdict

            settings_dict = asdict(settings)
            settings_dict.pop("hosts", None)  # HostInfo objects: not JSON
        (job_dir / "job.json").write_text(json.dumps({
            "job_id": job_id,
            "fingerprint": fp,
            "seq": seq,
            "seed": seed,
            "priority": priority,
            "backend": backend,
            "spec": canon["spec"],
            "settings": settings_dict,
            "submitted": rec.submitted,
        }, indent=2, sort_keys=True))
        self.records[job_id] = rec
        heapq.heappush(self._heap, (-priority, seq, job_id))
        self.history.append("submitted", rec)
        return rec

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a queued or running job."""
        rec = self.records[job_id]
        if rec.terminal:
            return rec
        if rec.state == "running" and rec.worker >= 0:
            hb = self.pool.heartbeat(rec.worker)
            self._remove_ticket(rec.worker, job_id)
            self._assigned[rec.worker].discard(job_id)
            if hb is not None and hb.get("job") == job_id:
                # mid-execution: kill the process; ensure_alive respawns
                # it and the death handler skips this (cancelled) job.
                # Mark the kill as ours so the batch-mates it takes down
                # are requeued without being charged a retry.
                self._cancel_kills.add(rec.worker)
                self.pool.kill(rec.worker)
        rec.advance("cancelled")
        rec.finished = time.time()  # wall stamp
        self.history.append("cancelled", rec)
        return rec

    # ------------------------------------------------------------------
    # the tick (called periodically by the gateway loop)
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """One scheduling round: collect, heal, assign."""
        self._collect_finished()
        self._handle_deaths()
        self._assign()

    def _collect_finished(self) -> None:
        for job_ids in self._assigned.values():
            for job_id in sorted(job_ids):
                try:
                    self._collect_one(job_ids, job_id)
                except Exception:  # noqa: BLE001 - isolate per job
                    # One bad job must not wedge collection (and with
                    # it death-handling and assignment) for the rest.
                    self._log_once(
                        f"collect:{job_id}",
                        f"collecting finished job {job_id} failed",
                    )

    def _collect_one(self, job_ids: set[str], job_id: str) -> None:
        rec = self.records[job_id]
        if rec.terminal:
            # cancelled under the worker's feet, or a previous tick
            # finalized the record but died before dropping it here
            job_ids.discard(job_id)
            return
        job_dir = self.jobs_dir / job_id
        result_path = job_dir / "result.json"
        error_path = job_dir / "error.json"
        if result_path.exists():
            try:
                result = json.loads(result_path.read_text())
            except ValueError:
                return  # torn: the worker is mid-replace
            rec.elapsed = float(result.get("elapsed", 0.0))
            rec.advance("done")
            rec.finished = time.time()  # wall stamp
            try:
                self.cache.put(rec.fingerprint, rec, job_dir, result)
            except Exception:  # noqa: BLE001 - cache is best-effort
                # A failed fill costs a later recompute, not the job.
                self._log_once(
                    f"cache:{rec.fingerprint}",
                    f"cache fill for job {job_id} failed",
                )
            self.history.append("done", rec)
            job_ids.discard(job_id)
        elif error_path.exists():
            try:
                err = json.loads(error_path.read_text())
            except ValueError:
                return
            rec.error = str(err.get("error", ""))[-2000:]
            rec.advance("failed")
            rec.finished = time.time()  # wall stamp
            self.history.append("failed", rec)
            job_ids.discard(job_id)

    def _handle_deaths(self) -> None:
        for worker in self.pool.ensure_alive():
            # A kill we ordered ourselves (job cancellation) is not a
            # real worker death: the cancelled job's batch-mates are
            # requeued without touching their retry budget.
            cancel_kill = worker in self._cancel_kills
            self._cancel_kills.discard(worker)
            for job_id in sorted(self._assigned[worker]):
                self._remove_ticket(worker, job_id)
                rec = self.records[job_id]
                if rec.terminal:
                    continue
                if cancel_kill or rec.retries < self.max_retries:
                    if not cancel_kill:
                        rec.retries += 1
                    rec.worker = -1
                    rec.advance("queued")
                    heapq.heappush(
                        self._heap, (-rec.priority, rec.seq, rec.job_id)
                    )
                    self.history.append("requeued", rec)
                else:
                    rec.error = (
                        f"worker {worker} died and the job exhausted "
                        f"{self.max_retries} retries"
                    )
                    rec.advance("failed")
                    rec.finished = time.time()  # wall stamp
                    self.history.append("failed", rec)
            self._assigned[worker].clear()

    def _log_once(self, key: str, msg: str) -> None:
        """Log the active exception once per distinct key, not per tick."""
        if key not in self._logged:
            self._logged.add(key)
            log.exception(msg)

    def _assign(self) -> None:
        for worker in range(self.pool.n_workers):
            if self._assigned[worker] or not self.pool.alive(worker):
                continue
            batch = self._next_batch()
            if not batch:
                return
            for rec in batch:
                rec.worker = worker
                rec.advance("running")
                rec.started = time.time()  # wall stamp
                ticket = (
                    self.pool.inbox(worker)
                    / f"{rec.seq:08d}_{rec.job_id}.json"
                )
                # The worker polls ``*.json`` and deletes what it cannot
                # parse, so a ticket must appear under that name whole.
                tmp = ticket.with_suffix(".tmp")
                tmp.write_text(json.dumps({"job_id": rec.job_id}))
                tmp.replace(ticket)
                self._assigned[worker].add(rec.job_id)
                self.history.append("assigned", rec)

    def _next_batch(self) -> list[JobRecord]:
        """Pop the next worker assignment off the priority queue.

        A distributed job rides alone; serial/threaded jobs are batched
        up to ``batch_size`` so one warm worker process marches them
        back to back.
        """
        batch: list[JobRecord] = []
        while self._heap and len(batch) < self.batch_size:
            _, _, job_id = self._heap[0]
            rec = self.records[job_id]
            if rec.state != "queued":
                heapq.heappop(self._heap)  # cancelled while queued
                continue
            if rec.backend == "distributed" and batch:
                break
            heapq.heappop(self._heap)
            batch.append(rec)
            if rec.backend == "distributed":
                break
        return batch

    def _remove_ticket(self, worker: int, job_id: str) -> None:
        rec = self.records[job_id]
        ticket = (
            self.pool.inbox(worker) / f"{rec.seq:08d}_{job_id}.json"
        )
        ticket.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # queries (gateway endpoints)
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Jobs currently waiting for a worker."""
        return sum(
            1 for r in self.records.values() if r.state == "queued"
        )

    def job_dir(self, job_id: str) -> Path:
        """A job's artifact directory."""
        return self.jobs_dir / job_id

    def result_payload(self, job_id: str) -> dict:
        """Record + run summary + artifact paths for a finished job."""
        rec = self.records[job_id]
        payload: dict = {"record": rec.to_dict()}
        if rec.cached:
            entry = self.cache.get(rec.fingerprint)
            if entry is not None:
                payload["result"] = entry.get("result")
                payload["fields"] = entry["fields"]
                payload["workdir"] = entry.get("workdir")
                payload["computed_by"] = entry["record"].get("job_id")
            return payload
        job_dir = self.job_dir(job_id)
        result_path = job_dir / "result.json"
        if result_path.exists():
            try:
                payload["result"] = json.loads(result_path.read_text())
            except ValueError:
                payload["result"] = None
        if (job_dir / "fields.npz").exists():
            payload["fields"] = str(job_dir / "fields.npz")
        payload["workdir"] = str(job_dir / "run")
        if rec.state == "failed":
            payload["error"] = rec.error
        return payload

    def fields_file(self, job_id: str) -> Path | None:
        """Path of the job's final-fields npz (cache-aware)."""
        rec = self.records[job_id]
        if rec.cached:
            path = self.cache.fields_path(rec.fingerprint)
            return path if path.exists() else None
        path = self.job_dir(job_id) / "fields.npz"
        return path if path.exists() else None

    def diagnostics_file(self, job_id: str) -> Path:
        """The diagnostics.jsonl a live stream of this job tails."""
        rec = self.records[job_id]
        if rec.cached:
            entry = self.cache.get(rec.fingerprint)
            if entry is not None and entry.get("workdir"):
                return Path(entry["workdir"]) / "diagnostics.jsonl"
        return self.job_dir(job_id) / "run" / "diagnostics.jsonl"
