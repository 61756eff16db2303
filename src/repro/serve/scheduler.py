"""The job scheduler: priority queue -> pool workers -> result cache.

One instance lives inside the gateway's event loop and owns the job
table.  All of its methods run on that single thread and never block:
job ids go out over the pool's sockets, ``done`` replies come back, and
results cross through the filesystem (``result.json``/``error.json``),
so there is no lock to take and a crash on either side never leaves
shared memory half-mutated.

Scheduling policy:

* jobs drain in ``(-priority, seq)`` order (strict priority, FIFO
  within a priority level);
* one job in flight per worker, sent the moment the worker is free;
* **small** jobs — grid below ``DEFAULT_BATCH_NODES`` — run on the serial
  backend in the worker's warm interpreter; **large** jobs fan out
  through the normal distributed path inside their worker;
* a worker death (EOF on its socket) requeues its in-flight job
  (``running -> queued``, bounded by ``MAX_RETRIES``) — the serve-layer
  mirror of the monitor's checkpoint-restart contract;
* the first job to finish a fingerprint fills the result cache; every
  later identical submission is answered from the cache at submit time
  with zero compute.
"""

from __future__ import annotations

import heapq
import json
import logging
import math
import time
from dataclasses import asdict
from pathlib import Path

from .cache import ResultCache
from .hashing import canonical_request, fingerprint
from .jobs import JobHistory, JobRecord
from .pool import WorkerPool

__all__ = ["Scheduler"]

log = logging.getLogger("repro.serve")

#: Grids with at most this many nodes count as "small" and run serially.
DEFAULT_BATCH_NODES = 96 * 96
#: Times a job whose pool worker died is requeued before it fails.
MAX_RETRIES = 2


def _intake(spec, settings, seed: int, backend: str | None):
    """``(canonical request, backend, RunSettings)`` of a request a pool
    worker can run, its ``backend=None`` resolved by grid size; checked
    before any cache lookup, since the fingerprint omits the backend and
    the operational knobs."""
    from ..distrib.orchestrator import RunSettings
    from ..distrib.settings import check_supported
    from ..distrib.spec import ProblemSpec

    canon = canonical_request(spec, settings, seed)
    steps = int(canon["settings"]["steps"])
    if steps <= 0:
        raise ValueError("settings.steps must be a positive integer")
    if backend is None:
        nodes = math.prod(canon["spec"]["grid_shape"])
        backend = "serial" if nodes <= DEFAULT_BATCH_NODES else "distributed"
    if not isinstance(settings, RunSettings):
        settings = RunSettings.from_knobs({**(settings or {}), "steps": steps})
    try:
        spec = ProblemSpec.from_json(json.dumps(canon["spec"]))
        check_supported(spec, backend, settings, served=True)
    except RuntimeError as exc:  # a RecutError: a bad request, like the rest
        raise ValueError(str(exc)) from exc
    return canon, backend, settings


class Scheduler:
    """Single-threaded job scheduler over a :class:`WorkerPool`."""

    def __init__(
        self,
        serve_dir: str | Path,
        pool: WorkerPool,
        cache: ResultCache,
        history: JobHistory,
    ) -> None:
        self.serve_dir = Path(serve_dir).resolve()
        self.pool = pool
        self.cache = cache
        self.history = history
        self.jobs_dir = self.serve_dir / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        #: job_id -> latest record (authoritative in-memory table)
        self.records: dict[str, JobRecord] = {}
        self._heap: list[tuple[int, int, str]] = []
        #: worker -> the one job in flight on it
        self._running: dict[int, str] = {}
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
    def validate(
        self, spec, settings=None, seed: int = 0,
        backend: str | None = None,
    ) -> str:
        """Check one request without enqueuing anything.

        Runs exactly the checks and canonicalization :meth:`submit`
        would, so a batch can be vetted all-or-nothing before its first
        job is accepted.  Returns the request fingerprint.
        """
        _intake(spec, settings, seed, backend)
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
        canon, backend, knobs = _intake(spec, settings, seed, backend)
        fp = fingerprint(spec, settings, seed)
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
            steps=knobs.steps,
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
        settings_dict = asdict(knobs)
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
        if rec.state == "running":
            # kill the process; its EOF is a death the next tick
            # respawns, and the death handler skips this (cancelled)
            # job, so nothing is charged a retry
            self.pool.kill(rec.worker)
        rec.advance("cancelled")
        rec.finished = time.time()  # wall stamp
        self.history.append("cancelled", rec)
        return rec

    # ------------------------------------------------------------------
    # the tick (run whenever a worker socket or a handler wakes the loop)
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """One scheduling round: collect, heal, assign."""
        dead = []
        for worker, job_id in self.pool.finished():
            if job_id is None:
                dead.append(worker)
                continue
            self._running.pop(worker, None)
            try:
                self._collect_one(job_id)
            except Exception:  # noqa: BLE001 - isolate per job
                # One bad job must not wedge collection (and with
                # it death-handling and assignment) for the rest.
                self._log_once(
                    f"collect:{job_id}",
                    f"collecting finished job {job_id} failed",
                )
        self._handle_deaths(self.pool.ensure_alive(dead))
        self._assign()

    def _collect_one(self, job_id: str) -> None:
        rec = self.records[job_id]
        if rec.terminal:
            return  # cancelled under the worker's feet
        job_dir = self.jobs_dir / job_id
        result_path = job_dir / "result.json"
        if result_path.exists():
            result = json.loads(result_path.read_text())
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
        else:
            err = json.loads((job_dir / "error.json").read_text())
            rec.error = str(err.get("error", ""))[-2000:]
            rec.advance("failed")
            rec.finished = time.time()  # wall stamp
            self.history.append("failed", rec)

    def _handle_deaths(self, dead: list[int]) -> None:
        for worker in dead:
            job_id = self._running.pop(worker, None)
            if job_id is None:
                continue
            rec = self.records[job_id]
            if rec.terminal:
                continue
            if rec.retries < MAX_RETRIES:
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
                    f"{MAX_RETRIES} retries"
                )
                rec.advance("failed")
                rec.finished = time.time()  # wall stamp
                self.history.append("failed", rec)

    def _log_once(self, key: str, msg: str) -> None:
        """Log the active exception once per distinct key, not per tick."""
        if key not in self._logged:
            self._logged.add(key)
            log.exception(msg)

    def _assign(self) -> None:
        for worker in range(self.pool.n_workers):
            if worker in self._running or not self.pool.alive(worker):
                continue
            rec = self._next_job()
            if rec is None:
                return
            rec.worker = worker
            rec.advance("running")
            rec.started = time.time()  # wall stamp
            self._running[worker] = rec.job_id
            self.pool.send(worker, rec.job_id)
            self.history.append("assigned", rec)

    def _next_job(self) -> JobRecord | None:
        """Pop the highest-priority queued job, if any."""
        while self._heap:
            _, _, job_id = heapq.heappop(self._heap)
            rec = self.records[job_id]
            if rec.state == "queued":
                return rec
            # else cancelled while queued
        return None

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
