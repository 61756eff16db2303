"""Job records and the append-only JSONL job-history store.

A submitted simulation becomes a :class:`JobRecord` marching the state
machine::

    queued ──> running ──> done
       │          │  └───> failed
       │          └──────> cancelled
       │          └──────> queued      (requeued after a worker death)
       └─────────> cancelled / failed

Every transition is appended as one event line to ``jobs.jsonl`` (the
history store) — the file is never rewritten, so a crashed gateway
loses at most a torn final line (which the next append cuts off), and
:meth:`JobHistory.replay` rebuilds the full job table (last event wins)
on restart.  The same file is what
``repro top`` and the ``/cluster`` endpoint read their per-job
timelines from, and the only durable record of the result cache.
Replay refuses a record with a state outside :data:`STATES` or a field
of the wrong type; there is no per-line checksum, so a flipped bit
inside a string value still goes undetected.
"""

from __future__ import annotations

import fcntl
import json
import os
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .._jsonl import LogDamaged, locked_append, read_jsonl

__all__ = [
    "STATES",
    "TERMINAL",
    "TRANSITIONS",
    "JobRecord",
    "JobHistory",
]

#: Every state a job can be in.
STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job never leaves.
TERMINAL = frozenset({"done", "failed", "cancelled"})

#: Legal state-machine moves.  ``running -> queued`` is the
#: retry-on-worker-death path: the job goes back on the priority queue
#: with its retry counter bumped.
TRANSITIONS = {
    "queued": frozenset({"running", "cancelled", "failed"}),
    "running": frozenset({"done", "failed", "cancelled", "queued"}),
    "done": frozenset(),
    "failed": frozenset(),
    "cancelled": frozenset(),
}


@dataclass
class JobRecord:
    """One job's full lifecycle state (one line per event in history)."""

    job_id: str
    fingerprint: str
    state: str = "queued"
    priority: int = 0           # higher drains first
    seq: int = 0                # submission order (FIFO within priority)
    seed: int = 0
    backend: str = "serial"     # runtime the job executes on
    submitted: float = 0.0      # wall stamps (time.time epoch seconds)
    started: float = 0.0
    finished: float = 0.0
    worker: int = -1            # pool worker index (-1 = unassigned)
    retries: int = 0            # worker-death requeues so far
    cached: bool = False        # served from the result cache
    steps: int = 0
    elapsed: float = 0.0        # compute seconds (0 for cache hits)
    error: str = ""

    def advance(self, state: str) -> None:
        """Move to ``state``, enforcing the state machine."""
        if state not in STATES:
            raise ValueError(f"unknown job state {state!r}")
        if state not in TRANSITIONS[self.state]:
            raise ValueError(
                f"illegal transition {self.state!r} -> {state!r} "
                f"for job {self.job_id}"
            )
        self.state = state

    @property
    def terminal(self) -> bool:
        """Whether the job has reached a final state."""
        return self.state in TERMINAL

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "JobRecord":
        """Rebuild a record from :meth:`to_dict` output.

        Raises ``TypeError`` for a missing, unknown or wrongly typed
        field and ``ValueError`` for a state outside :data:`STATES`.
        """
        rec = cls(**d)
        kinds = {"str": str, "int": int, "float": (int, float), "bool": bool}
        for f in fields(cls):
            value = getattr(rec, f.name)
            # a JSON bool is an int to isinstance, but not a number here
            if (not isinstance(value, kinds[f.type])
                    or isinstance(value, bool) != (f.type == "bool")):
                raise TypeError(f"{f.name} {value!r} is not {f.type}")
        if rec.state not in STATES:
            raise ValueError(f"unknown job state {rec.state!r}")
        return rec


class JobHistory:
    """Append-only JSONL event log of every job the gateway saw.

    One line per event: ``{"event": E, "wall": W, "job": {...record}}``.
    Appends are flock'd like every other shared file of a run; the
    readers tolerate a torn final line and raise
    :class:`~repro._jsonl.LogDamaged` on any other unparsable one.
    """

    FILENAME = "jobs.jsonl"

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    @classmethod
    def for_dir(cls, serve_dir: str | Path) -> "JobHistory":
        """The canonical history location inside a serve directory."""
        return cls(Path(serve_dir) / cls.FILENAME)

    def append(self, event: str, record: JobRecord) -> None:
        """Append one event line for ``record``'s current state."""
        line = json.dumps({
            "event": event,
            "wall": time.time(),  # wall stamp of the event
            "job": record.to_dict(),
        }) + "\n"
        locked_append(self.path, line)

    def read(self) -> list[dict]:
        """Every complete event line, oldest first."""
        if not self.path.exists():
            return []
        # the appender writes ASCII; a byte that is not UTF-8 is damage,
        # read as U+FFFD so the line fails to parse instead of the file
        text = self.path.read_bytes().decode(errors="replace")
        return [event for _, _, event in read_jsonl(self.path, text)]

    def replay(self) -> dict[str, JobRecord]:
        """Rebuild the job table: job_id -> latest record state.

        An event whose ``job`` is not a record this version can rebuild
        raises :class:`~repro._jsonl.LogDamaged` naming the file and
        line: skipping it would make that job vanish without a word.
        """
        table: dict[str, JobRecord] = {}
        # read() drops only a torn *last* line, so position is line number
        for lineno, event in enumerate(self.read(), 1):
            try:
                rec = JobRecord.from_dict(event["job"])
            except (KeyError, TypeError, ValueError) as exc:
                raise LogDamaged(
                    self.path, lineno, f"not a job event: {exc!r}"
                ) from None
            table[rec.job_id] = rec
        return table

    def compact(self) -> dict:
        """Rewrite the log keeping only the last event per job.

        The log is append-only by design, so a long-lived gateway's
        ``jobs.jsonl`` grows by one line per state transition forever;
        compaction garbage-collects the superseded transitions.  The
        surviving line per job is exactly what :meth:`replay` would
        have produced, so the rebuilt job table is unchanged.

        The rewrite happens under the same exclusive flock the
        appenders take, into a temp file atomically ``os.replace``'d
        over the log — a reader never sees a half-written file and a
        crash mid-compaction leaves the original intact.  Callers must
        still serialize with *future* appenders opening the old inode
        (the gateway runs this on its event loop, where all appends
        originate, or before the scheduler starts).

        Returns compaction stats (event and byte counts before/after).
        """
        if not self.path.exists():
            return {"events_before": 0, "events_after": 0,
                    "bytes_before": 0, "bytes_after": 0}
        with open(self.path, "a+") as fh:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                fh.seek(0)
                text = fh.read()
                events_before = 0
                last: dict[str, str] = {}
                for _, line, event in read_jsonl(self.path, text):
                    events_before += 1
                    job = event.get("job")
                    if not isinstance(job, dict) or "job_id" not in job:
                        continue
                    # dict insertion order keeps survivors chronological
                    # (by last event) for the timeline readers
                    last.pop(job["job_id"], None)
                    last[job["job_id"]] = line
                tmp = self.path.with_name(self.path.name + ".tmp")
                with open(tmp, "w") as out:
                    for line in last.values():
                        out.write(line + "\n")
                    out.flush()
                    os.fsync(out.fileno())
                os.replace(tmp, self.path)
                bytes_after = sum(len(l) + 1 for l in last.values())
                return {
                    "events_before": events_before,
                    "events_after": len(last),
                    "bytes_before": len(text),
                    "bytes_after": bytes_after,
                }
            finally:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
