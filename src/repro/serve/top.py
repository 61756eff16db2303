"""``repro top`` — a refreshing per-host / per-job cluster view.

Rendering is a pure function of one ``/cluster`` snapshot (plus the
wall clock it carries), so tests can assert on the text without a
gateway; :func:`watch` adds the terminal refresh loop around it.
"""

from __future__ import annotations

import sys
import time

__all__ = ["render", "watch"]

_CLEAR = "\x1b[2J\x1b[H"


def _age(now: float, wall: float | None) -> str:
    """Time in the current state (a heartbeat marks each change)."""
    if not wall:
        return "-"
    return f"{max(now - wall, 0.0):5.1f}s"


def render(snap: dict, max_jobs: int = 12) -> str:
    """One text frame of the cluster view from a ``/cluster`` snapshot."""
    now = snap.get("wall", 0.0)
    cache = snap.get("cache", {})
    by_state = snap.get("jobs_by_state", {})
    lines = [
        f"repro serve @ {snap.get('address', '?')}   "
        f"queue {snap.get('queue_depth', 0)}   "
        f"cache {cache.get('hits', 0)} hit / "
        f"{cache.get('misses', 0)} miss / "
        f"{cache.get('entries', 0)} stored   "
        f"worker deaths {snap.get('worker_deaths', 0)}",
        "jobs: " + (
            "  ".join(
                f"{state}={n}" for state, n in sorted(by_state.items())
            ) or "none yet"
        ),
        "",
        f"{'WORKER':<10}{'HOST':<10}{'PID':<8}{'STATE':<9}"
        f"{'JOB':<20}{'DONE':<6}{'IN STATE':<9}",
    ]
    for w in snap.get("workers", []):
        hb = w.get("heartbeat") or {}
        lines.append(
            f"{w.get('index', '?'):<10}"
            f"{w.get('host', '?'):<10}"
            f"{str(w.get('pid', '-')):<8}"
            f"{(hb.get('state') if w.get('alive') else 'dead'):<9}"
            f"{str(hb.get('job') or '-'):<20}"
            f"{hb.get('jobs_done', 0):<6}"
            f"{_age(now, hb.get('wall')):<9}"
        )
    lines.append("")
    lines.append(
        f"{'JOB':<20}{'STATE':<11}{'BACKEND':<12}{'PRI':<5}"
        f"{'WORKER':<8}{'RETRY':<7}{'ELAPSED':<9}{'CACHED':<7}"
    )
    for job in snap.get("jobs", [])[:max_jobs]:
        lines.append(
            f"{job.get('job_id', '?'):<20}"
            f"{job.get('state', '?'):<11}"
            f"{job.get('backend', '?'):<12}"
            f"{job.get('priority', 0):<5}"
            f"{str(job.get('worker', -1)):<8}"
            f"{job.get('retries', 0):<7}"
            f"{job.get('elapsed', 0.0):<9.3f}"
            f"{str(bool(job.get('cached'))):<7}"
        )
    return "\n".join(lines)


def watch(
    client,
    interval: float = 1.0,
    iterations: int | None = None,
    out=None,
) -> None:
    """Refreshing terminal loop over :func:`render`.

    ``iterations`` bounds the loop (None = until interrupted);
    ``out`` defaults to stdout and is parameterized for tests.
    """
    out = out or sys.stdout
    n = 0
    try:
        while iterations is None or n < iterations:
            snap = client.cluster()
            out.write(_CLEAR + render(snap) + "\n")
            out.flush()
            n += 1
            if iterations is not None and n >= iterations:
                break
            time.sleep(interval)
    except KeyboardInterrupt:
        pass
