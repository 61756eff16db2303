"""Merge per-rank JSONL traces into one Chrome trace-event JSON.

The workers of a distributed run each stream their own
``trace-<rank>.jsonl`` (no shared file, no synchronization on the data
path); the monitoring program — or ``python -m repro.tools trace`` —
merges them after the fact.  The output is the Chrome trace-event
format (JSON object with a ``traceEvents`` array of complete/``X``
events), which loads directly in ``chrome://tracing`` and Perfetto:
one *process* lane per rank, one *thread* row per tid (the threaded
runner's workers), counter (``C``) tracks for the per-peer channel
traffic.

Cross-rank alignment uses each meta line's ``(wall_t0, clock_t0)``
pair: rank clocks are monotonic with unrelated origins, so span
timestamps are shifted by the rank's wall-clock origin relative to the
earliest rank.  Wall clocks enter *only* as per-file origin records —
every duration and deadline in the runtimes stays monotonic.
Simulated traces have zero origins on every rank and align exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

from .._jsonl import read_jsonl

__all__ = ["trace_files", "load_trace", "merge_traces",
           "write_chrome_trace"]


def trace_files(where: str | Path) -> list[Path]:
    """The per-rank trace files under a run directory.

    Accepts the run's workdir (looks in its ``trace/`` subdirectory), a
    directory of ``trace-*.jsonl`` files, or a single ``.jsonl`` file.
    """
    p = Path(where)
    if p.is_file():
        return [p]
    for candidate in (p / "trace", p):
        files = sorted(candidate.glob("trace-*.jsonl"))
        if files:
            return files
    raise FileNotFoundError(f"no trace-*.jsonl under {p}")


def load_trace(path: str | Path) -> dict:
    """Parse one rank's JSONL trace into ``{meta, spans, counters, end}``.

    Tolerates a torn final line (a rank killed mid-append) and a
    missing footer; a missing meta line yields zero origins.  Any other
    unparsable line raises :class:`~repro._jsonl.LogDamaged` naming the
    file and line.
    """
    meta = {"rank": 0, "wall_t0": 0.0, "clock_t0": 0.0, "sim": False}
    spans: list[dict] = []
    counters: list[dict] = []
    end: dict | None = None
    for _, _, rec in read_jsonl(path):
        kind = rec.get("type")
        if kind == "span":
            spans.append(rec)
        elif kind == "counter":
            counters.append(rec)
        elif kind == "meta":
            meta.update(rec)
        elif kind == "end":
            end = rec
    return {"meta": meta, "spans": spans, "counters": counters,
            "end": end}


def merge_traces(paths: Iterable[str | Path]) -> dict:
    """Merge rank traces into a Chrome trace-event JSON object.

    Returns ``{"traceEvents": [...], "displayTimeUnit": "ms",
    "otherData": {...}}``.  Each rank becomes a ``pid`` with a
    process-name metadata event; spans become complete (``X``) events
    with microsecond timestamps; counters become ``C`` events (bytes
    per peer and direction).
    """
    loaded = [load_trace(p) for p in paths]
    if not loaded:
        raise ValueError("no trace files to merge")
    origin = min(t["meta"]["wall_t0"] for t in loaded)
    events: list[dict] = []
    dropped_total = 0
    for t in loaded:
        meta = t["meta"]
        rank = int(meta["rank"])
        # A span at clock value c happened at wall time
        # wall_t0 + (c - clock_t0); shift everything so the earliest
        # rank starts near zero.
        shift = meta["wall_t0"] - meta["clock_t0"] - origin
        events.append({
            "ph": "M", "name": "process_name", "pid": rank, "tid": 0,
            "args": {"name": f"rank {rank}"},
        })
        for s in t["spans"]:
            events.append({
                "name": s["name"],
                "cat": s.get("cat", "other"),
                "ph": "X",
                "ts": (s["ts"] + shift) * 1e6,
                "dur": s["dur"] * 1e6,
                "pid": rank,
                "tid": s.get("tid", 0),
                "args": {"step": s.get("step", -1)},
            })
        for c in t["counters"]:
            events.append({
                "name": f"bytes {c['dir']}",
                "ph": "C",
                "ts": (c["ts"] + shift) * 1e6,
                "pid": rank,
                "tid": 0,
                "args": {f"peer {c['peer']}": c["bytes"]},
            })
        if t["end"] is not None:
            dropped_total += int(t["end"].get("dropped", 0))
    events.sort(key=lambda e: (e.get("ts", 0.0), e["pid"]))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "ranks": len(loaded),
            "dropped_spans": dropped_total,
            "simulated": bool(loaded[0]["meta"].get("sim", False)),
        },
    }


def write_chrome_trace(
    paths: Sequence[str | Path] | str | Path,
    out: str | Path,
) -> Path:
    """Merge rank traces and write the Chrome trace JSON to ``out``.

    ``paths`` may be a list of JSONL files or a single directory/run
    workdir (resolved via :func:`trace_files`).
    """
    if isinstance(paths, (str, Path)):
        paths = trace_files(paths)
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(merge_traces(paths)) + "\n")
    return out
