"""Span/counter tracers: the null gate and the per-rank JSONL stream.

Record schema (one JSON object per line of ``trace-<rank>.jsonl``):

``{"type": "meta", "rank": R, "wall_t0": W, "clock_t0": C, ...}``
    First line.  ``wall_t0`` is the wall-clock epoch second at which the
    tracer's span clock read ``clock_t0`` — the offset that lets the
    merger align ranks whose monotonic clocks have unrelated origins.
    Simulated tracers carry ``"sim": true`` and both origins are 0.

``{"type": "span", "name": N, "cat": C, "ts": T, "dur": D,
   "step": S, "tid": I}``
    One phase of the compute/communicate cycle.  ``ts``/``dur`` are
    seconds on the rank's span clock; ``step`` is the integration step
    (-1 when not applicable); ``tid`` sub-divides a rank (the threaded
    runner's worker threads).

``{"type": "counter", "peer": P, "dir": "sent"|"recvd",
   "msgs": M, "bytes": B, "ts": T}``
    Cumulative per-peer channel traffic at time ``ts`` (emitted on
    every flush, so the counter track in the viewer is a staircase).

``{"type": "end", "spans": N, "dropped": D}``
    Footer.  ``dropped`` counts spans discarded after the ``max_events``
    bound was hit — the stream is bounded by construction, never the
    run's memory.

The **null-tracer convention**: every instrumented code path holds a
tracer that is :data:`NULL_TRACER` unless tracing was requested, and
calls it unconditionally::

    t0 = self.tracer.begin()
    ...hot work...
    self.tracer.end("compute:0", t0, step=step)

:class:`NullTracer` returns a constant from ``begin`` and discards
``end``/``count``, so the disabled path performs no allocation and no
branching beyond the two attribute calls; span *names are precomputed*
(tuples built in ``__init__``), never formatted in the hot loop.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

__all__ = [
    "CAT_COMPUTE",
    "CAT_COMM",
    "CAT_OTHER",
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "span_category",
]

#: Span categories of the §7 decomposition: time spent integrating
#: fluid nodes ...
CAT_COMPUTE = "compute"
#: ... time spent exchanging boundary data or waiting on peers ...
CAT_COMM = "comm"
#: ... and everything else (checkpoints, migration and rebalance
#: pauses, heartbeats).
CAT_OTHER = "other"

#: span-name prefix (before ``:``) -> category
_PREFIX_CATEGORY = {
    "compute": CAT_COMPUTE,
    "finalize": CAT_COMPUTE,
    "exchange": CAT_COMM,
    "barrier": CAT_COMM,
    "checkpoint": CAT_OTHER,
    "migration": CAT_OTHER,
    "balance": CAT_OTHER,
    "heartbeat": CAT_OTHER,
    "wait": CAT_COMM,
    # seam conversions translate boundary data between methods — the
    # hybrid run's communication
    "seam": CAT_COMM,
}


def span_category(name: str) -> str:
    """Category of a span name (prefix before ``:``), §7 buckets.

    Unknown prefixes land in :data:`CAT_OTHER` so a new span kind can
    never silently inflate the compute/communicate split.
    """
    return _PREFIX_CATEGORY.get(name.split(":", 1)[0], CAT_OTHER)


#: span name -> category, memoized (names are precomputed and few)
_CATEGORY_CACHE: dict[str, str] = {}


class NullTracer:
    """The disabled tracer: every operation is a constant no-op.

    ``begin`` returns ``0.0`` (a cached float constant) and ``end`` /
    ``count`` discard their arguments, so the instrumented hot path
    allocates nothing and costs two attribute lookups per span when
    tracing is off.  All runtimes default to the shared
    :data:`NULL_TRACER` instance.
    """

    __slots__ = ()

    #: discriminates the null tracer without an isinstance check
    enabled = False

    def begin(self) -> float:
        """Start a span: returns the (dummy) start timestamp."""
        return 0.0

    def end(self, name: str, t0: float, step: int = -1,
            tid: int = 0) -> None:
        """Finish a span started at ``t0`` — discarded."""

    def add_span(self, name: str, ts: float, dur: float, step: int = -1,
                 tid: int = 0) -> None:
        """Record a span with explicit timestamps — discarded."""

    def count(self, peer: int, nbytes: int, sent: bool = True) -> None:
        """Account one channel message to a peer — discarded."""

    def flush(self) -> None:
        """Nothing buffered, nothing to flush."""

    def close(self) -> None:
        """Nothing open, nothing to close."""


#: The shared disabled tracer every runtime defaults to.
NULL_TRACER = NullTracer()


class Tracer:
    """A rank's bounded span/counter stream to ``trace-<rank>.jsonl``.

    Parameters
    ----------
    path:
        Output JSONL file (created eagerly with the meta line, so a
        crashed rank still leaves an alignable — if short — trace).
    rank:
        This rank's id; becomes the Chrome trace ``pid`` lane.
    clock:
        Span clock, defaults to :func:`time.perf_counter`.  Pass a
        simulated clock (or use :meth:`add_span` with explicit
        timestamps and ``sim=True``) for discrete-event runs.
    max_events:
        Hard bound on recorded spans; beyond it spans are counted as
        dropped and the file stops growing (the stream is *bounded*).
    flush_every:
        Buffered spans between file appends.
    sim:
        Mark the stream as simulated time (origins pinned to zero, so
        merged simulated ranks align at t = 0).
    job:
        Service-layer job id this stream belongs to; recorded on the
        meta line (only when non-empty) so traces from a shared worker
        pool stay attributable per job.
    """

    def __init__(
        self,
        path: str | Path,
        rank: int = 0,
        clock=time.perf_counter,
        max_events: int = 200_000,
        flush_every: int = 2_048,
        sim: bool = False,
        job: str = "",
    ) -> None:
        self.path = Path(path)
        self.rank = rank
        self.clock = clock
        self.max_events = int(max_events)
        self.flush_every = int(flush_every)
        self.sim = sim
        self.job = job
        self.enabled = True
        self.spans_recorded = 0
        self.dropped = 0
        self._buf: list[str] = []
        self._counters: dict[tuple[int, str], list[int]] = {}
        self._lock = threading.Lock()
        self._closed = False
        self.path.parent.mkdir(parents=True, exist_ok=True)
        wall_t0 = 0.0 if sim else time.time()  # wall-clock record
        clock_t0 = 0.0 if sim else self.clock()
        self.wall_t0 = wall_t0
        self.clock_t0 = clock_t0
        meta = {
            "type": "meta",
            "rank": rank,
            "wall_t0": wall_t0,
            "clock_t0": clock_t0,
            "sim": sim,
            "version": 1,
        }
        if job:
            meta["job"] = job
        self.path.write_text(json.dumps(meta) + "\n")

    # -- the hot-path interface (mirrors NullTracer) -------------------
    def begin(self) -> float:
        """Start a span: returns the current span-clock timestamp."""
        return self.clock()

    def end(self, name: str, t0: float, step: int = -1,
            tid: int = 0) -> None:
        """Finish a span started at ``t0`` and record it."""
        self.add_span(name, t0, self.clock() - t0, step=step, tid=tid)

    def add_span(self, name: str, ts: float, dur: float, step: int = -1,
                 tid: int = 0) -> None:
        """Record one span with explicit start/duration (seconds)."""
        # Formatted by hand: span names are precomputed ASCII literals
        # and float repr is valid JSON, so this is json.dumps minus its
        # per-call cost — the difference is visible at 5 spans/step.
        cat = _CATEGORY_CACHE.get(name)
        if cat is None:
            cat = _CATEGORY_CACHE[name] = span_category(name)
        with self._lock:
            if self._closed or self.spans_recorded >= self.max_events:
                self.dropped += 1
                return
            self.spans_recorded += 1
            self._buf.append(
                f'{{"type": "span", "name": "{name}", "cat": "{cat}", '
                f'"ts": {ts!r}, "dur": {dur!r}, '
                f'"step": {step}, "tid": {tid}}}'
            )
            if len(self._buf) >= self.flush_every:
                self._flush_locked()

    def count(self, peer: int, nbytes: int, sent: bool = True) -> None:
        """Accumulate one channel message in the per-peer counters."""
        key = (peer, "sent" if sent else "recvd")
        with self._lock:
            box = self._counters.get(key)
            if box is None:
                box = self._counters[key] = [0, 0]
            box[0] += 1
            box[1] += nbytes

    # -- plumbing ------------------------------------------------------
    def _counter_lines(self, ts: float) -> list[str]:
        return [
            json.dumps({
                "type": "counter",
                "peer": peer,
                "dir": direction,
                "msgs": msgs,
                "bytes": nbytes,
                "ts": ts,
            })
            for (peer, direction), (msgs, nbytes)
            in sorted(self._counters.items())
        ]

    def _flush_locked(self) -> None:
        lines = self._buf
        self._buf = []
        lines.extend(self._counter_lines(0.0 if self.sim else self.clock()))
        if lines:
            with open(self.path, "a") as fh:
                fh.write("\n".join(lines) + "\n")

    def flush(self) -> None:
        """Append all buffered spans and a counter snapshot to the file."""
        with self._lock:
            self._flush_locked()

    def close(self) -> None:
        """Flush and write the footer; further spans are discarded."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._flush_locked()
            footer = {
                "type": "end",
                "spans": self.spans_recorded,
                "dropped": self.dropped,
            }
            with open(self.path, "a") as fh:
                fh.write(json.dumps(footer) + "\n")
            self.enabled = False

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
