"""In-memory span recording around calls into the program's layers.

The benchmark never re-encodes the step schedule: it replaces public
callables *on instances* (``sim.step``, ``method.compute_phase``,
``sim.exchanger.exchange`` ...) with wrappers that time the call and
remember which span was open when it started.  Spans stay in memory and
are written once, after the run.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int   # index of the enclosing span, -1 for a root
    run: str      # workload/run id shared by every span of one run

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans and counts of one traced run."""

    def __init__(self, run: str) -> None:
        self.run = run
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, 0.0, 0.0, parent, self.run))
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield index
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.run)
            self.counts[name] += 1

    def wrap(self, obj, attr: str, name: str | Callable[..., str]) -> None:
        """Replace ``obj.attr`` with a wrapper recording one span per call.

        ``name`` may be a function of the call's arguments (used to tell
        compute phase 0 from phase 1).
        """
        inner = getattr(obj, attr)

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label):
                return inner(*args, **kwargs)

        setattr(obj, attr, traced)

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s.duration for s in self.spans if s.name == name)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "run": self.run,
            "columns": ["name", "start", "end", "parent"],
            "spans": [[s.name, s.start, s.end, s.parent] for s in self.spans],
            "counts": dict(self.counts),
        }))


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part its child spans cover.

    Children may overlap each other (they do not in a single thread, but
    the arithmetic should not depend on that), so coverage is the length
    of the union of the child intervals clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for index, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def self_total(spans: list[Span], name: str) -> float:
    """Summed self time of every span with this name."""
    return sum(t for s, t in zip(spans, self_times(spans)) if s.name == name)
