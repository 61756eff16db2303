"""Simulated workstations: machine models and external load (§5, §7).

The cluster is *non-dedicated*: besides the niced parallel subprocess, a
workstation may run its regular user's interactive programs or another
full-time job.  A piecewise-constant load trace emulates the `uptime`
numbers; the parallel subprocess's effective speed scales as
``1 / (1 + load)`` (a fair-share scheduler splitting cycles between the
parallel job and ``load`` competing full-time processes).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from ..distrib.hostdb import paper_cluster
from .calibration import node_speed

__all__ = ["LoadTrace", "SimHost", "paper_sim_cluster"]


@dataclass(frozen=True)
class LoadTrace:
    """Piecewise-constant external CPU load over simulated time.

    ``points`` are ``(time, load)`` change events sorted by time; the
    load before the first point is 0 (idle workstation).
    """

    points: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        times = [t for t, _ in self.points]
        if times != sorted(times):
            raise ValueError("load trace times must be sorted")
        if any(l < 0 for _, l in self.points):
            raise ValueError("loads must be non-negative")

    def load_at(self, t: float) -> float:
        """External CPU load at simulated time ``t``."""
        idx = bisect.bisect_right([p[0] for p in self.points], t) - 1
        return self.points[idx][1] if idx >= 0 else 0.0

    @classmethod
    def busy_from(cls, t: float, load: float = 2.0) -> "LoadTrace":
        """A user starts a full-time job at time ``t`` (load > 1.5
        triggers migration)."""
        return cls(points=((t, load),))


@dataclass
class SimHost:
    """One simulated workstation."""

    name: str
    model: str = "715/50"
    trace: LoadTrace = field(default_factory=LoadTrace)
    rank: int | None = None  # parallel subprocess currently hosted

    def speed(self, method: str, ndim: int, t: float) -> float:
        """Effective nodes/second for the niced parallel subprocess."""
        base = node_speed(method, ndim, self.model)
        return base / (1.0 + self.trace.load_at(t))

    def load_at(self, t: float) -> float:
        """This host's external load at simulated time ``t``."""
        return self.trace.load_at(t)


def paper_sim_cluster(
    traces: dict[str, LoadTrace] | None = None,
) -> list[SimHost]:
    """The 25-host cluster of §7 (16 x 715/50, 6 x 720, 3 x 710).

    Hosts are ordered by the submit program's preference (fastest model
    first), so assigning ranks 0..P-1 to the first P hosts reproduces
    the paper's "choose 715 models first" strategy.
    """
    traces = traces or {}
    return [
        SimHost(h.name, h.model, traces.get(h.name, LoadTrace()))
        for h in paper_cluster()
    ]
