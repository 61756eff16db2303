"""The §7 breakdown: T_comp / T_comm / efficiency from a trace.

The paper measures "the time per integration step" from the outside and
attributes the gap between measured and ideal speed to communication
(eqs. 5-8).  A trace makes that attribution direct: summing each rank's
spans by category yields the per-rank computation time ``T_comp``,
communication time ``T_comm`` (ghost exchanges, collectives, barriers)
and everything else (checkpoints, migration pauses), from which the
utilization ``T_comp / (T_comp + T_comm + T_other)`` — eq. 8's ``f``
measured from the inside — falls out per rank and for the whole run.

``python -m repro.tools trace <run>`` prints this table for a finished
run; the same summary is attached to :class:`repro.RunResult` when a
facade run traces itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .merge import load_trace, trace_files
from .tracer import CAT_COMM, CAT_COMPUTE, CAT_OTHER

__all__ = [
    "RankBreakdown",
    "TraceSummary",
    "summarize",
    "format_breakdown_table",
]


@dataclass
class RankBreakdown:
    """One rank's time-per-category totals (seconds of span time)."""

    rank: int
    t_comp: float = 0.0
    t_comm: float = 0.0
    t_other: float = 0.0
    spans: int = 0
    steps: int = 0                 # distinct integration steps covered
    bytes_sent: int = 0
    bytes_recvd: int = 0
    messages_sent: int = 0
    dropped_spans: int = 0

    @property
    def t_total(self) -> float:
        """All span time of this rank."""
        return self.t_comp + self.t_comm + self.t_other

    @property
    def utilization(self) -> float:
        """Eq. 8 measured from the inside: compute share of span time."""
        total = self.t_total
        return self.t_comp / total if total > 0 else 0.0


@dataclass
class TraceSummary:
    """The §7 compute/communicate decomposition of one traced run."""

    ranks: list[RankBreakdown] = field(default_factory=list)
    simulated: bool = False

    @property
    def n_ranks(self) -> int:
        """Number of rank traces merged into this summary."""
        return len(self.ranks)

    @property
    def t_comp(self) -> float:
        """Total computation seconds across ranks."""
        return sum(r.t_comp for r in self.ranks)

    @property
    def t_comm(self) -> float:
        """Total communication seconds across ranks."""
        return sum(r.t_comm for r in self.ranks)

    @property
    def t_other(self) -> float:
        """Total checkpoint/migration/heartbeat seconds across ranks."""
        return sum(r.t_other for r in self.ranks)

    @property
    def utilization(self) -> float:
        """Run-wide compute share of traced time (eq. 8's ``f``)."""
        total = self.t_comp + self.t_comm + self.t_other
        return self.t_comp / total if total > 0 else 0.0

    def per_step(self) -> dict[str, float]:
        """Mean per-step ``{t_comp, t_comm, t_other}`` of one rank.

        Divides by the max step count seen so the numbers compare
        directly with externally-timed seconds per step.
        """
        steps = max((r.steps for r in self.ranks), default=0)
        n = max(self.n_ranks, 1)
        if steps == 0:
            return {"t_comp": 0.0, "t_comm": 0.0, "t_other": 0.0}
        return {
            "t_comp": self.t_comp / n / steps,
            "t_comm": self.t_comm / n / steps,
            "t_other": self.t_other / n / steps,
        }

    def timings(self) -> dict[int, dict[str, float]]:
        """Per-rank ``{rank: {"t_comp": ..., "t_comm": ..., ...}}``."""
        return {
            r.rank: {
                "t_comp": r.t_comp,
                "t_comm": r.t_comm,
                "t_other": r.t_other,
                "utilization": r.utilization,
            }
            for r in self.ranks
        }


def summarize(paths: Sequence[str | Path] | str | Path) -> TraceSummary:
    """Reduce per-rank trace files to a :class:`TraceSummary`.

    ``paths`` may be a list of JSONL files or a run directory (resolved
    like :func:`repro.trace.merge.write_chrome_trace`).
    """
    if isinstance(paths, (str, Path)):
        paths = trace_files(paths)
    summary = TraceSummary()
    by_rank: dict[int, RankBreakdown] = {}
    rank_steps: dict[int, set] = {}
    for path in paths:
        t = load_trace(path)
        rank = int(t["meta"]["rank"])
        # A migrated-and-restarted rank leaves one file per generation;
        # its incarnations accumulate into one breakdown.
        bd = by_rank.get(rank)
        if bd is None:
            bd = by_rank[rank] = RankBreakdown(rank=rank)
            rank_steps[rank] = set()
        steps = rank_steps[rank]
        for s in t["spans"]:
            cat = s.get("cat", CAT_OTHER)
            dur = float(s["dur"])
            if cat == CAT_COMPUTE:
                bd.t_comp += dur
            elif cat == CAT_COMM:
                bd.t_comm += dur
            else:
                bd.t_other += dur
            bd.spans += 1
            # Integration steps are counted from compute spans only: a
            # trailing heartbeat/checkpoint span carries the *next*
            # step number and would inflate the per-step averages.
            if cat == CAT_COMPUTE and s.get("step", -1) >= 0:
                steps.add(s["step"])
        bd.steps = len(steps)
        latest: dict[tuple[int, str], tuple[int, int]] = {}
        for c in t["counters"]:
            latest[(c["peer"], c["dir"])] = (c["msgs"], c["bytes"])
        for (peer, direction), (msgs, nbytes) in latest.items():
            if direction == "sent":
                bd.bytes_sent += nbytes
                bd.messages_sent += msgs
            else:
                bd.bytes_recvd += nbytes
        if t["end"] is not None:
            bd.dropped_spans += int(t["end"].get("dropped", 0))
        summary.simulated = bool(t["meta"].get("sim", False))
    summary.ranks = sorted(by_rank.values(), key=lambda r: r.rank)
    return summary


def format_breakdown_table(summary: TraceSummary) -> str:
    """The §7 table: per-rank T_comp / T_comm split and utilization."""
    from ..harness.metrics import format_table

    rows = []
    for r in summary.ranks:
        steps = max(r.steps, 1)
        rows.append([
            r.rank,
            r.steps,
            f"{r.t_comp / steps * 1e3:.3f} ms",
            f"{r.t_comm / steps * 1e3:.3f} ms",
            f"{r.t_other / steps * 1e3:.3f} ms",
            f"{r.bytes_sent:,}",
            f"{r.utilization:.3f}",
        ])
    per = summary.per_step()
    rows.append([
        "all",
        max((r.steps for r in summary.ranks), default=0),
        f"{per['t_comp'] * 1e3:.3f} ms",
        f"{per['t_comm'] * 1e3:.3f} ms",
        f"{per['t_other'] * 1e3:.3f} ms",
        f"{sum(r.bytes_sent for r in summary.ranks):,}",
        f"{summary.utilization:.3f}",
    ])
    kind = "simulated" if summary.simulated else "measured"
    return format_table(
        ["rank", "steps", "T_comp/step", "T_comm/step", "T_other/step",
         "bytes sent", "f (eq. 8)"],
        rows,
        title=f"per-step compute/communicate decomposition "
              f"({kind}, §7)",
    )
