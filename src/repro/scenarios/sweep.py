"""The sweep engine: parameter grids fanned across the cluster.

``repro sweep --scenario cavity --grid Re=100,400,1000`` expands a
cartesian parameter grid into scenario cases and marches each one —
either through a live :mod:`repro.serve` gateway (submitted in one
request so every pool worker has work queued; identical points come back
from the result cache with zero compute) or through a local backend as
the fallback executor.  Every finished point is scored by the scenario
and appended to a ``sweep.jsonl`` manifest, which doubles as the resume
journal: re-running the same sweep skips points the manifest already
settles, so an interrupted overnight sweep continues where it stopped.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from .._jsonl import LogDamaged, locked_append, read_jsonl
from .base import Case, Scenario, Score

__all__ = [
    "SweepPoint",
    "parse_grid",
    "expand_grid",
    "run_case",
    "run_sweep",
    "write_report",
]


@dataclass
class SweepPoint:
    """One grid point's outcome (one manifest line)."""

    scenario: str
    version: int
    params: dict[str, Any]
    state: str = "pending"          # pending | done | failed
    score: dict[str, Any] | None = None
    job_id: str = ""                # service executor only
    cached: bool = False            # answered from the gateway cache
    elapsed: float = 0.0            # run seconds (0 for cache hits)
    nodes_per_sec: float = 0.0      # nodes x steps / elapsed (0: simulated)
    error: str = ""

    @property
    def passed(self) -> bool:
        return (self.state == "done" and self.score is not None
                and bool(self.score.get("passed")))

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @property
    def key(self) -> str:
        """Identity of the point inside one sweep manifest."""
        return json.dumps(
            [self.scenario, self.version, self.params], sort_keys=True
        )


def _parse_value(text: str) -> Any:
    """One grid value: int, then float, then bool, then bare string."""
    t = text.strip()
    for cast in (int, float):
        try:
            return cast(t)
        except ValueError:
            pass
    if t.lower() in ("true", "false"):
        return t.lower() == "true"
    return t


def parse_grid(items: Iterable[str]) -> dict[str, list[Any]]:
    """Parse ``name=v1,v2,...`` grid arguments (the CLI form)."""
    grid: dict[str, list[Any]] = {}
    for item in items:
        name, sep, values = item.partition("=")
        if not sep or not name.strip() or not values.strip():
            raise ValueError(
                f"grid argument {item!r} must look like Re=100,400"
            )
        name = name.strip()
        if name in grid:
            raise ValueError(f"grid parameter {name!r} given twice")
        grid[name] = [_parse_value(v) for v in values.split(",")]
    return grid


def expand_grid(grid: Mapping[str, Sequence[Any]]) -> list[dict[str, Any]]:
    """Cartesian product of a parameter grid, deterministic order.

    ``{}`` expands to the single all-defaults point.
    """
    if not grid:
        return [{}]
    names = list(grid)
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(grid[n] for n in names))
    ]


# ----------------------------------------------------------------------
# executors
# ----------------------------------------------------------------------
def _case_nodes(case: Case) -> int:
    return int(math.prod(case.spec.grid_shape))


def run_case(case: Case, backend: str = "serial",
             workdir: str | Path | None = None):
    """March one case on a local backend; returns the RunResult."""
    from ..distrib.orchestrator import RunSettings
    from ..facade import run

    settings = RunSettings(**case.settings)
    return run(case.spec, backend=backend, settings=settings,
               workdir=workdir)


def _score_safely(scenario: Scenario, params, result) -> Score:
    try:
        return scenario.score(result, **params)
    except Exception as exc:  # noqa: BLE001 - a score bug fails the point
        return Score(passed=False,
                     failures=[f"scoring raised {type(exc).__name__}: "
                               f"{exc}"])


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
def run_sweep(
    scenario: Scenario,
    grid: Mapping[str, Sequence[Any]],
    *,
    backend: str = "serial",
    server: Any = None,
    out_dir: str | Path | None = None,
    resume: bool = True,
    timeout: float = 600.0,
    log: Callable[[str], None] | None = None,
) -> list[SweepPoint]:
    """Expand ``grid`` over ``scenario`` and march + score every point.

    With ``server`` the points are submitted to the gateway as one
    batch and collected as they finish (the cluster executor);
    otherwise each point runs on the local ``backend`` in sequence (the
    fallback executor).  ``out_dir`` holds the ``sweep.jsonl`` manifest
    — with ``resume`` (default) points already settled there are not
    recomputed.  Returns every point of the grid, resumed ones
    included.
    """
    emit = log or (lambda msg: None)
    points = [
        SweepPoint(scenario=scenario.name, version=scenario.version,
                   params=scenario.resolve(**p))
        for p in expand_grid(grid)
    ]
    manifest: Path | None = None
    settled: dict[str, SweepPoint] = {}
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest = out_dir / "sweep.jsonl"
        if resume and manifest.exists():
            for lineno, _, rec in read_jsonl(manifest, manifest.read_text()):
                try:
                    prev = SweepPoint(**rec)
                except TypeError as exc:
                    raise LogDamaged(manifest, lineno, str(exc)) from None
                if prev.state == "done":
                    settled[prev.key] = prev

    def record(point: SweepPoint) -> None:
        if manifest is not None:
            locked_append(manifest, json.dumps(point.to_dict()) + "\n")

    pending: list[SweepPoint] = []
    for point in points:
        if point.key in settled:
            emit(f"resumed {point.params} (manifest)")
        else:
            pending.append(point)

    # every case is built before any runs, so a bad point fails fast
    cases = [scenario.case(**point.params) for point in pending]
    if pending:
        if server is not None:
            _run_service_points(scenario, pending, cases, server, timeout,
                                record, emit)
        else:
            _run_local_points(scenario, pending, cases, backend, record,
                              emit)
    return [settled.get(p.key, p) for p in points]


def _finish(point: SweepPoint, scenario: Scenario, result, case: Case,
            record, emit) -> None:
    score = _score_safely(scenario, point.params, result)
    point.score = score.to_dict()
    point.state = "done"
    point.cached = result.cached
    point.elapsed = elapsed = float(result.elapsed)
    steps = int(case.settings.get("steps", 0))
    # a simulated run's elapsed is modelled cluster time, not compute
    simulated = result.sim is not None
    if elapsed > 0 and steps and not simulated:
        point.nodes_per_sec = _case_nodes(case) * steps / elapsed
    record(point)
    verdict = "pass" if point.passed else "FAIL"
    took = "cached" if point.cached else \
        f"{elapsed:.1f} s{' simulated' if simulated else ''}"
    emit(f"{verdict} {point.params} ({took})")


def _fail(point: SweepPoint, exc: Exception, record, emit) -> None:
    point.state = "failed"
    point.error = f"{type(exc).__name__}: {exc}"
    record(point)
    emit(f"ERROR {point.params}: {point.error}")


def _run_local_points(scenario, pending, cases, backend, record,
                      emit) -> None:
    for point, case in zip(pending, cases):
        try:
            result = run_case(case, backend=backend)
        except Exception as exc:  # noqa: BLE001 - isolate per point
            _fail(point, exc, record, emit)
            continue
        _finish(point, scenario, result, case, record, emit)


def _run_service_points(scenario, pending, cases, server, timeout,
                        record, emit) -> None:
    from ..serve.client import ServeClient

    client = server if isinstance(server, ServeClient) \
        else ServeClient(server)
    submitted = client.submit_batch([
        {"spec": case.spec, "settings": dict(case.settings)}
        for case in cases
    ])
    emit(f"submitted {len(submitted)} jobs "
         f"({sum(1 for r in submitted if r.get('cached'))} cached)")
    for point, case, rec in zip(pending, cases, submitted):
        point.job_id = rec["job_id"]
        try:
            result = client.run_result(rec["job_id"], timeout=timeout)
        except Exception as exc:  # noqa: BLE001 - isolate per point
            _fail(point, exc, record, emit)
            continue
        _finish(point, scenario, result, case, record, emit)


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------
def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000 or abs(value) < 1e-2:
        return f"{value:.3g}"
    return f"{value:.4f}".rstrip("0").rstrip(".")


def write_report(
    points: Sequence[SweepPoint],
    out_dir: str | Path,
    scenario: Scenario | None = None,
) -> Path:
    """Write ``summary.json`` + ``summary.md`` for a finished sweep.

    Returns the markdown path.  The table carries one row per point:
    parameters, verdict, each scored residual against its bound, and
    throughput (grid nodes x steps per compute second; cache hits show
    as "cached", simulated points, which compute nothing, as "-").
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.json").write_text(json.dumps({
        "scenario": scenario.name if scenario else
            (points[0].scenario if points else ""),
        "points": [p.to_dict() for p in points],
        "passed": sum(1 for p in points if p.passed),
        "failed": sum(1 for p in points if not p.passed),
    }, indent=2))

    residual_names: list[str] = []
    for p in points:
        for name in (p.score or {}).get("residuals", {}):
            if name not in residual_names:
                residual_names.append(name)
    lines = []
    title = scenario.name if scenario else \
        (points[0].scenario if points else "sweep")
    lines.append(f"# Sweep: {title}")
    lines.append("")
    if scenario is not None:
        lines.append(f"{scenario.title} (v{scenario.version}; "
                     f"reference: {scenario.reference})")
        lines.append("")
    header = ["params", "score"] + residual_names + ["nodes/s"]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    for p in points:
        params = ", ".join(f"{k}={v}" for k, v in p.params.items()) \
            or "(defaults)"
        if p.state == "failed":
            verdict = "error"
        else:
            verdict = "pass" if p.passed else "**FAIL**"
        row = [params, verdict]
        score = p.score or {}
        for name in residual_names:
            value = score.get("residuals", {}).get(name)
            bound = score.get("bounds", {}).get(name)
            if value is None:
                row.append("-")
            elif bound is not None:
                row.append(f"{_fmt(value)} (<= {_fmt(bound)})")
            else:
                row.append(_fmt(value))
        row.append("cached" if p.cached else
                   (_fmt(p.nodes_per_sec) if p.nodes_per_sec else "-"))
        lines.append("| " + " | ".join(row) + " |")
    failures = [
        f"- `{p.params}`: " + "; ".join(
            (p.score or {}).get("failures", []) or [p.error or "failed"]
        )
        for p in points if not p.passed
    ]
    if failures:
        lines.append("")
        lines.append("## Failures")
        lines.extend(failures)
    md = out_dir / "summary.md"
    md.write_text("\n".join(lines) + "\n")
    return md
