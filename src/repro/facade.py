"""One entry point over the five runtimes: :func:`repro.run`.

The repo grew five ways to march the same problem — the serial
:class:`~repro.core.Simulation`, the in-process
:class:`~repro.core.ThreadedSimulation`, the socket-distributed
:class:`~repro.distrib.DistributedRun`, the discrete-event
:class:`~repro.cluster.ClusterSimulation` and the remote
:mod:`repro.serve` gateway (``backend="service"``) — each with its own
construction ritual.  They all consume the same
:class:`~repro.distrib.ProblemSpec` and they are all instrumented by the
same :mod:`repro.trace` layer, so one facade can drive any of them::

    import repro
    from repro.distrib import ProblemSpec, RunSettings

    spec = ProblemSpec(method="fd", grid_shape=(64, 32), blocks=(2, 2),
                       periodic=(True, False),
                       geometry={"kind": "channel"})
    result = repro.run(spec, backend="distributed",
                       settings=RunSettings(steps=100, trace=True))
    print(result.fields["rho"].shape, result.utilization)

Every backend returns the same :class:`RunResult`: the final global
fields (``None`` for the purely-temporal simulated backend), the
in-flight diagnostics records, and — when tracing was requested — the
merged Chrome trace path plus the §7 per-rank T_comp/T_comm breakdown.
The per-backend classes remain public for fine-grained control (live
monitors, custom host tables, mid-run migration); for everything
else, prefer this function.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .distrib.settings import BACKENDS, check_supported, uniform_side
from .trace import NULL_TRACER, Tracer, TraceSummary, summarize, \
    write_chrome_trace

__all__ = ["run", "RunResult", "BACKENDS"]


@dataclass
class RunResult:
    """What every backend of :func:`run` returns.

    ``fields`` holds the reassembled global arrays (``None`` for the
    simulated backend, which models time, not state).  ``diagnostics``
    are the in-flight :class:`~repro.distrib.diagnostics.DiagRecord`
    samples when ``diag_every`` was set.  When the run traced itself,
    ``trace_path`` points at the merged Chrome trace JSON (loadable in
    Perfetto) and ``trace_summary`` carries the §7 breakdown.
    """

    backend: str
    steps: int
    elapsed: float                      # wall (or simulated) seconds
    fields: dict[str, np.ndarray] | None = None
    diagnostics: list = field(default_factory=list)
    trace_path: Path | None = None
    trace_summary: TraceSummary | None = None
    workdir: Path | None = None
    sim: Any = None                     # SimResult of the simulated backend
    migrations: int = 0                 # §5.1 epochs the run executed
    rebalances: int = 0                 # rebalance epochs (re-cut domains)
    job_id: str = ""                    # service-backend job id
    cached: bool = False                # served from the gateway's cache

    @property
    def timings(self) -> dict[int, dict[str, float]]:
        """Per-rank ``{rank: {t_comp, t_comm, t_other, utilization}}``.

        Empty when the run did not trace itself.
        """
        if self.trace_summary is None:
            return {}
        return self.trace_summary.timings()

    @property
    def utilization(self) -> float | None:
        """Eq. 8's ``f`` from the trace (``None`` without a trace)."""
        if self.trace_summary is None:
            return None
        return self.trace_summary.utilization


def _settings(settings, steps):
    from .distrib.orchestrator import RunSettings

    if settings is None:
        if steps is None:
            raise ValueError("pass steps= or settings=")
        return RunSettings(steps=int(steps))
    if steps is not None and steps != settings.steps:
        raise ValueError(
            f"steps={steps} contradicts settings.steps={settings.steps}"
        )
    return settings


def _initial_fields(spec, fields):
    if fields is not None:
        return dict(fields)
    from .distrib.initprog import initial_fields

    # kind=None resolves the spec's declarative init (rest by default)
    return initial_fields(spec, None)


def _finish_trace(result: RunResult, trace_dir: Path) -> None:
    """Merge per-rank streams and attach summary + path to the result."""
    if not any(trace_dir.glob("trace-*.jsonl")):
        return
    out = trace_dir / "trace.json"
    if not out.exists():
        write_chrome_trace(trace_dir, out)
    result.trace_path = out
    result.trace_summary = summarize(trace_dir)


def _run_inprocess(spec, fields, settings, workdir, threaded: bool,
                   n_steps: int, persist_diag: bool = False) -> RunResult:
    tracer = NULL_TRACER
    trace_dir = None
    if settings.trace:
        trace_dir = Path(workdir) / "trace"
        tracer = Tracer(trace_dir / "trace-0000.jsonl", rank=0,
                        job=settings.job_id)
    # With an explicit workdir the in-process runs persist their
    # diagnostics to the same diagnostics.jsonl a distributed run
    # streams — appended record by record, so the serve gateway can
    # tail a small job live exactly like a large one.
    diag_log = None
    if persist_diag and settings.diag_every > 0:
        from .distrib.diagnostics import DiagnosticsLog

        diag_log = DiagnosticsLog.for_workdir(workdir)
    # settings.step_delays is the same per-rank synthetic-load knob the
    # distributed workers honour (the serial runner ignores it).
    delays = list(settings.step_delays)
    sim = spec.build_simulation(
        fields, threaded=threaded, tracer=tracer,
        delay_fn=lambda rank, step: (
            delays[rank] if rank < len(delays) else 0.0
        ),
    )
    diagnostics: list = []
    t0 = time.perf_counter()
    # a failing run (e.g. a NaN tripping the diagnostics) must not leave
    # the trace stream open
    try:
        if settings.diag_every > 0:
            # sample the same global reductions a distributed run would,
            # judged by the same abort rule
            from .distrib.diagnostics import check_record

            every = settings.diag_every
            done = 0
            while done < n_steps:
                chunk = min(every - sim.step_count % every, n_steps - done)
                sim.step(chunk)
                done += chunk
                if sim.step_count % every == 0:
                    rec = sim.global_diagnostics()
                    diagnostics.append(rec)
                    if diag_log is not None:
                        diag_log.append(rec)
                    check_record(rec)
        else:
            sim.step(n_steps)
        elapsed = time.perf_counter() - t0
    finally:
        tracer.close()
    result = RunResult(
        backend="threaded" if threaded else "serial",
        steps=n_steps,
        elapsed=elapsed,
        fields=sim.global_state(),
        diagnostics=diagnostics,
        workdir=Path(workdir) if trace_dir is not None else None,
    )
    if trace_dir is not None:
        _finish_trace(result, trace_dir)
    return result


def _run_on_workers(spec, fields, settings, workdir) -> RunResult:
    from .distrib.diagnostics import DiagnosticsLog
    from .distrib.orchestrator import DistributedRun

    workdir = Path(workdir)
    t0 = time.perf_counter()
    dist = DistributedRun(spec, fields, workdir, settings)
    dist.start()
    dist.wait()
    out = dist.collect()
    elapsed = time.perf_counter() - t0
    mon = dist.monitor
    result = RunResult(
        backend="distributed",
        steps=settings.steps,
        elapsed=elapsed,
        fields=out,
        diagnostics=DiagnosticsLog.for_workdir(workdir).read(),
        workdir=workdir,
        migrations=mon.migrations if mon is not None else 0,
        rebalances=mon.rebalances if mon is not None else 0,
    )
    _finish_trace(result, workdir / "trace")
    return result


def _run_simulated(spec, settings, workdir) -> RunResult:
    from .cluster.simulator import ClusterSimulation

    trace_dir = Path(workdir) / "trace" if settings.trace else None
    sim = ClusterSimulation(
        spec.methods_by_rank() if spec.is_hybrid else spec.method,
        spec.ndim,
        spec.blocks,
        uniform_side(spec),
        trace_dir=trace_dir,
    )
    res = sim.run(steps=settings.steps)
    result = RunResult(
        backend="simulated",
        steps=settings.steps,
        elapsed=res.elapsed,
        fields=None,
        sim=res,
        workdir=Path(workdir) if trace_dir is not None else None,
        migrations=len(res.migrations),
        rebalances=len(res.rebalances),
    )
    if trace_dir is not None:
        _finish_trace(result, trace_dir)
    return result


def _run_service(spec, settings, server) -> RunResult:
    from .serve.client import ServeClient

    client = ServeClient(server)
    job_id = client.submit(spec, settings=settings)["job_id"]
    timeout = settings.run_timeout if settings.run_timeout > 0 else 600.0
    return client.run_result(job_id, timeout=timeout)


def run(
    spec,
    backend: str = "serial",
    settings=None,
    *,
    steps: int | None = None,
    fields: Mapping[str, np.ndarray] | None = None,
    workdir: str | Path | None = None,
    server: Any = None,
) -> RunResult:
    """March one :class:`~repro.distrib.ProblemSpec` on any backend.

    Parameters
    ----------
    spec:
        The problem (method, grid, decomposition, geometry).
    backend:
        ``"serial"`` (in-process, subregions stepped sequentially),
        ``"threaded"`` (one thread per subregion), ``"distributed"``
        (one OS process per rank over TCP/UDP, monitored and
        migratable), ``"simulated"`` (the discrete-event 1994-cluster
        model — time only, no field data) or ``"service"`` (submit to a
        running :class:`repro.serve.Gateway` named by ``server=`` and
        wait; identical submissions come back from its result cache).
    settings:
        A :class:`~repro.distrib.RunSettings`; every backend honours
        ``steps`` and ``trace``, every backend but ``"simulated"``
        (which has no fields to sample and refuses it) ``diag_every``,
        and the distributed backend all of it.  ``steps=`` alone is
        enough when the defaults do.
    steps:
        Shorthand for ``settings=RunSettings(steps=...)``.
    fields:
        Initial global arrays; defaults to the spec's fluid at rest.
    workdir:
        Where the distributed backend decomposes the problem and where
        any backend writes its trace streams; a temporary directory is
        created when omitted but needed.
    server:
        For ``backend="service"``: the gateway to submit to — a
        ``"host:port"`` address, or the serve directory of a running
        gateway.

    Returns
    -------
    RunResult
        Final fields, diagnostics records, and — with
        ``settings.trace`` — the merged Chrome trace and §7 breakdown.
    """
    settings = _settings(settings, steps)
    check_supported(spec, backend, settings, fields=fields)
    if backend == "service":
        if server is None:
            raise ValueError(
                'backend="service" needs server= (a "host:port" '
                "gateway address or the serve directory)"
            )
        return _run_service(spec, settings, server)
    if workdir is None and (settings.trace or backend == "distributed"):
        workdir = tempfile.mkdtemp(prefix=f"repro-{backend}-")
        if backend == "distributed":
            # DistributedRun insists on an empty directory
            workdir = Path(workdir) / "run"
    if backend == "simulated":
        return _run_simulated(spec, settings, workdir or ".")
    init = _initial_fields(spec, fields)
    if backend == "distributed":
        return _run_on_workers(spec, init, settings, workdir)
    return _run_inprocess(
        spec, init, settings, workdir or ".",
        threaded=(backend == "threaded"), n_steps=settings.steps,
        persist_diag=(workdir is not None),
    )
