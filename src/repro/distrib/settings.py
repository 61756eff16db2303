"""The knobs every rank shares, and the one table of what a run can do.

:class:`~repro.distrib.orchestrator.RunSettings` (what the user sets on
a run) and :class:`~repro.distrib.worker.WorkerConfig` (what the submit
program hands each rank) both inherit :class:`WorkerKnobs`, whose
fields are keyword-only so the subclasses keep their own positional
signatures.  :func:`check_supported` alone decides whether a run can go
ahead.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

__all__ = ["BACKENDS", "POLICIES", "SERVED", "TRANSPORTS", "WorkerKnobs",
           "check_known", "check_supported", "uniform_side",
           "worker_knob_names"]

#: the runtimes :func:`repro.run` can dispatch one problem to; the first
#: four execute locally, ``"service"`` submits to a running
#: :class:`repro.serve.Gateway` and waits
BACKENDS = ("serial", "threaded", "distributed", "simulated", "service")
#: the backends a serve pool worker runs a job on: ``"simulated"`` has
#: no fields to return (or cache), ``"service"`` would submit back to a
#: gateway
SERVED = ("serial", "threaded", "distributed")
#: the wire protocols a rank can exchange ghosts over
TRANSPORTS = ("tcp", "udp")
#: how the monitor answers an overloaded host: move the rank (§5.1)
#: or resize every rank's slab
POLICIES = ("migrate", "rebalance")


def uniform_side(spec) -> int:
    """The one subregion side of ``spec``'s cut axes, which the
    simulated backend needs; :class:`ValueError` when they differ."""
    sides = {
        g // b for g, b in zip(spec.grid_shape, spec.blocks) if b > 1
    } or {spec.grid_shape[0] // spec.blocks[0]}
    if len(sides) != 1:
        raise ValueError(
            "the simulated backend needs a uniform subregion side; "
            f"grid {spec.grid_shape} / blocks {spec.blocks} gives {sides}"
        )
    return sides.pop()


def check_known(kind: str, name: str, known: tuple[str, ...]) -> None:
    """Raise :class:`ValueError` unless the table ``known`` (one of
    this module's) lists ``name``, a ``kind`` such as ``"policy"``."""
    if name not in known:
        what = (f"backend {name!r} cannot be served" if known is SERVED
                else f"unknown {kind} {name!r}")
        raise ValueError(f"{what}; expected one of {known}")


def check_supported(
    spec, backend: str, settings, *, fields=None, served: bool = False,
) -> None:
    """Refuse a run this build cannot perform: the one support table.

    ``backend`` would march ``spec`` from the caller's ``fields``
    (``None``: the spec's own) under ``settings`` (a
    :class:`~repro.distrib.RunSettings`); ``served`` marks a job for a
    serve pool worker.  Every method mix runs in 2D and 3D on every
    backend.  Raises :class:`ValueError` for an unknown name, an
    unservable backend, other dimensions, a simulated run given fields
    or diagnostics or with uneven sides, and a service run given
    fields; :class:`~repro.balance.RecutError` for a distributed
    rebalance of a spec that is not a solid-free single-method chain.
    """
    check_known("backend", backend, SERVED if served else BACKENDS)
    check_known("transport", settings.transport, TRANSPORTS)
    check_known("policy", settings.policy, POLICIES)
    if spec.ndim not in (2, 3):
        raise ValueError(f"{spec.ndim}D problems are not supported")
    if backend == "simulated":
        if fields is not None or settings.diag_every > 0:
            raise ValueError(
                "the simulated backend models time, not field data: "
                "it takes no fields= and samples no diagnostics"
            )
        uniform_side(spec)
    if backend == "service" and fields is not None:
        raise ValueError(
            "the service backend initializes fields from the spec"
        )
    if backend == "distributed" and settings.policy == "rebalance":
        from ..balance.recut import check_rebalanceable

        check_rebalanceable(spec)


@dataclass(kw_only=True)
class WorkerKnobs:
    """Runtime knobs every rank of a run shares.

    The fields travel verbatim from
    :class:`~repro.distrib.orchestrator.RunSettings` into each rank's
    :class:`~repro.distrib.worker.WorkerConfig` (see
    :meth:`~repro.distrib.orchestrator.RunSettings.worker_base_cfg`).
    Behaviours the paper fixes as policy are constants of the modules
    that implement them, not knobs: ranks run niced (§5.1,
    :data:`~repro.distrib.worker.NICENESS`), receives are
    first-come-first-served (App. C) and link recovery backs off on a
    fixed schedule (:mod:`repro.net.channels`).
    """

    save_every: int = 0        # checkpoint period in steps (0 = never)
    transport: str = "tcp"     # "tcp" (paper's choice) or "udp" (App. D)
    step_delays: list[float] = field(default_factory=list)
    #  test/emulation knob: extra seconds per step for each rank
    #  (indexed by rank, missing ranks 0), emulating busy or slow hosts
    #  so App. A un-synchronization and first-come-first-served
    #  buffering can be exercised for real, and — skewed — so the load
    #  estimator and rebalance planner see a real imbalance
    recv_timeout: float = 60.0
    sync_timeout: float = 60.0
    diag_every: int = 0        # global-diagnostics period (0 = off)
    udp_loss: float = 0.0      # injected datagram loss rate (App. D knob)
    trace: bool = False        # stream per-rank trace-<rank>.jsonl
    #  spans/counters (repro.trace) from every runtime phase
    fault_plan: str = ""       # JSON repro.chaos.FaultPlan: deterministic
    #  seeded fault injection (worker kills/stalls, frame drops/dups/
    #  truncations, checkpoint corruption, injected NaNs, host-load
    #  spikes)
    job_id: str = ""           # repro.serve job this run belongs to;
    #  tags every rank's trace stream (meta line "job" field) so merged
    #  traces from a shared worker pool stay attributable per job


def worker_knob_names() -> tuple[str, ...]:
    """Names of every shared knob, in declaration order."""
    return tuple(f.name for f in fields(WorkerKnobs))
