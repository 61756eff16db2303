"""The knobs shared by the run settings and every worker's config.

:class:`~repro.distrib.orchestrator.RunSettings` (what the user sets on
a run) and :class:`~repro.distrib.worker.WorkerConfig` (what the submit
program hands each rank) used to duplicate fifteen field declarations,
with ``RunSettings.worker_base_cfg()`` hand-copying each one across —
so a knob added to one side could silently never reach the workers.
Both now inherit :class:`WorkerKnobs`; the base config is *derived*
from the dataclass fields (:func:`worker_knob_names`), making the
omission impossible by construction.

All knob fields are keyword-only so the subclasses keep their own
positional signatures (``WorkerConfig(workdir, rank, host, ...)``,
``RunSettings(steps, ...)``): Python places keyword-only dataclass
fields after the subclass' positional ones regardless of inheritance
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

__all__ = ["POLICIES", "TRANSPORTS", "WorkerKnobs", "worker_knob_names"]

#: the wire protocols a rank can exchange ghosts over
TRANSPORTS = ("tcp", "udp")
#: how the monitor answers an overloaded host: move the rank (§5.1)
#: or resize every rank's slab
POLICIES = ("migrate", "rebalance")


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
