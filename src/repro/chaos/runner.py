"""Run distributed computations under fault plans and judge the outcome.

This is the executable form of the PR's acceptance contract: a run
under a seeded :class:`~repro.chaos.plan.FaultPlan` must end in either
a **bit-for-bit match** against the fault-free serial reference (the
recovery machinery healed the fault completely) or a **clean
diagnostic abort** (a :class:`~repro.distrib.MonitorError` naming what
went wrong) — never a hang, never a silent divergence.

:func:`run_scenario` executes one seeded scenario end to end and
classifies it; the ``repro chaos`` CLI runs one scenario at a time
through it.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from ..distrib.journal import read_journal
from .plan import DUMP_KINDS, PROCESS_KINDS, FaultPlan

__all__ = [
    "ChaosOutcome",
    "chaos_settings",
    "chaos_spec",
    "check_recovery_ledger",
    "run_scenario",
    "serial_reference",
]

#: Outcome classifications, best to worst.  ``match`` and
#: ``clean_abort`` pass the gate; ``hang``, ``divergence`` and
#: ``error`` fail it.
_PASSING = frozenset({"match", "clean_abort"})


@dataclass
class ChaosOutcome:
    """One chaos run, classified."""

    scenario: str
    seed: int
    outcome: str               # match | clean_abort | hang | divergence
                               # | ledger_gap | error
    detail: str = ""
    elapsed: float = 0.0       # wall seconds of the faulted run
    steps: int = 0
    steps_per_second: float = 0.0
    restarts: int = 0
    migrations: int = 0
    rebalances: int = 0
    faults: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.outcome in _PASSING


def chaos_spec(blocks: tuple[int, ...] = (2, 1)):
    """The small lattice-Boltzmann channel problem the chaos runs march.

    Small enough that a full sweep (each scenario replays the run at
    least once through a checkpoint restart) stays in CI budget, large
    enough that every rank owns real boundary traffic.
    """
    from ..distrib import ProblemSpec

    return ProblemSpec(
        method="lb",
        grid_shape=(32, 24),
        blocks=blocks,
        periodic=(True, False),
        params={"nu": 0.1, "gravity": (1e-5, 0.0), "filter_eps": 0.02},
        geometry={"kind": "channel"},
    )


def chaos_settings(steps: int, save_every: int, plan: FaultPlan | None,
                   n_ranks: int):
    """Run settings tuned for fast fault turnaround.

    Short receive/stall timeouts so a lost strip or a stopped worker is
    *detected* in seconds rather than the production minute; a small
    per-step delay on each of the ``n_ranks`` ranks so wall-anchored
    faults (load spikes at ~0.5 s) land while the run is still in
    flight.
    """
    from ..distrib import RunSettings

    return RunSettings(
        steps=steps,
        save_every=save_every,
        step_delays=[0.015] * n_ranks,
        recv_timeout=3.0,
        sync_timeout=20.0,
        stall_timeout=6.0,
        run_timeout=120.0,
        fault_plan=plan.to_json() if plan is not None else "",
    )


def check_recovery_ledger(
    workdir: str | Path, restarts: int = 0
) -> list[str]:
    """Shape-check the recovery ledger of one chaos run.

    The hardening contract is auditable from the journal alone: every
    injected fault that takes a process down (``chaos:kill``,
    ``chaos:stop``) must be answered by a recovery record
    (``recover:restart`` from the restored incarnation, plus the
    monitor's ``recover:ckpt_restart``/``recover:migrate``).  Corrupted
    checkpoints (``dump_*`` kinds) only matter once a restart tries to
    restore one, so they require a recovery record only when the run
    restarted.  Message and host faults are self-healing by design —
    retransmission and load shedding leave no ledger obligation.

    Returns human-readable violations; empty means the ledger is
    well-formed.  Runs that ended in a classified clean abort are not
    audited — an abort is the recovery action.
    """
    kinds = [rec["kind"].partition(":") for rec in read_journal(workdir)]
    chaos = [kind for prefix, _, kind in kinds if prefix == "chaos"]
    recovers = [kind for prefix, _, kind in kinds if prefix == "recover"]
    violations: list[str] = []
    n_proc = sum(1 for kind in chaos if kind in PROCESS_KINDS)
    if n_proc and len(recovers) < n_proc:
        violations.append(
            f"{n_proc} process fault record(s) "
            f"({[k for k in chaos if k in PROCESS_KINDS]}) but only "
            f"{len(recovers)} recover: record(s) {recovers}"
        )
    n_dump = sum(1 for kind in chaos if kind in DUMP_KINDS)
    if n_dump and restarts and not recovers:
        violations.append(
            f"{n_dump} checkpoint fault record(s) and {restarts} "
            f"restart(s) but no recover: record at all"
        )
    return violations


def serial_reference(spec, steps: int) -> dict[str, np.ndarray]:
    """The fault-free serial run every chaos outcome is compared to.

    A uniform problem runs as one block.  A hybrid problem has no
    single-block equivalent (its seams live on the spec's own block
    faces), so it keeps its decomposition.
    """
    from ..facade import run

    if not spec.is_hybrid:
        spec = replace(spec, blocks=(1,) * spec.ndim, weights=None)
    return run(spec, "serial", steps=steps).fields


def _classify_error(exc: Exception) -> tuple[str, str]:
    from ..distrib import MonitorError

    if isinstance(exc, MonitorError):
        if "timed out" in str(exc):
            # The monitor's own deadline fired with workers neither
            # finished nor crashed: that is a hang, the one thing the
            # hardening must never allow.
            return "hang", str(exc)
        return "clean_abort", str(exc)
    return "error", f"{type(exc).__name__}: {exc}"


def run_scenario(
    scenario: str,
    seed: int,
    workdir: str | Path,
    steps: int = 40,
    save_every: int = 10,
    blocks: tuple[int, ...] = (2, 1),
    reference: dict[str, np.ndarray] | None = None,
    plan: FaultPlan | None = None,
) -> ChaosOutcome:
    """Execute one seeded scenario and classify the outcome.

    ``scenario="none"`` runs fault-free.  Pass ``plan`` to override
    the scenario's generated plan with an explicit one (the
    ``repro chaos --plan`` path).
    """
    from ..distrib import DistributedRun

    spec = chaos_spec(blocks)
    n_ranks = spec.build_decomposition().n_active
    if plan is None and scenario != "none":
        plan = FaultPlan.scenario(scenario, seed, n_ranks, steps,
                                  save_every)
    if reference is None:
        reference = serial_reference(spec, steps)

    from ..distrib import initial_fields

    out = ChaosOutcome(
        scenario=scenario,
        seed=seed,
        outcome="error",
        steps=steps,
        faults=[asdict(f) for f in plan.faults] if plan else [],
    )
    settings = chaos_settings(steps, save_every, plan, n_ranks)
    if scenario == "rebalance_kill":
        # The kill must race a *live* rebalance: a skewed synthetic
        # load manufactures a real imbalance and aggressive planner
        # gates make it act within the short run, so the SIGKILL lands
        # before, during, or after the epoch depending on the seed.
        settings.policy = "rebalance"
        settings.balance_threshold = 0.05
        settings.balance_cooldown = 0.5
        settings.balance_min_gain = 0.0
        settings.step_delays = [0.03, 0.005]
    run = DistributedRun(
        spec,
        initial_fields(spec, "rest"),
        Path(workdir),
        settings,
    )
    mon = run.start()
    t0 = time.monotonic()
    try:
        run.wait()
        fields = run.collect()
    except Exception as exc:  # noqa: BLE001 - classified, not swallowed
        out.outcome, out.detail = _classify_error(exc)
    else:
        mismatched = [
            name for name, ref in reference.items()
            if not np.array_equal(fields[name], ref)
        ]
        if mismatched:
            out.outcome = "divergence"
            out.detail = (
                f"fields {mismatched} differ from the fault-free "
                f"serial reference"
            )
        else:
            out.outcome = "match"
    out.elapsed = time.monotonic() - t0
    out.steps_per_second = steps / out.elapsed if out.elapsed > 0 else 0.0
    out.restarts = mon.restarts
    out.migrations = mon.migrations
    out.rebalances = mon.rebalances
    if out.outcome == "match" and plan is not None:
        # bit-stable output is necessary but not sufficient: the
        # journal's ledger must also show every process fault was
        # answered by a recovery action (a clean abort *is* the
        # recovery, so only matches are audited).
        gaps = check_recovery_ledger(workdir, restarts=out.restarts)
        if gaps:
            out.outcome = "ledger_gap"
            out.detail = "; ".join(gaps)
    return out
