"""One-call driver for a distributed run (init -> decompose -> submit ->
monitor -> collect).

The paper performs initialization, decomposition, job submission and
monitoring on one designated workstation; :class:`DistributedRun` plays
that workstation.  The result of a completed run is the set of final
dump files, reassembled into global arrays for comparison against the
serial program — the integration tests assert bit-for-bit equality.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .decompose import assemble_dumps, decompose_problem
from .hostdb import HostDB, HostInfo, paper_cluster
from .settings import WorkerKnobs, check_supported, worker_knob_names
from .spec import ProblemSpec

if TYPE_CHECKING:
    from ..balance.planner import BalancePolicy
    from .monitor import Monitor

__all__ = ["RunSettings", "DistributedRun"]


@dataclass
class RunSettings(WorkerKnobs):
    """Knobs of a distributed run (worker + monitor configuration).

    Every knob a worker sees is inherited from
    :class:`~repro.distrib.settings.WorkerKnobs` — the same base
    :class:`~repro.distrib.worker.WorkerConfig` extends — so a knob
    added there reaches the workers without any copying here.  The
    fields declared below are the monitor's own.
    """

    steps: int
    stall_timeout: float = 60.0
    run_timeout: float = 300.0
    hosts: list[HostInfo] = field(default_factory=paper_cluster)
    policy: str = "migrate"    # "migrate" (§5.1) or "rebalance"
    #  (adaptive load balancing: resize slabs instead of leaving hosts)
    balance_threshold: float = 0.05
    balance_cooldown: float = 5.0
    balance_min_gain: float = 1.0

    @classmethod
    def from_knobs(cls, knobs: Mapping) -> RunSettings:
        """The settings of a serve request's knob dict: ``steps`` is 0
        when absent, a name that is no field is dropped."""
        names = {f.name for f in fields(cls)}
        return cls(**{"steps": 0, **{k: v for k, v in knobs.items()
                                     if k in names}})

    def balance_policy(self) -> BalancePolicy:
        """The :class:`~repro.balance.BalancePolicy` these knobs select.

        The repartition cost charges 72 bytes of dumped state per node
        at 12.5 MB/s: local disks and loopback move dump state far
        faster than the paper's Ethernet model.
        """
        from ..balance.planner import BalancePolicy

        return BalancePolicy(
            threshold=self.balance_threshold,
            cooldown=self.balance_cooldown,
            min_gain=self.balance_min_gain,
            state_bytes_per_node=72.0,
            bandwidth=12.5e6,
        )

    def worker_base_cfg(self) -> dict:
        """The WorkerConfig fields shared by every rank.

        Derived from the :class:`WorkerKnobs` field list, so the set of
        forwarded knobs cannot drift from the worker's declaration.
        """
        base = {name: getattr(self, name) for name in worker_knob_names()}
        base["steps_total"] = self.steps
        return base


class DistributedRun:
    """A full distributed computation in a working directory."""

    def __init__(
        self,
        spec: ProblemSpec,
        global_fields: Mapping[str, np.ndarray],
        workdir: str | Path,
        settings: RunSettings,
    ) -> None:
        self.spec = spec
        self.settings = settings
        # Workers run with cwd=workdir, so a relative workdir would
        # make every path in their config resolve against itself.
        self.workdir = Path(workdir).resolve()
        if self.workdir.exists() and any(self.workdir.iterdir()):
            raise ValueError(f"workdir {self.workdir} is not empty")
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.decomp = spec.build_decomposition()
        decompose_problem(spec, global_fields, self.workdir)
        self.hostdb = HostDB(settings.hosts)
        self.monitor: Monitor | None = None

    def start(self) -> Monitor:
        """Submit the workers and return the live monitor.

        Settings the run cannot honour raise here, before anything is
        spawned (:func:`~repro.distrib.settings.check_supported`).
        """
        from .monitor import Monitor
        from .submit import submit_all

        check_supported(self.spec, "distributed", self.settings)
        procs = submit_all(
            self.workdir,
            self.hostdb,
            self.decomp.n_active,
            self.settings.worker_base_cfg(),
        )
        self.monitor = Monitor(
            self.workdir,
            self.hostdb,
            procs,
            self.settings.worker_base_cfg(),
            stall_timeout=self.settings.stall_timeout,
            policy=self.settings.policy,
            balance=self.settings.balance_policy(),
        )
        return self.monitor

    def wait(self) -> None:
        """Block until the monitor drives every worker to completion."""
        assert self.monitor is not None, "call start() first"
        self.monitor.run(timeout=self.settings.run_timeout)

    def collect(self, fill: float = 0.0) -> dict[str, np.ndarray]:
        """Reassemble the final dumps into global field arrays."""
        return assemble_dumps(self.workdir, "final", fill)[1]

    def cleanup(self) -> None:
        """Delete the working directory."""
        shutil.rmtree(self.workdir, ignore_errors=True)

