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
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

import numpy as np

from ..core.subregion import assemble_global
from .decompose import decompose_problem
from .dumpfile import dump_path, load_dump
from .hostdb import HostDB, HostInfo, paper_cluster
from .settings import WorkerKnobs, worker_knob_names
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
    monitor_poll: float = 0.02
    stall_timeout: float = 60.0
    run_timeout: float = 300.0
    hosts: list[HostInfo] = field(default_factory=paper_cluster)
    policy: str = "migrate"    # "migrate" (§5.1) or "rebalance"
    #  (adaptive load balancing: resize slabs instead of leaving hosts)
    balance_threshold: float = 0.05
    balance_cooldown: float = 5.0
    balance_min_gain: float = 1.0
    balance_state_bytes: float = 72.0
    balance_bandwidth: float = 12.5e6   # local disks + loopback move
    #  dump state far faster than the paper's Ethernet model

    def balance_policy(self) -> BalancePolicy:
        """The :class:`~repro.balance.BalancePolicy` these knobs select."""
        from ..balance.planner import BalancePolicy

        return BalancePolicy(
            threshold=self.balance_threshold,
            cooldown=self.balance_cooldown,
            min_gain=self.balance_min_gain,
            state_bytes_per_node=self.balance_state_bytes,
            bandwidth=self.balance_bandwidth,
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
        self.hostdb = HostDB(self.workdir / "hosts.json")
        self.hostdb.initialize(settings.hosts)
        self.monitor: Monitor | None = None

    def start(self) -> Monitor:
        """Submit the workers and return the live monitor."""
        from .monitor import Monitor
        from .submit import submit_all

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
            poll=self.settings.monitor_poll,
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
        """Reassemble the final dumps into global field arrays.

        The decomposition is reloaded from the workdir's ``spec.json``
        rather than taken from construction time: a rebalance epoch
        rewrites the spec with the adopted slab weights, and assembling
        the re-cut dumps against the stale uniform blocks would
        misplace every interior.
        """
        decomp = ProblemSpec.load(
            self.workdir / "spec.json"
        ).build_decomposition()
        subs = [
            load_dump(dump_path(self.workdir / "dumps", rank, tag="final"))
            for rank in range(decomp.n_active)
        ]
        steps = {s.step for s in subs}
        if len(steps) != 1:
            raise RuntimeError(f"final dumps at different steps: {steps}")
        # On a hybrid run only the fields every rank holds reassemble
        # globally (method-private fields like the LB populations live
        # on their own subregions only).
        names = [
            name
            for name in subs[0].field_names()
            if all(name in s.fields for s in subs)
        ]
        return {
            name: assemble_global(decomp, subs, name, fill)
            for name in names
        }

    def cleanup(self) -> None:
        """Delete the working directory."""
        shutil.rmtree(self.workdir, ignore_errors=True)

