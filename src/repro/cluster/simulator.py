"""Discrete-event simulation of a distributed run on the 1994 cluster.

Replays the compute/communicate timeline of a decomposed computation
against the paper's hardware constants: per-model node speeds (§7
table), the shared-bus Ethernet (§7-§9), per-message overhead, external
user load, and the migration machinery of §5.  This is the substitution
for the 25 non-dedicated HP workstations (see DESIGN.md): it produces
the parallel efficiency and speedup measurements of figs. 5-11, with the
measurement protocol of §7 (average the time per integration step over
the last 20 steps).

Each simulated process cycles through the method's phases: compute a
fraction of its per-step work, transmit one message per neighbour on the
bus (blocking — communication does not overlap computation, the §8
assumption that held on the paper's CPU-driven TCP stacks), and proceed
once the matching strips of its own step/phase have arrived.  In the
default ``"bsp"`` sync mode processes begin each computational cycle
together, so every step opens with a synchronized burst on the bus and
contention grows with the number of processors — eq. 19's ``(P-1)`` law
emerges from message serialization rather than being assumed.  The
``"loose"`` mode lets neighbours drift apart up to the App. A bound
instead, an ablation quantifying what communication/computation overlap
or a switched network would buy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.decomposition import Decomposition
from ..distrib.hostdb import MIGRATE_LOAD_LIMIT, SUBMIT_LOAD_LIMIT
from ..distrib.settings import POLICIES, check_known
from ..core.stencil import star_stencil
from ..trace import NULL_TRACER, Tracer
from .calibration import (
    bytes_per_boundary_node,
    MESSAGES_PER_STEP,
    node_speed,
)
from .ethernet import BusStats, SharedBus
from .events import EventQueue
from .machines import SimHost, paper_sim_cluster

__all__ = [
    "NetworkParams",
    "SimResult",
    "MigrationEvent",
    "ClusterSimulation",
    "MEASURE_LAST",
    "MIGRATION_COST",
]

#: §7: the reported time per step averages the last 20 integration
#: steps (the earlier steps serve as warm-up).
MEASURE_LAST = 20
#: §5.1: one migration pauses the synchronized group for about 30 s.
MIGRATION_COST = 30.0

#: Fractions of the per-step compute done before each exchange (the rest
#: after the last exchange: filtering etc.).  FD: velocity update,
#: density update, then filter; LB: relax, then shift+macro+filter.
_PHASE_FRACTIONS = {
    "fd": (0.55, 0.25),
    "lb": (0.45,),
}


@dataclass(frozen=True)
class NetworkParams:
    """Network parameters (defaults = the calibrated 1994 Ethernet).

    ``preset`` selects one of §9's technologies from
    :data:`repro.cluster.networks.NETWORK_PRESETS` (``"ethernet10"``,
    ``"switched10"``, ``"fddi100"``, ``"atm155"``), overriding the
    explicit fields; ``topology`` chooses ``"bus"`` (one shared medium)
    or ``"switch"`` (full-duplex per-host links) directly.
    """

    bandwidth: float = 1.25e6
    overhead: float = 1.0e-3
    collision_factor: float = 0.02
    error_wait_threshold: float = 2.0
    topology: str = "bus"
    preset: str | None = None


@dataclass
class MigrationEvent:
    """Record of one §5.1 migration in a simulated run."""

    time: float
    rank: int
    from_host: str
    to_host: str
    sync_step: int
    pause_duration: float


@dataclass
class SimResult:
    """Outcome of one simulated distributed run."""

    processors: int
    nodes_per_proc: int
    steps: int
    elapsed: float
    time_per_step: float          # §7 window average
    serial_time_per_step: float   # T_1 on a dedicated 715/50
    bus: BusStats
    compute_time_total: float
    migrations: list[MigrationEvent] = field(default_factory=list)
    rebalances: list[tuple[float, list[int]]] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        """Eq. 5: ``S = T_1 / T_p``."""
        return self.serial_time_per_step / self.time_per_step

    @property
    def efficiency(self) -> float:
        """Eq. 5: ``f = S / P``."""
        return self.speedup / self.processors

    @property
    def utilization(self) -> float:
        """Fraction of processor-time spent computing (eq. 8)."""
        return self.compute_time_total / (self.processors * self.elapsed)


class _SimProc:
    """State machine of one simulated parallel subprocess."""

    __slots__ = (
        "rank", "host", "method", "fractions", "n_nodes", "neighbors",
        "msg_bytes", "sends", "expect",
        "step", "phase", "arrived", "waiting", "compute_time",
        "step_done_times", "paused_at", "wait_since",
    )

    def __init__(self, rank: int, host: SimHost, method: str,
                 n_nodes: int, neighbors: list[int],
                 msg_bytes: dict[int, int]):
        self.rank = rank
        self.host = host
        self.method = method
        self.fractions = _PHASE_FRACTIONS[method]
        self.n_nodes = n_nodes
        self.neighbors = neighbors
        self.msg_bytes = msg_bytes          # per-neighbour payload bytes
        self.sends: list[list[int]] = []    # per phase: ranks messaged
        self.expect: list[int] = []         # per phase: frames awaited
        self.step = 0
        self.phase = -1                     # -1 = between steps
        self.arrived: dict[tuple[int, int], int] = {}
        self.waiting: tuple[int, int] | None = None
        self.compute_time = 0.0
        self.step_done_times: list[float] = []
        self.paused_at: float | None = None
        self.wait_since = 0.0


class ClusterSimulation:
    """One simulated distributed computation.

    Parameters
    ----------
    method, ndim:
        ``"fd"`` or ``"lb"``, in 2 or 3 dimensions — selects node speed,
        payload size and message count from the §6/§7 calibration.  A
        *sequence* of names (one per dense active rank, e.g. from
        :meth:`repro.distrib.ProblemSpec.methods_by_rank`) models a
        hybrid run: each process computes at its own method's speed
        with its own phase count, mixed-method edges carry one seam
        message per direction per step at the opening exchange (the
        live runtime's pre-phase seam translation), and later phases
        message same-method neighbours only — exactly the wire pattern
        of the hybrid workers.
    blocks:
        Decomposition block counts, e.g. ``(5, 4)``.
    side:
        Subregion side length in nodes (the grain; ``N = side**ndim``).
    hosts:
        Workstations to draw from, ordered by assignment preference;
        defaults to the paper's 25-host cluster.  Ranks are placed on
        the first ``P`` hosts.
    network:
        Shared-bus parameters.
    sync_mode:
        ``"bsp"`` (default): processes begin each computational cycle
        together — §4.2 observes that the communication "encourages the
        processes to begin each computational cycle together with their
        neighbors", and with homogeneous per-step compute times the
        local near-synchronization becomes global, so every step opens
        with a synchronized burst of messages on the shared bus.  This
        is the regime the paper measured and modelled (``T_com``
        growing with the number of processors, eq. 19).
        ``"loose"``: processes run as far ahead as their neighbour
        dependencies allow (the App. A bound); bursts pipeline apart
        and bus contention largely disappears below saturation — an
        ablation showing what a switched network (or communication/
        computation overlap) would buy, cf. the paper's conclusion
        about Ethernet switches.
    trace_dir:
        When set, every simulated rank streams its spans (on the
        *simulated* clock) to ``trace-<rank>.jsonl`` under this
        directory — the same stream format the live runtimes produce,
        so :func:`repro.trace.write_chrome_trace` merges a simulated
        and a measured timeline into the same viewer.
    """

    def __init__(
        self,
        method: str | Sequence[str],
        ndim: int,
        blocks: Sequence[int],
        side: int,
        hosts: list[SimHost] | None = None,
        network: NetworkParams = NetworkParams(),
        sync_mode: str = "bsp",
        trace_dir=None,
    ) -> None:
        if isinstance(method, str):
            per_rank = None
        else:
            per_rank = tuple(method)
            if len(set(per_rank)) == 1 and per_rank:
                method, per_rank = per_rank[0], None
            else:
                method = None
        for m in per_rank if per_rank is not None else (method,):
            if m not in _PHASE_FRACTIONS:
                raise ValueError(f"unknown method {m!r}")
        if sync_mode not in ("bsp", "loose"):
            raise ValueError(f"unknown sync_mode {sync_mode!r}")
        self.sync_mode = sync_mode
        self.method = method
        self.ndim = ndim
        self.blocks = tuple(blocks)
        if len(self.blocks) != ndim:
            raise ValueError(
                f"blocks {blocks} do not match ndim {ndim}"
            )
        self.side = int(side)
        self.network = network
        grid = tuple(b * self.side for b in self.blocks)
        self.decomp = Decomposition(grid, self.blocks)
        self.n_procs = self.decomp.n_active
        hosts = hosts if hosts is not None else paper_sim_cluster()
        if len(hosts) < self.n_procs:
            raise ValueError(
                f"{self.n_procs} processes need at least that many hosts, "
                f"got {len(hosts)}"
            )
        self.hosts = hosts
        if per_rank is None:
            self.methods: tuple[str, ...] = (method,) * self.n_procs
        else:
            if len(per_rank) != self.n_procs:
                raise ValueError(
                    f"{len(per_rank)} per-rank methods for "
                    f"{self.n_procs} simulated processes"
                )
            self.methods = per_rank
        self.msgs_per_step = max(
            MESSAGES_PER_STEP[m] for m in self.methods
        )

        self.queue = EventQueue()
        from .networks import make_network

        self.bus = make_network(
            self.queue,
            preset=network.preset,
            topology=network.topology,
            bandwidth=network.bandwidth,
            overhead=network.overhead,
            collision_factor=network.collision_factor,
            error_wait_threshold=network.error_wait_threshold,
        )
        self.procs: list[_SimProc] = []
        stencil = star_stencil(ndim)
        for rank in range(self.n_procs):
            blk = self.decomp.by_rank(rank)
            nbrs = self.decomp.neighbors(blk.index, stencil)
            # A strip's byte count follows the *sender's* representation
            # (an LB rank ships populations across a seam too).
            per_node = bytes_per_boundary_node(self.methods[rank], ndim)
            neighbor_ranks = []
            msg_bytes = {}
            for off, nb in nbrs.items():
                axis = next(d for d, o in enumerate(off) if o != 0)
                face = 1
                for d in range(ndim):
                    if d != axis:
                        face *= blk.shape[d]
                neighbor_ranks.append(nb.rank)
                msg_bytes[nb.rank] = face * per_node
            host = self.hosts[rank]
            host.rank = rank
            self.procs.append(
                _SimProc(rank, host, self.methods[rank], blk.n_nodes,
                         neighbor_ranks, msg_bytes)
            )
        # Per-phase exchange pattern.  Phase 0 messages every neighbour
        # (on a mixed-method edge that is the once-per-step seam
        # translation); later phases message same-method neighbours
        # only — the live phase exchanges skip seam edges, and the
        # mixed neighbour has no matching phase.  The pattern is
        # symmetric, so each phase expects exactly as many frames as it
        # sends.
        for proc in self.procs:
            for phase in range(len(proc.fractions)):
                targets = [
                    nb for nb in proc.neighbors
                    if phase == 0 or self.methods[nb] == proc.method
                ]
                proc.sends.append(targets)
                proc.expect.append(len(targets))

        # span tracing on the *simulated* clock: the same stream format
        # the live runtimes emit, with ``sim=True`` zero origins, so a
        # simulated and a measured run of one problem merge and compare
        # in the same viewer and the same report.
        self.trace_dir = None
        nphases = max(len(p.fractions) for p in self.procs)
        self._compute_names = tuple(f"compute:{i}" for i in range(nphases))
        self._exchange_names = tuple(
            f"exchange:{i}" for i in range(nphases)
        )
        self._wait_names = tuple(f"wait:{i}" for i in range(nphases))
        if trace_dir is not None:
            from pathlib import Path

            self.trace_dir = Path(trace_dir)
            self.tracers: list = [
                Tracer(
                    self.trace_dir / f"trace-{r:04d}.jsonl",
                    rank=r, sim=True,
                )
                for r in range(self.n_procs)
            ]
        else:
            self.tracers = [NULL_TRACER] * self.n_procs

        # migration machinery
        self.migrations: list[MigrationEvent] = []
        self._steps_target = 0
        self._sync: dict | None = None
        self._monitor_poll = 0.0
        self._policy = "migrate"
        self.planner = None   # RebalancePlanner under policy="rebalance"
        self.rebalances: list[tuple[float, list[int]]] = []
        # BSP barrier bookkeeping
        self._barrier_step = 0
        self._barrier_count = 0

    # ------------------------------------------------------------------
    # timing helpers
    # ------------------------------------------------------------------
    def _t_calc(self, proc: _SimProc, t: float) -> float:
        """Full per-step compute time of a process at time ``t``."""
        return proc.n_nodes / proc.host.speed(proc.method, self.ndim, t)

    def serial_time_per_step(self) -> float:
        """T_1: the whole problem on one dedicated 715/50 (§7's
        normalization; no communication, no external load)."""
        if self.method is not None:
            total = self.decomp.n_active_nodes
            return total / node_speed(self.method, self.ndim, "715/50")
        # hybrid: each subregion costs its own method's serial rate
        return sum(
            p.n_nodes / node_speed(p.method, self.ndim, "715/50")
            for p in self.procs
        )

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------
    def run(
        self,
        steps: int,
        monitor_poll: float = 0.0,
        policy: str = "migrate",
        planner=None,
    ) -> SimResult:
        """Simulate ``steps`` integration steps and measure performance.

        The reported time per step is the §7 protocol: the average over
        the last :data:`MEASURE_LAST` steps.  ``monitor_poll > 0``
        activates the monitoring program: every ``monitor_poll``
        simulated seconds it inspects host loads and applies the chosen
        ``policy``:

        * ``"migrate"`` (the paper's §5.1): move ranks off hosts whose
          load exceeds :data:`~repro.distrib.hostdb.MIGRATE_LOAD_LIMIT`
          to free hosts, each migration pausing the synchronized
          computation for :data:`MIGRATION_COST` seconds;
        * ``"rebalance"`` (the §1.1 dynamic-allocation baseline):
          re-divide the nodes of the chain decomposition in proportion
          to current host speeds, charging the network for the moved
          node state.

        The rebalance decision is delegated to a
        :class:`~repro.balance.RebalancePlanner` — the exact class the
        live :class:`~repro.distrib.Monitor` runs, so a policy tuned in
        simulation is the policy the runtime executes.  Pass
        ``planner`` to supply a configured one (cooldown, amortization
        gate, ...); by default one is built from the
        :class:`~repro.balance.BalancePolicy` defaults with no cooldown
        and a saving-must-be-nonnegative gate.  The planner used is
        exposed as ``self.planner``.
        """
        if steps <= 0:
            raise ValueError("steps must be positive")
        check_known("policy", policy, POLICIES)
        window = min(MEASURE_LAST, steps)
        self._steps_target = steps
        self._monitor_poll = monitor_poll
        self._policy = policy
        self.planner = None
        if policy == "rebalance":
            # Imported lazily: repro.balance imports this package at
            # module load, so a top-level import here would be circular.
            from ..balance.planner import BalancePolicy, RebalancePlanner
            from ..balance.recut import RecutError, check_chain

            try:
                check_chain(self.blocks)
            except RecutError as exc:
                raise ValueError(str(exc)) from None
            self.planner = planner or RebalancePlanner(BalancePolicy(
                cooldown=0.0, min_gain=0.0, bandwidth=self.bus.bandwidth,
            ))
        self.rebalances: list[tuple[float, list[int]]] = []

        for proc in self.procs:
            self._start_step(proc, 0.0)
        if monitor_poll > 0:
            self.queue.schedule(monitor_poll, self._monitor_tick)
        self.queue.run()
        for tr in self.tracers:
            tr.close()

        done = [p.step_done_times[-1] for p in self.procs]
        elapsed = max(done)
        start_idx = steps - window
        window_start = max(
            p.step_done_times[start_idx - 1] if start_idx > 0 else 0.0
            for p in self.procs
        )
        time_per_step = (elapsed - window_start) / window
        return SimResult(
            processors=self.n_procs,
            nodes_per_proc=self.side**self.ndim,
            steps=steps,
            elapsed=elapsed,
            time_per_step=time_per_step,
            serial_time_per_step=self.serial_time_per_step(),
            bus=self.bus.stats,
            compute_time_total=sum(p.compute_time for p in self.procs),
            migrations=list(self.migrations),
            rebalances=list(self.rebalances),
        )

    # ------------------------------------------------------------------
    # process state machine
    # ------------------------------------------------------------------
    def _start_step(self, proc: _SimProc, t: float) -> None:
        proc.phase = 0
        self._schedule_compute(proc, t, proc.fractions[0])

    def _schedule_compute(
        self, proc: _SimProc, t: float, fraction: float
    ) -> None:
        duration = fraction * self._t_calc(proc, t)
        proc.compute_time += duration
        self.tracers[proc.rank].add_span(
            self._compute_names[proc.phase], t, duration, step=proc.step
        )
        self.queue.schedule(
            t + duration, lambda now, p=proc: self._compute_done(p, now)
        )

    def _compute_done(self, proc: _SimProc, t: float) -> None:
        self._send_next(proc, 0, t)

    def _send_next(self, proc: _SimProc, idx: int, t: float) -> None:
        """Issue the phase's sends one at a time, *blocking* on each.

        The efficiency model's second assumption (§8) is that
        communication does not overlap computation, and on the paper's
        workstations it genuinely did not: the TCP/IP stack ran on the
        same CPU as the solver, so a send occupied the processor until
        the frame cleared the shared medium.  The sender therefore
        resumes only when its message has left the bus, which is also
        what couples every processor to the *total* bus traffic and
        yields the ``T_com ∝ (P-1)`` law of eq. 19.
        """
        targets = proc.sends[proc.phase]
        if idx >= len(targets):
            self._wait_or_advance(proc, t)
            return
        nb = targets[idx]
        step, phase = proc.step, proc.phase
        finish = self.bus.send(
            proc.msg_bytes[nb],
            lambda now, dst=nb, s=step, ph=phase: self._msg_arrive(
                dst, s, ph, now
            ),
            src=proc.host.name,
            dst=self.procs[nb].host.name,
        )
        # blocking send: the sender is occupied until the bus clears
        tracer = self.tracers[proc.rank]
        tracer.add_span(self._exchange_names[phase], t, finish - t,
                        step=step)
        tracer.count(nb, proc.msg_bytes[nb])
        self.queue.schedule(
            finish,
            lambda now, p=proc, i=idx + 1: self._send_next(p, i, now),
        )

    def _msg_arrive(self, dst: int, step: int, phase: int, t: float) -> None:
        proc = self.procs[dst]
        key = (step, phase)
        proc.arrived[key] = proc.arrived.get(key, 0) + 1
        if proc.waiting == key and proc.arrived[key] >= proc.expect[phase]:
            proc.waiting = None
            self.tracers[dst].add_span(
                self._wait_names[phase], proc.wait_since,
                t - proc.wait_since, step=step,
            )
            self._advance_phase(proc, t)

    def _wait_or_advance(self, proc: _SimProc, t: float) -> None:
        key = (proc.step, proc.phase)
        if proc.arrived.get(key, 0) >= proc.expect[proc.phase]:
            self._advance_phase(proc, t)
        else:
            proc.waiting = key
            proc.wait_since = t

    def _advance_phase(self, proc: _SimProc, t: float) -> None:
        proc.arrived.pop((proc.step, proc.phase), None)
        if proc.phase + 1 < len(proc.fractions):
            proc.phase += 1
            self._schedule_compute(proc, t, proc.fractions[proc.phase])
        else:
            # final compute chunk (post-exchange filter etc.)
            final = 1.0 - sum(proc.fractions)
            duration = final * self._t_calc(proc, t)
            proc.compute_time += duration
            self.tracers[proc.rank].add_span(
                "finalize:0", t, duration, step=proc.step
            )
            self.queue.schedule(
                t + duration, lambda now, p=proc: self._step_done(p, now)
            )

    def _step_done(self, proc: _SimProc, t: float) -> None:
        proc.step += 1
        proc.phase = -1
        proc.step_done_times.append(t)
        if self.sync_mode == "bsp":
            self._barrier_count += 1
            if self._barrier_count < self.n_procs:
                return
            # Everyone finished step `_barrier_step + 1`; open the next
            # cycle together (or close a pending epoch).
            self._barrier_count = 0
            self._barrier_step += 1
            if self.trace_dir is not None:
                # processes that finished early idle at the BSP barrier
                for p in self.procs:
                    t0 = p.step_done_times[-1]
                    if t > t0:
                        self.tracers[p.rank].add_span(
                            "barrier:step", t0, t - t0, step=p.step - 1
                        )
            sync = self._sync
            if sync is not None and self._barrier_step >= sync["step"]:
                for p in self.procs:
                    p.paused_at = t
                sync["paused"] = self.n_procs
                self._close_epoch(t)
                return
            if self._barrier_step < self._steps_target:
                for p in self.procs:
                    self._start_step(p, t)
            return
        sync = self._sync
        if sync is not None and proc.step >= sync["step"]:
            proc.paused_at = t
            sync["paused"] += 1
            if sync["paused"] == self.n_procs:
                self._close_epoch(t)
            return
        if proc.step < self._steps_target:
            self._start_step(proc, t)

    # ------------------------------------------------------------------
    # monitoring program (§5.1)
    # ------------------------------------------------------------------
    def _monitor_tick(self, t: float) -> None:
        if self._sync is None and self._policy == "rebalance":
            self._consider_rebalance(t)
        elif self._sync is None:
            overloaded = [
                p.rank for p in self.procs
                if p.step < self._steps_target
                and p.host.load_at(t) > MIGRATE_LOAD_LIMIT
            ]
            if overloaded:
                self._open_epoch(t, action="migrate", ranks=overloaded)
        if not self.queue.empty or self._sync is not None:
            self.queue.schedule(t + self._monitor_poll, self._monitor_tick)

    def _consider_rebalance(self, t: float) -> None:
        """§1.1 baseline: resize slabs in proportion to host speeds.

        The go/no-go question is put to the shared
        :class:`~repro.balance.RebalancePlanner` — the same object the
        live monitoring program consults.
        """
        if all(p.step >= self._steps_target for p in self.procs):
            return
        speeds = [
            p.host.speed(p.method, self.ndim, t) for p in self.procs
        ]
        steps_remaining = self._steps_target - max(
            p.step for p in self.procs
        )
        plan = self.planner.propose(
            speeds,
            [p.n_nodes for p in self.procs],
            steps_remaining=steps_remaining,
            now=t,
        )
        if plan is not None:
            self._open_epoch(t, action="rebalance", plan=plan)

    def _open_epoch(self, t: float, **epoch) -> None:
        """App. B: synchronize the group at (max current step) + 1."""
        sync_step = min(
            max(p.step for p in self.procs) + 1, self._steps_target
        )
        self._sync = {"step": sync_step, "paused": 0, **epoch}
        if self.sync_mode == "loose":
            # Processes already at/past the sync step pause now; under
            # BSP the barrier path handles this.
            for proc in self.procs:
                if proc.phase == -1 and proc.step >= sync_step:
                    proc.paused_at = t
                    self._sync["paused"] += 1
            if self._sync["paused"] == self.n_procs:
                self._close_epoch(t)

    def _free_hosts(self, t: float) -> list[SimHost]:
        return [
            h
            for h in self.hosts
            if h.rank is None and h.load_at(t) < SUBMIT_LOAD_LIMIT
        ]

    def _close_epoch(self, t: float) -> None:
        """Every process is paused at the sync step: act, then resume."""
        sync, self._sync = self._sync, None
        if sync["action"] == "rebalance":
            plan = sync["plan"]
            for proc, n in zip(self.procs, plan.shares):
                proc.n_nodes = n
            self.rebalances.append((t, list(plan.shares)))
            self.planner.commit(t, plan)
            self._resume_all(t + plan.cost, "balance:pause")
            return
        free = self._free_hosts(t)
        for rank in sync["ranks"]:
            proc = self.procs[rank]
            if not free:
                break  # no free host: stay put (degraded, but running)
            new_host = free.pop(0)
            old = proc.host
            old.rank = None
            new_host.rank = rank
            proc.host = new_host
            self.migrations.append(
                MigrationEvent(
                    time=t,
                    rank=rank,
                    from_host=old.name,
                    to_host=new_host.name,
                    sync_step=sync["step"],
                    pause_duration=MIGRATION_COST,
                )
            )
        self._resume_all(t + MIGRATION_COST, "migration:pause")

    def _resume_all(self, resume: float, span: str) -> None:
        for proc in self.procs:
            if proc.paused_at is not None:
                self.tracers[proc.rank].add_span(
                    span, proc.paused_at,
                    resume - proc.paused_at, step=proc.step,
                )
            proc.paused_at = None
            if proc.step < self._steps_target:
                self.queue.schedule(
                    resume, lambda now, p=proc: self._start_step(p, now)
                )
