"""The monitoring program (paper §4.1, §5.1).

"The monitoring program checks every few minutes whether the parallel
processes are progressing correctly.  If an unrecoverable error occurs,
the distributed simulation is stopped, and a new simulation is started
from the last state which is saved automatically every 10-20 minutes.
If a workstation becomes too busy, automatic migration of the affected
process takes place."

The monitor owns the control plane of a distributed run:

* watches worker exit codes, heartbeats and the virtual host table;
* folds the ranks' diagnostics samples into ``diagnostics.jsonl`` and
  stops the run, diagnosed, on a global NaN or CFL violation;
* triggers migrations when a host's five-minute load exceeds 1.5
  (§5.1), when a worker asks to leave (a user's direct ``kill -USR2``
  leaves a wish file), or when a test calls :meth:`request_migration`;
* drives the migration sequence — publish the request, interrupt every
  process with SIGUSR2, wait for the migrator's dump-and-exit and for
  the others to stop themselves, restart the migrator from its dump on
  a freshly selected host, then SIGCONT the waiting processes;
* on a worker crash or stall, kills the run and restarts everything
  from the last *complete* staggered checkpoint;
* with ``policy="rebalance"``, feeds heartbeat compute times and host
  load averages into a :class:`~repro.balance.LoadEstimator` and asks
  the shared :class:`~repro.balance.RebalancePlanner` whether resizing
  the slabs pays for itself; an approved plan runs a *rebalance epoch*
  — every worker dumps at a sync step and exits, the global state is
  re-cut into weighted blocks, and the group restarts under the next
  generation.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import time
from dataclasses import asdict, replace
from pathlib import Path

from ..balance.estimator import LoadEstimator
from ..balance.planner import BalancePolicy, RebalancePlanner
from ..chaos.plan import FaultPlan
from ..net.portfile import PortRegistry
from ..trace import NULL_TRACER, Tracer
from .diagnostics import (
    DiagnosticsFailure,
    DiagnosticsLog,
    check_record,
    fold_sample,
)
from .dumpfile import DumpCorruption, dump_path, load_dump
from .heartbeat import read_heartbeats
from .hostdb import MIGRATE_LOAD_LIMIT, HostDB
from .spec import ProblemSpec
from .submit import spawn_worker
from .sync import SaveTurns
from .worker import (
    EXIT_DONE,
    EXIT_MIGRATED,
    EXIT_REBALANCED,
    WorkerConfig,
)

__all__ = ["Monitor", "MonitorError"]

#: Seconds between two passes of the monitor loop (a worker's exit
#: wakes it sooner, see ``Monitor._wait_for_exit``).
MONITOR_POLL = 0.02


class MonitorError(RuntimeError):
    """The distributed computation could not be driven to completion."""


class _EpochBroken(RuntimeError):
    """A migration or rebalance epoch failed mid-sequence
    (recoverable by a checkpoint restart)."""


def _proc_state(pid: int) -> str:
    """Linux process state letter ('R', 'S', 'T', 'Z', ...)."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return "X"
    # state is the field after the parenthesized comm, which may itself
    # contain spaces — split after the last ')'.
    return text.rsplit(")", 1)[1].split()[0]


class Monitor:
    """Control plane of one distributed run."""

    def __init__(
        self,
        workdir: str | Path,
        hostdb: HostDB,
        procs: dict[int, subprocess.Popen],
        base_cfg: dict,
        stall_timeout: float = 60.0,
        max_restarts: int = 2,
        policy: str = "migrate",
        balance: BalancePolicy | None = None,
    ) -> None:
        self.workdir = Path(workdir)
        self.hostdb = hostdb
        self.procs = dict(procs)
        self.base_cfg = dict(base_cfg)
        self.stall_timeout = stall_timeout
        self.max_restarts = max_restarts
        self.policy = policy
        self.generation = 0
        self.migrations = 0
        self.rebalances = 0
        self.restarts = 0
        self._done: set[int] = set()
        self._forced: list[int] = []
        self._forced_rebalance = False
        # Restart floor after a successful rebalance: the re-cut dumps.
        # Anything older (earlier checkpoints, the initial "state"
        # dumps) carries the pre-recut block geometry and must never be
        # restarted into the rewritten spec.
        self._recut_tag: str | None = None
        self.planner: RebalancePlanner | None = None
        self.estimator: LoadEstimator | None = None
        if policy == "rebalance":
            # DistributedRun.start refused a spec it cannot re-cut
            spec = ProblemSpec.load(self.workdir / "spec.json")
            decomp = spec.build_decomposition()
            pol = balance or BalancePolicy()
            pad = spec.pad
            # The live planner works in axis-0 *rows* (slab thickness):
            # that is the unit the weighted decomposition cuts, and —
            # the cross-section being constant along a chain — speeds
            # in rows/second keep every planner formula consistent.
            # Scale the per-node cost model to per-row accordingly, and
            # keep the thinnest slab at least one ghost halo thick so
            # the exchange plan of that rank still closes.
            per_row = decomp.n_active_nodes / decomp.grid_shape[0]
            pol = replace(
                pol,
                min_share=max(pol.min_share, pad),
                state_bytes_per_node=pol.state_bytes_per_node * per_row,
            )
            self.planner = RebalancePlanner(pol)
            self._rows = [
                b.hi[0] - b.lo[0]
                for b in sorted(
                    decomp.active_blocks(), key=lambda b: b.rank
                )
            ]
            self.estimator = LoadEstimator(self._rows)
        self._diag_log = DiagnosticsLog.for_workdir(self.workdir)
        self._diag_every = int(base_cfg.get("diag_every", 0))
        self._diag_slots = (
            int(base_cfg.get("steps_total", 0)) // self._diag_every
            if self._diag_every > 0 else 0
        )
        #: index of the next diagnostics sample to fold
        self._diag_next = 0
        self._log_path = self.workdir / "logs" / "monitor.log"
        self._log_path.parent.mkdir(parents=True, exist_ok=True)
        # Host-level faults of the run's chaos plan (load spikes) are
        # the monitor's to apply: host load is control-plane state the
        # workers never touch.  On a *traced chaos run* the monitor's
        # recovery ledger streams to its own trace lane (one past the
        # last rank); ordinary traced runs keep exactly one lane per
        # worker rank.
        self._host_faults = []
        self._applied_faults: set[str] = set()
        if base_cfg.get("fault_plan"):
            plan = FaultPlan.from_json(base_cfg["fault_plan"])
            self._host_faults = list(plan.host_faults())
        self.tracer = NULL_TRACER
        if base_cfg.get("trace") and base_cfg.get("fault_plan"):
            self.tracer = Tracer(
                self.workdir / "trace" / "trace-mon.jsonl",
                rank=len(self.procs),
            )

    def _ledger(self, name: str) -> None:
        """One recovery-ledger span (``chaos:``/``recover:`` prefix)."""
        if self.tracer.enabled:
            self.tracer.add_span(name, self.tracer.clock(), 0.0)
            self.tracer.flush()

    def log(self, msg: str) -> None:
        """Append a line to the monitor log."""
        with open(self._log_path, "a") as fh:
            fh.write(f"{time.time():.3f} {msg}\n")  # wall stamp

    # ------------------------------------------------------------------
    # public controls
    # ------------------------------------------------------------------
    def request_migration(self, rank: int) -> None:
        """Ask for a migration of ``rank`` at the next opportunity."""
        self._forced.append(rank)

    def request_rebalance(self) -> None:
        """Ask for a rebalance at the next opportunity (skips the
        planner's threshold/cooldown/amortization gates, not the
        shares-would-not-change check).  Requires ``policy="rebalance"``.
        """
        if self.planner is None:
            raise MonitorError('request_rebalance needs policy="rebalance"')
        self._forced_rebalance = True

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, timeout: float = 300.0) -> None:
        """Drive the computation until every worker finished."""
        start = time.monotonic()
        deadline = start + timeout
        last_progress = time.monotonic()
        last_steps: dict[int, int] = {}
        try:
            self._run_loop(start, deadline, last_progress, last_steps)
        finally:
            self.tracer.close()
        self.log("all workers done")
        self._merge_traces()

    def _run_loop(
        self,
        start: float,
        deadline: float,
        last_progress: float,
        last_steps: dict[int, int],
    ) -> None:
        while len(self._done) < len(self.procs):
            if time.monotonic() > deadline:
                self._kill_all()
                raise MonitorError("distributed run timed out")
            self._apply_host_faults(time.monotonic() - start)
            self._fold_diagnostics()

            # 1. exit-code bookkeeping
            crashed = []
            running = []
            for rank, proc in self.procs.items():
                if rank in self._done:
                    continue
                code = proc.poll()
                if code is None:
                    running.append(proc.pid)
                    continue
                if code == EXIT_DONE:
                    self._done.add(rank)
                elif code == EXIT_MIGRATED:
                    # handled inside _migrate(); seeing it here means the
                    # worker left without us asking — treat as a crash.
                    crashed.append(rank)
                else:
                    crashed.append(rank)
            if crashed:
                codes = {r: self.procs[r].returncode for r in crashed}
                self.log(f"workers crashed: {codes}")
                self._restart_from_checkpoint(crashed)
                last_progress = time.monotonic()
                continue
            if len(self._done) == len(self.procs):
                break

            # 2. migration triggers: forced requests, user wish files,
            #    overloaded hosts (five-minute load > 1.5, §5.1).  Under
            #    the "rebalance" policy an overloaded host is answered
            #    by resizing slabs (below), not by leaving it.
            want = set(self._forced)
            self._forced.clear()
            for wish in (self.workdir / "sync").glob("wish_rank*"):
                want.add(int(wish.name[len("wish_rank"):]))
                wish.unlink()
            if self.policy == "migrate":
                for host in self.hostdb.overloaded(MIGRATE_LOAD_LIMIT):
                    if host.rank is not None:
                        want.add(host.rank)
            want -= self._done
            if want:
                self._migrate(sorted(want))
                last_progress = time.monotonic()
                continue

            # 2b. rebalance trigger: feed the load estimator and ask the
            #     shared planner whether a re-cut pays for itself.
            if self.planner is not None and self._maybe_rebalance():
                last_progress = time.monotonic()
                continue

            # 3. stall detection via heartbeats
            steps = self._read_heartbeats()
            if steps != last_steps:
                last_steps = steps
                last_progress = time.monotonic()
            elif time.monotonic() - last_progress > self.stall_timeout:
                self.log("stall detected")
                self._restart_from_checkpoint()
                last_progress = time.monotonic()
                continue

            self._wait_for_exit(running)
        # every sample is judged before the run counts as a success
        self._fold_diagnostics()

    def _wait_for_exit(self, pids: list[int]) -> None:
        """Sleep one poll period, or less: a worker's pidfd turns
        readable when it exits, which wakes the loop at once.  Where
        ``os.pidfd_open`` is missing (non-Linux hosts), just sleep."""
        fds: list[int] = []
        try:
            for pid in pids:
                fds.append(os.pidfd_open(pid))
            select.select(fds, [], [], MONITOR_POLL)
        except (AttributeError, OSError):
            time.sleep(MONITOR_POLL)
        finally:
            for fd in fds:
                os.close(fd)

    def _apply_host_faults(self, elapsed: float) -> None:
        """Fire any due load-spike faults from the run's chaos plan."""
        for fault in self._host_faults:
            if fault.fault_id in self._applied_faults:
                continue
            if elapsed < fault.at:
                continue
            self._applied_faults.add(fault.fault_id)
            host = self.hostdb.host_of_rank(fault.rank)
            if host is None:
                self.log(
                    f"chaos: {fault.fault_id} skipped (rank "
                    f"{fault.rank} not on any host)"
                )
                continue
            self.hostdb.set_load(host.name, load5=fault.load)
            self.log(
                f"chaos: load spike on {host.name} "
                f"(load5={fault.load:.2f}, rank {fault.rank})"
            )
            self._ledger("chaos:load_spike")

    def _merge_traces(self) -> None:
        """Merge the ranks' trace streams into one Chrome trace JSON.

        Runs after completion when the workers traced themselves
        (``trace/trace-*.jsonl`` exists); the merged ``trace/trace.json``
        loads directly in ``chrome://tracing`` / Perfetto.
        """
        trace_dir = self.workdir / "trace"
        if not any(trace_dir.glob("trace-*.jsonl")):
            return
        from ..trace import write_chrome_trace

        out = write_chrome_trace(trace_dir, trace_dir / "trace.json")
        self.log(f"merged trace written to {out}")

    # ------------------------------------------------------------------
    # epochs: migration (§5.1) and rebalance share the App. B sequence
    # ------------------------------------------------------------------
    def _running(self) -> dict[int, subprocess.Popen]:
        return {
            r: p for r, p in self.procs.items()
            if r not in self._done and p.poll() is None
        }

    def _run_epoch(self, kind: str, body, arg) -> None:
        """Run one epoch; a broken epoch degrades to a restart.

        When the epoch itself fails — a leaving rank dies instead of
        dumping, a waiter never pauses, the registry times out, the
        re-cut fails on a missing dump — the run is *not* lost: the
        epoch is abandoned and the whole group restarts from the last
        verified checkpoint (bounded by ``max_restarts``; the restart
        kills the group first), exactly as a crash would be handled.
        """
        epoch = self.generation
        try:
            body(epoch, arg)
        except _EpochBroken as exc:
            self.log(f"{kind} epoch {epoch} broken: {exc}")
            self._ledger(f"recover:{kind}_failed")
            self._restart_from_checkpoint()

    def _signal_epoch(
        self, epoch: int, request: dict, exit_code: int
    ) -> dict[int, subprocess.Popen]:
        """Publish ``request`` and run the App. B sync to its end.

        SIGUSR2 every running worker; they synchronize to a common
        step, the ranks the request names dump and exit ``exit_code``,
        and everyone else pauses itself.  Returns the workers that were
        signalled; raises :class:`_EpochBroken` when a named rank is not
        running or any worker does not play its part in time.
        """
        running = self._running()
        leaving = request["ranks"]
        missing = [rank for rank in leaving if rank not in running]
        if missing:
            raise _EpochBroken(f"ranks {missing} are not running")
        # A SIGUSR2 that lands while a worker is still importing Python
        # modules would kill it (no handler yet).  Port registration
        # happens strictly after the handler is installed, so wait until
        # every running worker is registered for the current generation.
        transport = self.base_cfg.get("transport", "tcp")
        registry = PortRegistry(self.workdir / f"ports_{transport}.txt")
        try:
            registry.wait_for(
                epoch, set(running), timeout=self.stall_timeout
            )
        except TimeoutError as exc:
            raise _EpochBroken(f"port registry: {exc}") from exc

        path = self.workdir / "sync" / f"epoch{epoch:04d}_request.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(request))
        for proc in running.values():
            proc.send_signal(signal.SIGUSR2)

        # Wait for the leaving processes to dump and exit ...
        sync_deadline = time.monotonic() + self.stall_timeout
        for rank in leaving:
            proc = running[rank]
            while proc.poll() is None:
                if time.monotonic() > sync_deadline:
                    raise _EpochBroken(
                        f"rank {rank} never left during epoch {epoch}"
                    )
                time.sleep(MONITOR_POLL)
            if proc.returncode != exit_code:
                raise _EpochBroken(
                    f"rank {rank} exited {proc.returncode} instead of "
                    f"{exit_code}"
                )
        # ... and for everyone else to pause (marker + actually stopped).
        for rank in [r for r in running if r not in leaving]:
            marker = (
                self.workdir / f"paused_rank{rank:04d}_epoch{epoch:04d}"
            )
            pid = running[rank].pid
            while not (marker.exists() and _proc_state(pid) == "T"):
                if time.monotonic() > sync_deadline:
                    raise _EpochBroken(
                        f"rank {rank} never paused during epoch {epoch}"
                    )
                time.sleep(MONITOR_POLL)
        return running

    def _migrate(self, ranks: list[int]) -> None:
        """One migration epoch (§5.1): the ``ranks`` dump and leave,
        the others pause, the leavers restart from their dumps on
        freshly selected hosts, then everyone continues."""
        self.log(f"migration epoch {self.generation}: ranks {ranks}")
        self._run_epoch("migration", self._migrate_epoch, ranks)

    def _migrate_epoch(self, epoch: int, ranks: list[int]) -> None:
        running = self._signal_epoch(
            epoch, {"action": "migrate", "ranks": ranks}, EXIT_MIGRATED
        )
        # Select free hosts and restart the migrated processes there.
        old_hosts = {}
        for rank in ranks:
            host = self.hostdb.host_of_rank(rank)
            if host is not None:
                old_hosts[rank] = host.name
                self.hostdb.assign(host.name, None)
        new_hosts = self.hostdb.select_free(
            len(ranks), exclude=set(old_hosts.values())
        )
        self.generation = epoch + 1
        for rank, host in zip(ranks, new_hosts):
            self.hostdb.assign(host.name, rank)
            self._spawn(rank, f"migrate{epoch:04d}", host.name)
            self.log(f"rank {rank} restarted on {host.name}")

        for rank in [r for r in running if r not in ranks]:
            self.procs[rank].send_signal(signal.SIGCONT)
        self.migrations += 1
        self._ledger("recover:migrate")

    # ------------------------------------------------------------------
    # rebalance epochs (adaptive load balancing)
    # ------------------------------------------------------------------
    def _maybe_rebalance(self) -> bool:
        """Feed the estimator and run one planner decision.

        Returns True when a rebalance epoch was executed.  Only
        meaningful with every rank still running: a re-cut needs the
        complete global state, so a group with finished ranks (or a
        crash being handled) never rebalances.
        """
        assert self.planner is not None and self.estimator is not None
        est = self.estimator
        for rank, (step, wall, comp) in read_heartbeats(self.workdir).items():
            est.observe_heartbeat(rank, step, wall, comp)
        for host in self.hostdb.hosts():
            if host.rank is not None:
                est.observe_load(host.rank, host.load5)
        if self._done:
            self._forced_rebalance = False
            return False
        if est.min_step() is None:
            # An epoch needs the whole group up and past step 0: until
            # every rank has heartbeated, "speeds" are just host loads
            # and the sync protocol has nobody to answer the signal.
            return False
        force = self._forced_rebalance
        self._forced_rebalance = False
        steps_total = int(self.base_cfg.get("steps_total", 0))
        plan = self.planner.propose(
            est.speeds(),
            list(self._rows),
            steps_remaining=steps_total - (est.min_step() or 0),
            now=time.monotonic(),
            force=force,
        )
        if plan is None:
            return False
        self._rebalance(plan)
        return True

    def _rebalance(self, plan) -> None:
        """One rebalance epoch: every rank dumps (tag ``balance<epoch>``)
        and exits :data:`EXIT_REBALANCED`; the assembled state is re-cut
        into the plan's weighted slabs (``recut<epoch>`` dumps +
        rewritten spec.json) and the whole group restarts under the
        bumped generation — the same channel-reopen path a migration
        uses."""
        self.log(
            f"rebalance epoch {self.generation}: rows "
            f"{list(plan.current)} -> "
            f"{list(plan.shares)} (imbalance {plan.imbalance:.3f}, "
            f"cost {plan.cost:.2f}s, "
            f"saving {plan.projected_saving:.2f}s)"
        )
        self._run_epoch("rebalance", self._rebalance_epoch, plan)

    def _rebalance_epoch(self, epoch: int, plan) -> None:
        shares = list(plan.shares)
        ranks = sorted(self.procs)
        self._signal_epoch(
            epoch,
            {"action": "rebalance", "ranks": ranks, "shares": shares},
            EXIT_REBALANCED,
        )

        from ..balance.recut import RecutError, recut_problem  # lazy: cycle

        try:
            new = recut_problem(
                self.workdir,
                shares,
                in_tag=f"balance{epoch:04d}",
                out_tag=f"recut{epoch:04d}",
            )
        except (DumpCorruption, OSError, ValueError, RecutError) as exc:
            raise _EpochBroken(f"re-cut failed: {exc}") from exc
        self.generation = epoch + 1
        for rank in ranks:
            self._spawn(rank, f"recut{epoch:04d}")
        self._rows = [
            b.hi[0] - b.lo[0]
            for b in sorted(new.active_blocks(), key=lambda b: b.rank)
        ]
        self.estimator.set_nodes(self._rows)
        self.planner.commit(time.monotonic(), plan)
        self.rebalances += 1
        # Checkpoints written before this point carry the *old* block
        # geometry; the recut dumps are the restart floor from now on.
        self._recut_tag = f"recut{epoch:04d}"
        self.log(
            f"rebalance epoch {epoch} complete: generation "
            f"{self.generation}, slab rows {self._rows}"
        )

    def _fold_diagnostics(self) -> None:
        """Fold, log and judge every diagnostics sample all ranks have
        written, oldest first; the monitor is the only writer of
        ``diagnostics.jsonl``, and each sample is folded once however
        often a restart replays its step."""
        records = []
        failure = None
        while failure is None and self._diag_next < self._diag_slots:
            record = fold_sample(
                self.workdir, len(self.procs), self._diag_every,
                self._diag_next,
            )
            if record is None:
                break
            records.append(record)
            self._diag_next += 1
            try:
                check_record(record)
            except DiagnosticsFailure as exc:
                failure = exc
        if records:
            self._diag_log.append(*records)
        if failure is not None:
            self._diagnostic_failure(failure)

    def _diagnostic_failure(self, failure: DiagnosticsFailure) -> None:
        """Stop the run and raise the diagnosis.

        A global NaN or CFL violation is a physics/numerics failure,
        not an infrastructure fault: restarting from the last
        checkpoint would only replay it.  The record goes to
        ``diag_failure.json``, every running rank gets a SIGTERM (and
        exits :data:`~repro.distrib.worker.EXIT_DIAGNOSTIC` after an
        orderly teardown), and stragglers are killed.
        """
        self.log(f"diagnostics failed: {failure}")
        info = {"reason": failure.reason, "record": asdict(failure.record)}
        (self.workdir / "diag_failure.json").write_text(
            json.dumps(info, indent=2) + "\n"
        )
        for proc in self._running().values():
            proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 5.0
        while self._running() and time.monotonic() < deadline:
            time.sleep(MONITOR_POLL)
        self._kill_all()
        raise MonitorError(
            f"run aborted on a diagnosed global blow-up: {failure.reason}"
            f"\ndiagnostics record: {json.dumps(info['record'])}"
        )

    # ------------------------------------------------------------------
    # unrecoverable errors (§4.1)
    # ------------------------------------------------------------------
    def _worker_diagnostics(self, ranks: list[int] | None) -> str:
        """Root-failure evidence from the crashed workers' log files.

        Workers leave their reason for dying in three places: a
        ``rank*.err`` file when construction failed before logging was
        up, a ``FATAL:`` traceback in ``rank*.log`` when the run loop
        raised, and captured stdout/stderr in ``rank*.stdout`` for
        everything earlier (import errors, interpreter aborts).  Collect
        the most specific one available per rank so the MonitorError
        reports *why* the run kept dying, not just that it did.
        """
        log_dir = self.workdir / "logs"
        parts: list[str] = []
        for rank in sorted(ranks or []):
            evidence = None
            err = log_dir / f"rank{rank:04d}.err"
            log = log_dir / f"rank{rank:04d}.log"
            out = log_dir / f"rank{rank:04d}.stdout"
            if err.exists():
                evidence = err.read_text().strip()
            elif log.exists() and "FATAL:" in (text := log.read_text()):
                evidence = text[text.rindex("FATAL:"):].strip()
            elif out.exists() and (text := out.read_text().strip()):
                tail = text.splitlines()[-15:]
                evidence = "\n".join(tail)
            if evidence:
                parts.append(f"--- rank {rank} ---\n{evidence}")
        return "\n".join(parts)

    def _current_blocks(self) -> dict[int, tuple] | None:
        """Per-rank ``(lo, hi)`` of the decomposition spec.json names.

        ``None`` when the spec cannot be rebuilt — the walk then skips
        the geometry check and falls back to checksums alone.
        """
        try:
            spec = ProblemSpec.load(self.workdir / "spec.json")
            decomp = spec.build_decomposition()
        except (OSError, ValueError):  # pragma: no cover - torn spec
            return None
        return {
            b.rank: (tuple(b.lo), tuple(b.hi))
            for b in decomp.active_blocks()
        }

    def _select_checkpoint(self) -> str:
        """The newest complete checkpoint whose dumps all check out.

        Walks the complete checkpoints newest-first; a dump
        disqualifies its step when it is corrupted or missing
        (checksums, §4.1 — restarting into garbage is worse than losing
        a save interval) or when its block geometry no longer matches
        the decomposition spec.json currently names: after a rebalance
        re-cut the domain, every pre-recut checkpoint is a perfectly
        *valid* dump of the wrong shape, and restoring it would crash
        the group into a give-up loop.  The fallback floor is the last
        re-cut's dumps once a rebalance committed, the initial
        ``state`` dumps otherwise.
        """
        blocks = self._current_blocks()
        floor = self._recut_tag or "state"
        steps = [
            f"ckpt{step:09d}"
            for step in SaveTurns.complete_steps(self.workdir)
        ]
        for tag in steps + [floor]:
            try:
                for rank in self.procs:
                    path = dump_path(
                        self.workdir / "dumps", rank, tag=tag
                    )
                    sub = load_dump(path)
                    if blocks is not None and (
                        (tuple(sub.block.lo), tuple(sub.block.hi))
                        != blocks.get(rank)
                    ):
                        raise DumpCorruption(
                            f"{path.name}: block "
                            f"{tuple(sub.block.lo)}..{tuple(sub.block.hi)}"
                            f" does not match the current decomposition"
                        )
            except (DumpCorruption, OSError) as exc:
                self.log(
                    f"checkpoint {tag} rejected, falling back one: {exc}"
                )
                self._ledger("recover:ckpt_fallback")
                continue
            return tag
        return floor  # nothing verified; the floor is the best guess

    def _restart_from_checkpoint(self, crashed: list[int] | None = None) -> None:
        diagnostics = self._worker_diagnostics(crashed)
        if diagnostics:
            self.log(f"worker diagnostics:\n{diagnostics}")
        if self.restarts >= self.max_restarts:
            self._kill_all()
            msg = f"giving up after {self.restarts} restarts"
            if crashed:
                msg += f"; ranks {sorted(crashed)} crashed"
            if diagnostics:
                msg += f"\nworker diagnostics:\n{diagnostics}"
            raise MonitorError(msg)
        self.restarts += 1
        self._kill_all()
        tag = self._select_checkpoint()
        self.log(f"restarting everything from '{tag}' dumps")
        self._ledger("recover:ckpt_restart")
        # The replay re-saves every checkpoint after the restart point;
        # stale save-turn tokens from the previous incarnation would
        # make those saves abort.
        ckpt_step = int(tag[4:]) if tag.startswith("ckpt") else 0
        SaveTurns.reset_after(self.workdir, ckpt_step)
        # The whole simulation restarts — even ranks that had finished
        # must come back, because the ranks re-running from the
        # checkpoint need their boundary data for the replayed steps.
        self._done.clear()
        # Fresh generation: every process re-registers its ports.
        self.generation += 1
        for rank in list(self.procs):
            self._spawn(rank, tag)

    def _spawn(self, rank: int, tag: str, host: str | None = None) -> None:
        """Start ``rank`` under the current generation from its ``tag``
        dump, on ``host`` (default: the host it is registered on)."""
        if host is None:
            owner = self.hostdb.host_of_rank(rank)
            host = owner.name if owner else f"host{rank}"
        self.procs[rank] = spawn_worker(WorkerConfig(
            workdir=str(self.workdir),
            rank=rank,
            host=host,
            generation=self.generation,
            dump_in=str(dump_path(self.workdir / "dumps", rank, tag=tag)),
            **self.base_cfg,
        ))

    def _kill_all(self) -> None:
        for rank, proc in self.procs.items():
            if proc.poll() is None:
                # Wake SIGSTOPped workers first so their teardown
                # (open files, sockets) is orderly where possible.
                try:
                    proc.send_signal(signal.SIGCONT)
                except OSError:  # pragma: no cover
                    pass
                proc.kill()
        for proc in self.procs.values():
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                pass

    # ------------------------------------------------------------------
    # heartbeats
    # ------------------------------------------------------------------
    def _read_heartbeats(self) -> dict[int, int]:
        return {
            rank: step
            for rank, (step, _, _) in read_heartbeats(self.workdir).items()
        }
