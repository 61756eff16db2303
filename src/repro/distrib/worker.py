"""The parallel program each workstation executes (paper §4-5).

One worker process owns one subregion.  Its life is the two-beat loop of
§3 — compute locally, communicate with neighbours — plus the mechanisms
that make the computation transparent to the workstations' regular
users:

* **SIGUSR2 migration requests** (§5.1): both the monitoring program and
  a regular user can ask a parallel subprocess to migrate at any time
  via ``kill -USR2``.  The signal handler appends the current
  integration step to the epoch's shared sync file (App. B); at the next
  step boundary the worker joins the synchronization protocol, runs to
  the agreed step ``T_max + 1``, and then either dumps-and-exits (if it
  is the one migrating) or closes its channels, stops itself with
  SIGSTOP and waits for the monitor's SIGCONT to re-open channels under
  the next port-registry generation.
* **Staggered checkpointing** (§5.2): every ``save_every`` steps the
  workers save their state one after the other in rank order, the last
  one publishing the completion marker the monitor restarts from.
* **Heartbeats**: the monitoring program checks every few minutes
  whether the parallel processes are progressing correctly; after each
  step a worker rewrites one checksummed record in its heartbeat file
  (:mod:`repro.distrib.heartbeat`) so a stall is observable, and every
  ``diag_every`` steps it stores its diagnostics partials for the
  monitor to fold.  A SIGTERM from the monitor (a failed diagnostics
  check) ends the worker with :data:`EXIT_DIAGNOSTIC`.

A rank is forked from the submitter's rank host
(:mod:`repro.distrib.rankhost`), which calls :func:`main`;
``python -m repro.distrib.worker <config.json>`` runs one by hand.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..chaos.inject import ChannelFaultInjector, FiredMarkers, WorkerFaults
from ..chaos.plan import KINDS, MESSAGE_KINDS, FaultPlan
from ..core.exchange import build_plan
from ..net.channels import ChannelSet
from ..net.portfile import PortRegistry
from ..net.transport import SocketExchanger
from ..net.udp import UdpChannelSet
from ..trace import NULL_TRACER, Tracer
from .diagnostics import local_partials
from .dumpfile import dump_path, load_dump, save_dump
from .heartbeat import (
    SLOT_SIZE,
    encode_heartbeat,
    encode_partials,
    open_heartbeat,
    open_partials,
)
from .journal import Journal
from .settings import WorkerKnobs
from .spec import ProblemSpec
from .sync import SaveTurns, SyncFiles

__all__ = [
    "WorkerConfig",
    "Worker",
    "EXIT_DONE",
    "EXIT_MIGRATED",
    "EXIT_DIAGNOSTIC",
    "EXIT_REBALANCED",
    "NICENESS",
    "main",
]

EXIT_DONE = 0
#: EX_TEMPFAIL — the process left to be restarted on another host.
EXIT_MIGRATED = 75
#: EX_PROTOCOL — the monitor stopped the run on a diagnosed global
#: NaN/CFL violation (see :mod:`repro.distrib.diagnostics`); there is
#: no point restarting from the latest checkpoint without intervention.
EXIT_DIAGNOSTIC = 76
#: The whole group dumped at a sync step and left for a domain re-cut;
#: the monitor reassembles the dumps into new weighted blocks and
#: restarts everyone under the next generation (rebalance epoch).
EXIT_REBALANCED = 77

#: §5.1: every rank runs at this UNIX nice level, so the regular user's
#: interactive tasks "receive the full attention of the processor
#: immediately"
NICENESS = 10
#: seconds to wait for neighbours to connect
OPEN_TIMEOUT = 30.0

#: worker-side smoothing of the per-step compute seconds published in
#: the heartbeat (the monitor's load estimator smooths again)
_COMP_ALPHA = 0.2


class _Stopped(BaseException):
    """The monitor's SIGTERM: leave at once (a ``BaseException``, so no
    ``except Exception`` on the way out swallows it)."""


@dataclass
class WorkerConfig(WorkerKnobs):
    """Runtime configuration handed to a worker by the submit program.

    The per-rank identity fields live here; every run-wide knob
    (checkpoint period, transport, timeouts, ...) is inherited from
    :class:`~repro.distrib.settings.WorkerKnobs`, the single
    declaration shared with
    :class:`~repro.distrib.orchestrator.RunSettings`.
    """

    workdir: str
    rank: int
    host: str
    steps_total: int
    generation: int = 0
    dump_in: str = ""          # dump file to restore from

    def to_json(self) -> str:
        """Serialize to JSON for the worker command line."""
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "WorkerConfig":
        return cls(**json.loads(text))

    @staticmethod
    def path(workdir: str | Path, rank: int) -> Path:
        """Canonical config-file path for a rank."""
        return Path(workdir) / f"cfg_rank{rank:04d}.json"


class Worker:
    """One parallel subprocess of the distributed computation."""

    def __init__(self, cfg: WorkerConfig):
        self.cfg = cfg
        self.workdir = Path(cfg.workdir)
        self.rank = cfg.rank
        self.spec = ProblemSpec.load(self.workdir / "spec.json")
        methods = self.spec.build_methods()
        self.method = methods[self.rank]
        self.decomp = self.spec.build_decomposition()
        self.n_ranks = self.decomp.n_active
        # Seam converters for *this* rank's mixed-method edges, keyed by
        # neighbour rank, and the fields this rank ships across a seam;
        # a uniform run has neither and never imports the coupling
        # module.
        self.converters = {}
        self._wire_fields = ()
        if self.spec.is_hybrid:
            from ..fluids.coupling import build_converters, seam_wire_fields

            self.converters = {
                src: conv
                for (dst, src), conv in build_converters(
                    self.decomp, methods
                ).items()
                if dst == self.rank
            }
            self._wire_fields = seam_wire_fields(self.method)

        dump_in = cfg.dump_in or str(
            dump_path(self.workdir / "dumps", self.rank)
        )
        self.sub = load_dump(dump_in)
        if self.sub.block.rank != self.rank:
            raise RuntimeError(
                f"dump {dump_in} holds rank {self.sub.block.rank}, "
                f"worker is rank {self.rank}"
            )
        # Rebuild method-private masks and scratch (never dumped).
        self.method.init_subregion(self.sub)

        self.plan = build_plan(self.decomp, self.rank, self.method.pad)
        neighbor_ranks = {
            op.neighbor_rank for op in self.plan.recv_ops()
        } - {self.rank}
        self.registry = PortRegistry(
            self.workdir / f"ports_{cfg.transport}.txt"
        )
        if cfg.transport == "tcp":
            self.channels = ChannelSet(
                self.rank, neighbor_ranks, self.registry
            )
        elif cfg.transport == "udp":
            self.channels = UdpChannelSet(
                self.rank, neighbor_ranks, self.registry,
                loss_rate=cfg.udp_loss,
            )
        else:
            raise ValueError(f"unknown transport {cfg.transport!r}")
        self.tracer = NULL_TRACER
        if cfg.trace:
            # A rank restarted after migrating away must not truncate
            # the trace its previous incarnation streamed.
            gen = f".g{cfg.generation}" if cfg.generation else ""
            self.tracer = Tracer(
                self.workdir / "trace"
                / f"trace-{self.rank:04d}{gen}.jsonl",
                rank=self.rank,
                job=cfg.job_id,
            )
            self.channels.tracer = self.tracer
        self._compute_names = tuple(
            f"compute:{i}"
            for i in range(len(self.method.exchange_phases))
        )
        self._exchange_names = tuple(
            f"exchange:{i}"
            for i in range(len(self.method.exchange_phases))
        )
        self.exchanger = SocketExchanger(
            self.sub,
            self.plan,
            self.channels,
            timeout=cfg.recv_timeout,
            converters=self.converters,
            wire_fields=self._wire_fields,
        )
        #: diagnostics slots, mapped in :meth:`run` when due
        self._diag = None
        self.generation = cfg.generation
        self._sync_epoch: int | None = None
        # This rank's share of the per-rank synthetic-load knob.
        self._step_delay = (
            float(cfg.step_delays[self.rank])
            if self.rank < len(cfg.step_delays) else 0.0
        )
        #: EMA of per-step compute seconds (delay + compute + finalize,
        #: excluding exchanges), published in the heartbeat so the
        #: monitor's load estimator can see per-rank speed even though
        #: the BSP lockstep equalizes every rank's step counter.
        self._comp_ema: float | None = None
        self.journal = Journal(self.workdir, self.rank)
        # Deterministic fault injection (repro.chaos): process, nan and
        # dump faults fire from the step loop, message faults hook the
        # channel send path.  Fired-once markers live in the workdir so
        # a fault never re-fires after the checkpoint restart it caused.
        self.faults: WorkerFaults | None = None
        if cfg.fault_plan:
            plan = FaultPlan.from_json(cfg.fault_plan)
            markers = FiredMarkers(self.workdir / "chaos")
            # WorkerFaults keeps the step-boundary and dump kinds
            self.faults = WorkerFaults(
                plan.for_rank(self.rank, KINDS),
                markers,
                log=self.log,
            )
            msg_faults = plan.for_rank(self.rank, MESSAGE_KINDS)
            if msg_faults:
                self.channels.injector = ChannelFaultInjector(
                    msg_faults, markers, log=self.log
                )

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def log(self, msg: str, kind: str = "note") -> None:
        """Append a record at the current step to this rank's journal."""
        self.journal.write(kind, msg, self.sub.step)

    def _request_path(self, epoch: int) -> Path:
        return self.workdir / "sync" / f"epoch{epoch:04d}_request.json"

    def _usr2_handler(self, signum, frame) -> None:  # noqa: ARG002
        """App. B phase 1, run directly from the interrupt.

        If the monitor has published a migration request for the current
        generation, report our step into the epoch's sync file; if not
        (a regular user signalled this process directly), leave a wish
        file for the monitoring program to pick up.
        """
        epoch = self.generation
        if self._request_path(epoch).exists():
            sf = SyncFiles(self.workdir, epoch)
            if not sf.has_written(self.rank):
                sf.write_step(self.rank, self.sub.step)
            self._sync_epoch = epoch
        else:
            wish = self.workdir / "sync" / f"wish_rank{self.rank:04d}"
            wish.parent.mkdir(parents=True, exist_ok=True)
            wish.touch()

    def _term_handler(self, signum, frame) -> None:  # noqa: ARG002
        """The monitor stops the run: unwind from wherever we are."""
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        raise _Stopped

    def install_signals(self) -> None:
        """Install the SIGUSR2 migration-request and SIGTERM stop
        handlers."""
        signal.signal(signal.SIGUSR2, self._usr2_handler)
        signal.signal(signal.SIGTERM, self._term_handler)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Open channels and run the compute/communicate loop to completion."""
        self.install_signals()
        self._hb = open_heartbeat(self.workdir, self.rank)
        if self.cfg.diag_every > 0:
            slots = self.cfg.steps_total // self.cfg.diag_every
            if slots:
                self._diag = open_partials(self.workdir, self.rank, slots)
        self.channels.open(self.generation, timeout=OPEN_TIMEOUT)
        self.log(f"channels open, generation {self.generation}")
        if self.cfg.dump_in:
            # This incarnation was restored from a dump (checkpoint
            # restart, migration or rebalance) — ledger the recovery.
            self.log(f"recovered from {Path(self.cfg.dump_in).name}",
                     "recover:restart")
        try:
            while True:
                if self._sync_epoch is not None:
                    rc = self._sync_protocol()
                    if rc is not None:
                        return rc
                if self.sub.step >= self.cfg.steps_total:
                    break
                if self.faults is not None:
                    self.faults.at_step(self.sub)
                self._step_once()
                self._heartbeat()
                self._maybe_checkpoint()
            save_dump(
                self.sub,
                dump_path(self.workdir / "dumps", self.rank, tag="final"),
            )
            self.log("done")
            return EXIT_DONE
        finally:
            self.channels.close()
            self._hb.close()
            if self._diag is not None:
                self._diag.close()
            self.tracer.close()

    def _step_once(self) -> None:
        method = self.method
        sub = self.sub
        tracer = self.tracer
        step_no = sub.step
        comp = 0.0
        if self.converters:
            # Mixed-method edges translate once per step before the
            # first compute phase (both sides convert time-t state);
            # the regular phase exchanges below skip those edges.
            t0 = tracer.begin()
            self.exchanger.exchange_seam()
            tracer.end("seam:0", t0, step=step_no)
        if self._step_delay > 0.0:
            c0 = time.perf_counter()
            time.sleep(self._step_delay)
            comp += time.perf_counter() - c0
        for phase, fields in enumerate(method.exchange_phases):
            t0 = tracer.begin()
            c0 = time.perf_counter()
            method.compute_phase(sub, phase)
            comp += time.perf_counter() - c0
            tracer.end(self._compute_names[phase], t0, step=step_no)
            t0 = tracer.begin()
            self.exchanger.exchange(fields, phase)
            tracer.end(self._exchange_names[phase], t0, step=step_no)
        t0 = tracer.begin()
        c0 = time.perf_counter()
        method.finalize_step(sub)
        comp += time.perf_counter() - c0
        tracer.end("finalize:0", t0, step=step_no)
        if self._comp_ema is None:
            self._comp_ema = comp
        else:
            self._comp_ema += _COMP_ALPHA * (comp - self._comp_ema)
        sub.step += 1
        # Here, not in the outer loop, so the catch-up steps of a sync
        # epoch store their samples too.
        if self._diag is not None and sub.step % self.cfg.diag_every == 0:
            self._write_partials()

    def _write_partials(self) -> None:
        """Store this step's diagnostics partials in their slot."""
        step = self.sub.step
        at = (step // self.cfg.diag_every - 1) * SLOT_SIZE
        self._diag[at:at + SLOT_SIZE] = encode_partials(
            step, local_partials(self.sub)
        )

    def _heartbeat(self) -> None:
        t0 = self.tracer.begin()
        comp = self._comp_ema if self._comp_ema is not None else 0.0
        wall = time.time()  # wall stamp
        self._hb[:] = encode_heartbeat(self.sub.step, wall, comp)
        self.tracer.end("heartbeat:0", t0, step=self.sub.step)

    def _maybe_checkpoint(self) -> None:
        every = self.cfg.save_every
        if every <= 0 or self.sub.step % every or self.sub.step == 0:
            return
        turns = SaveTurns(self.workdir, self.sub.step)
        t0 = self.tracer.begin()
        turns.wait_turn(self.rank)
        self.tracer.end("checkpoint:turn", t0, step=self.sub.step)
        t0 = self.tracer.begin()
        out = dump_path(
            self.workdir / "dumps",
            self.rank,
            tag=f"ckpt{self.sub.step:09d}",
        )
        save_dump(self.sub, out)
        self.tracer.end("checkpoint:write", t0, step=self.sub.step)
        turns.finish_turn(self.rank, self.n_ranks)
        self.log(f"checkpoint at step {self.sub.step}")
        if self.faults is not None:
            self.faults.after_checkpoint(out, self.sub.step)

    # ------------------------------------------------------------------
    # migration (§5.1 / App. B) and rebalance epochs
    # ------------------------------------------------------------------
    def _sync_protocol(self) -> int | None:
        """Run the synchronization; return an exit code if we leave.

        A migration epoch ends with the migrating ranks dumping and
        exiting :data:`EXIT_MIGRATED` while everyone else pauses.  A
        rebalance epoch ends with *every* rank dumping (tag
        ``balance<epoch>``) and exiting :data:`EXIT_REBALANCED`; the
        monitor re-cuts the assembled state into new weighted blocks
        and restarts the whole group under the next generation.
        """
        epoch = self._sync_epoch
        assert epoch is not None
        request = json.loads(self._request_path(epoch).read_text())
        rebalance = request.get("action") == "rebalance"
        prefix = "balance" if rebalance else "migration"
        sf = SyncFiles(self.workdir, epoch)
        t0 = self.tracer.begin()
        t_sync = sf.wait_sync_step(
            self.n_ranks, timeout=self.cfg.sync_timeout
        )
        self.tracer.end(f"{prefix}:sync", t0, step=self.sub.step)
        self.log(f"sync epoch {epoch}: target step {t_sync}")
        if self.sub.step > t_sync:  # pragma: no cover - invariant guard
            raise RuntimeError(
                f"rank {self.rank} already past sync step "
                f"{t_sync} (at {self.sub.step})"
            )
        while self.sub.step < t_sync:
            self._step_once()
        sf.mark_reached(self.rank, self.sub.step)
        t0 = self.tracer.begin()
        sf.wait_all_reached(self.n_ranks, timeout=self.cfg.sync_timeout)
        self.tracer.end(f"{prefix}:reach", t0, step=self.sub.step)

        if rebalance:
            self.channels.close()
            t0 = self.tracer.begin()
            out = dump_path(
                self.workdir / "dumps", self.rank, tag=f"balance{epoch:04d}"
            )
            save_dump(self.sub, out)
            self.tracer.end("balance:dump", t0, step=self.sub.step)
            self.log(f"leaving for re-cut (dump {out.name})")
            return EXIT_REBALANCED

        migrating = set(request["ranks"])
        self.channels.close()
        if self.rank in migrating:
            out = dump_path(
                self.workdir / "dumps", self.rank, tag=f"migrate{epoch:04d}"
            )
            save_dump(self.sub, out)
            self.log(f"migrating away (dump {out.name})")
            return EXIT_MIGRATED

        # Suspend until the monitor has restarted the migrating
        # process(es) on free hosts and sends SIGCONT (§5.1).
        marker = (
            self.workdir / f"paused_rank{self.rank:04d}_epoch{epoch:04d}"
        )
        marker.touch()
        self.log("paused for migration")
        self.tracer.flush()  # the pause may end in a kill
        t0 = self.tracer.begin()
        os.kill(os.getpid(), signal.SIGSTOP)
        # --- resumed by the monitoring program ---
        self.tracer.end("migration:pause", t0, step=self.sub.step)
        self.generation = epoch + 1
        self._sync_epoch = None
        self.channels.open(self.generation, timeout=OPEN_TIMEOUT)
        self.log(f"resumed, generation {self.generation}")
        return None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.distrib.worker <config.json>")
        return 2
    # A migration request can land while the worker is still loading its
    # dump (the monitor signals every process at once); catch it early
    # and replay it once the real handler is installed.
    pending: list[int] = []
    signal.signal(signal.SIGUSR2, lambda s, f: pending.append(s))
    # A rank forked by the rank host starts with SIGUSR2 blocked, so a
    # request sent before this catcher existed waits here instead of
    # killing it.
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGUSR2})
    cfg = WorkerConfig.from_json(Path(argv[0]).read_text())
    # §5.1: run at low priority so the computation is transparent to
    # the workstation's regular user.
    try:
        os.nice(NICENESS)
    except OSError:  # pragma: no cover - permission-restricted env
        pass
    try:
        worker = Worker(cfg)
    except Exception:
        # no worker, no step: the construction failure has none
        Journal(cfg.workdir, cfg.rank).write("fatal", traceback.format_exc())
        return 1
    worker.install_signals()
    if pending:
        worker._usr2_handler(signal.SIGUSR2, None)
    try:
        return worker.run()
    except _Stopped:
        worker.log("stopped by the monitor")
        return EXIT_DIAGNOSTIC
    except Exception:
        worker.log(traceback.format_exc(), "fatal")
        return 1


if __name__ == "__main__":
    sys.exit(main())
