"""Fault injectors: where a :class:`~repro.chaos.plan.FaultPlan` bites.

Three injection points mirror the three layers a real cluster fails at:

* :class:`ChannelFaultInjector` sits in the channel send path
  (``ChannelSet.send_data`` / ``UdpChannelSet.send_data``) and
  drops, duplicates, delays or truncates individual frames, or breaks
  the connection outright — the shared-Ethernet failure modes of
  App. C/D.
* :class:`WorkerFaults` fires at step boundaries inside the worker
  (SIGKILL = a crashed workstation, SIGSTOP = an owner reclaiming the
  machine, §5.1; a NaN = a blown-up kernel) and corrupts checkpoint
  dumps right after they are written (a failing disk or NFS server,
  §4.1).
* Host-load spikes are applied by the monitor to the virtual host
  table — see :meth:`FaultPlan.host_faults`.

The hot path follows the null-tracer convention: workers without a
fault plan hold :data:`NULL_INJECTOR` (``enabled`` is False) and the
channel layer skips the hook with one attribute check.

**Fired-once markers.**  A checkpoint restart replays the steps since
the last complete checkpoint, so a fault keyed only by step would
re-fire on every incarnation and pin the run in a crash loop.  Each
fault claims a marker file (``chaos/fired_<id>``, created with
``O_EXCL``) before firing; the marker survives the process, so every
fault fires exactly once per run no matter how many restarts follow.
"""

from __future__ import annotations

import os
import signal
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .plan import (
    DUMP_KINDS,
    MESSAGE_KINDS,
    PROCESS_KINDS,
    STATE_KINDS,
    Fault,
)

__all__ = [
    "NULL_INJECTOR",
    "NullInjector",
    "FiredMarkers",
    "ChannelFaultInjector",
    "WorkerFaults",
    "corrupt_dump",
]

#: ``(to, payload, step, phase, axis, side)`` — one frame about to go out.
Frame = tuple

#: ``log(msg, kind)``: one record in the firing worker's journal
Log = Callable[[str, str], None]


def _record(log: Log, fault: Fault) -> None:
    """The recovery-ledger record of a fault about to fire."""
    log(f"chaos: firing {fault.fault_id}", f"chaos:{fault.kind}")


class NullInjector:
    """Inert injector: the channel hot path checks one attribute."""

    enabled = False

    def filter_send(self, frame: Frame):  # pragma: no cover - never hot
        return (frame,), ()


NULL_INJECTOR = NullInjector()


class FiredMarkers:
    """At-most-once claims for fault ids, durable across restarts."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def claim(self, fault: Fault) -> bool:
        """True exactly once per fault id across all incarnations."""
        try:
            fd = os.open(
                self.directory / f"fired_{fault.fault_id}",
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            return False
        os.close(fd)
        return True


class ChannelFaultInjector:
    """Message-level faults applied where frames leave a channel set.

    ``filter_send`` maps one outgoing frame to the frames that actually
    go on the wire plus the peers whose links must be broken first:

    * ``msg_drop``     -> no frames (the strip never leaves)
    * ``msg_dup``      -> the frame twice (receiver must dedup/ignore)
    * ``msg_delay``    -> no frames now; released before the next send
    * ``msg_truncate`` -> the frame with ``arg`` (>=1) payload bytes cut
    * ``conn_break``   -> break the link to the peer, then send (the
      send path must reconnect with backoff to deliver it)
    """

    enabled = True

    def __init__(
        self,
        faults: Iterable[Fault],
        markers: FiredMarkers,
        log: Log | None = None,
    ):
        self._pending = [
            f for f in faults if f.kind in MESSAGE_KINDS
        ]
        self._markers = markers
        self._log = log or (lambda msg, kind: None)
        self._delayed: list[Frame] = []
        self._live: dict[str, int] = {}   # fault_id -> frames remaining

    def _match(self, step: int) -> Fault | None:
        for fault in self._pending:
            if step < fault.step:
                continue
            live = self._live.get(fault.fault_id)
            if live is None:
                if not self._markers.claim(fault):
                    # fired by a previous incarnation — retire it
                    self._pending.remove(fault)
                    return self._match(step)
                live = max(fault.count, 1)
                _record(self._log, fault)
            live -= 1
            if live <= 0:
                self._pending.remove(fault)
                self._live.pop(fault.fault_id, None)
            else:
                self._live[fault.fault_id] = live
            return fault
        return None

    def filter_send(self, frame: Frame) -> tuple[Sequence[Frame], Sequence[int]]:
        out: list[Frame] = list(self._delayed)
        self._delayed.clear()
        to, payload, step = frame[0], frame[1], frame[2]
        fault = self._match(step)
        if fault is None:
            out.append(frame)
            return out, ()
        if fault.kind == "msg_drop":
            pass
        elif fault.kind == "msg_dup":
            out.extend((frame, frame))
        elif fault.kind == "msg_delay":
            self._delayed.append(frame)
        elif fault.kind == "msg_truncate":
            cut = max(fault.arg, 1)
            out.append((to, payload[: max(len(payload) - cut, 0)],
                        *frame[2:]))
        else:  # conn_break
            out.append(frame)
            return out, (to,)
        return out, ()


class WorkerFaults:
    """Process-, state- and dump-level faults fired by the worker itself."""

    def __init__(
        self,
        faults: Iterable[Fault],
        markers: FiredMarkers,
        log: Log | None = None,
    ):
        faults = list(faults)
        self._step_faults = [
            f for f in faults if f.kind in PROCESS_KINDS | STATE_KINDS
        ]
        self._dump_faults = [f for f in faults if f.kind in DUMP_KINDS]
        self._markers = markers
        self._log = log or (lambda msg, kind: None)

    def at_step(self, sub) -> None:
        """Fire any fault scheduled for the subregion's current step.

        A process fault never returns: the process is killed or
        stopped.  A ``nan`` fault poisons one interior ``rho`` value
        and returns, leaving the diagnostics to find it.
        """
        step = sub.step
        for fault in self._step_faults:
            if fault.step != step or not self._markers.claim(fault):
                continue
            # written before the process dies or freezes
            _record(self._log, fault)
            if fault.kind == "nan":
                view = sub.interior_view("rho")
                view.flat[view.size // 2] = float("nan")
            elif fault.kind == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            else:  # "stop" — an owner reclaimed the workstation (§5.1);
                # nothing resumes us until the monitor's restart SIGCONTs
                # and kills the incarnation.
                os.kill(os.getpid(), signal.SIGSTOP)

    def after_checkpoint(self, path: str | Path, step: int) -> None:
        """Corrupt a just-written checkpoint dump when scheduled."""
        for fault in self._dump_faults:
            if step < fault.step or not self._markers.claim(fault):
                continue
            _record(self._log, fault)
            corrupt_dump(path, truncate=fault.kind == "dump_truncate")
            self._log(f"chaos: corrupted {Path(path).name}", "note")


def corrupt_dump(path: str | Path, truncate: bool = False) -> None:
    """Damage a dump file the way a failing disk would.

    ``truncate`` cuts the file short (a crash mid-write past the atomic
    rename, or a full filesystem); otherwise a run of bytes in the
    middle is flipped (silent media corruption) — either way
    :func:`repro.distrib.dumpfile.load_dump` must refuse the file.
    """
    path = Path(path)
    size = path.stat().st_size
    if truncate:
        with open(path, "r+b") as fh:
            fh.truncate(max(size * 3 // 5, 1))
        return
    with open(path, "r+b") as fh:
        fh.seek(size // 2)
        chunk = fh.read(64)
        fh.seek(size // 2)
        fh.write(bytes(b ^ 0xFF for b in chunk))
