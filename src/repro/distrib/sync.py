"""Shared-file synchronization (paper App. B) and staggered saving (§5.2).

The migration synchronization algorithm: "a synchronization request is
sent to all the processes by means of a UNIX interrupt.  In response,
every process writes the current integration time step into a shared
file (using file locking semaphores, and append mode).  Then, every
process examines the shared file to find the largest integration time
step T_max among all the processes [and] chooses (T_max + 1) to be the
upcoming synchronization time step" — the smallest synchronization step
possible at any given time, so a pending migration happens as soon as
possible.  Because a signal can land mid-step, a process may complete
the step in flight after writing; ``T_max + 1`` is still reachable by
everyone and passed by no one.

Staggered saving: when all processes save state at about the same time
they saturate the network and the file server, so "the parallel
processes must save their state one after the other in an orderly
fashion".  A flock-guarded turn counter orders the savers by rank; the
last saver publishes a completion marker, which is what makes a
checkpoint *restartable* — the monitoring program only ever restarts
from checkpoints whose marker exists, so a crash mid-save-sequence can
never mix steps.
"""

from __future__ import annotations

import fcntl
import os
import time
import warnings
from pathlib import Path

from .._jsonl import locked_append

__all__ = ["SyncFiles", "SaveTurns", "SyncFileWarning"]


class SyncFileWarning(RuntimeWarning):
    """A shared sync file held a malformed record.

    Every write is a flock'd, fsync'd append of one whole line, so a
    torn or garbled line is a real fault (filesystem, foreign writer,
    manual edit) worth surfacing — not something to skip silently.
    """


def _read_pairs(path: Path) -> dict[int, int]:
    """Parse ``rank value`` lines, keeping the last complete record per rank.

    A rank may legitimately append more than once across epochs; later
    complete records override earlier ones.  Malformed lines raise a
    :class:`SyncFileWarning` and are excluded — they never shadow or
    erase a rank's last complete record.
    """
    out: dict[int, int] = {}
    if not path.exists():
        return out
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        try:
            if len(parts) != 2:
                raise ValueError(f"expected 2 fields, found {len(parts)}")
            rank, value = int(parts[0]), int(parts[1])
        except ValueError as exc:
            warnings.warn(
                f"{path.name}:{lineno}: malformed sync record "
                f"{line!r} ({exc})",
                SyncFileWarning,
                stacklevel=2,
            )
            continue
        out[rank] = value
    return out


class SyncFiles:
    """The App. B shared files for one migration epoch."""

    def __init__(self, workdir: str | Path, epoch: int):
        base = Path(workdir) / "sync"
        self.epoch = epoch
        self.steps_path = base / f"epoch{epoch:04d}_steps.txt"
        self.reached_path = base / f"epoch{epoch:04d}_reached.txt"

    # -- phase 1: everyone reports its current step -------------------
    def write_step(self, rank: int, step: int) -> None:
        """Append ``rank step`` (called from the SIGUSR2 handler)."""
        locked_append(self.steps_path, f"{rank} {step}\n")

    def has_written(self, rank: int) -> bool:
        """Whether ``rank`` already reported its step this epoch."""
        return rank in _read_pairs(self.steps_path)

    def wait_sync_step(
        self, n_ranks: int, timeout: float = 60.0, poll: float = 0.005
    ) -> int:
        """Block until all ranks reported, then return ``T_max + 1``."""
        deadline = time.monotonic() + timeout
        while True:
            steps = _read_pairs(self.steps_path)
            if len(steps) >= n_ranks:
                return max(steps.values()) + 1
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"only {len(steps)}/{n_ranks} ranks reported their "
                    f"step for epoch {self.epoch}"
                )
            time.sleep(poll)

    # -- phase 2: everyone confirms having completed T_sync -----------
    def mark_reached(self, rank: int, step: int) -> None:
        """Record that ``rank`` completed the synchronization step."""
        locked_append(self.reached_path, f"{rank} {step}\n")

    def wait_all_reached(
        self, n_ranks: int, timeout: float = 60.0, poll: float = 0.005
    ) -> None:
        """Barrier: channels may only close once every rank finished
        the synchronization step (so no in-flight strip is lost)."""
        deadline = time.monotonic() + timeout
        while True:
            if len(_read_pairs(self.reached_path)) >= n_ranks:
                return
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"ranks missing from reached-barrier of epoch {self.epoch}"
                )
            time.sleep(poll)


class SaveTurns:
    """Rank-ordered turn taking for staggered state saves."""

    def __init__(self, workdir: str | Path, step: int):
        self.step = step
        base = Path(workdir) / "sync"
        base.mkdir(parents=True, exist_ok=True)
        self.counter_path = base / f"save_turn_step{step:09d}.txt"
        self.complete_path = SaveTurns.complete_marker(workdir, step)

    def _read_counter(self) -> int:
        if not self.counter_path.exists():
            return 0
        text = self.counter_path.read_text().strip()
        return int(text) if text else 0

    def wait_turn(
        self,
        position: int,
        timeout: float = 120.0,
        poll: float = 0.002,
    ) -> None:
        """Block until it is this rank's turn to save."""
        deadline = time.monotonic() + timeout
        while self._read_counter() < position:
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"save turn {position} never came at step {self.step}"
                )
            time.sleep(poll)

    def finish_turn(self, position: int, n_ranks: int) -> None:
        """Pass the token; the last saver publishes the completion marker."""
        with open(self.counter_path, "a+") as fh:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                fh.seek(0)
                text = fh.read().strip()
                current = int(text) if text else 0
                if current != position:
                    raise RuntimeError(
                        f"save token at {current}, expected {position}"
                    )
                fh.seek(0)
                fh.truncate()
                fh.write(str(position + 1))
                fh.flush()
                os.fsync(fh.fileno())
            finally:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
        if position + 1 == n_ranks:
            self.complete_path.touch()

    @staticmethod
    def complete_marker(workdir: str | Path, step: int) -> Path:
        """Path of the completion marker for a checkpoint step."""
        return (Path(workdir) / "sync"
                / f"ckpt_step{step:09d}_complete")

    @staticmethod
    def complete_steps(workdir: str | Path) -> list[int]:
        """Every step with a complete (restartable) checkpoint, newest
        first — the fallback order a restart walks when the newest
        checkpoint turns out to be corrupt."""
        base = Path(workdir) / "sync"
        steps = []
        for p in base.glob("ckpt_step*_complete"):
            try:
                steps.append(int(p.name[len("ckpt_step"):-len("_complete")]))
            except ValueError:  # pragma: no cover - foreign file
                continue
        return sorted(steps, reverse=True)

    @staticmethod
    def latest_complete_step(workdir: str | Path) -> int | None:
        """Newest step with a complete (restartable) checkpoint."""
        steps = SaveTurns.complete_steps(workdir)
        return steps[0] if steps else None

    @staticmethod
    def reset_after(workdir: str | Path, step: int) -> None:
        """Discard save-turn state for every step beyond ``step``.

        A restart replays the run from checkpoint ``step``, so the
        workers will pass the save token again at every later
        checkpoint.  Any counter file or completion marker those steps
        left behind before the crash (including a *complete* save whose
        dumps later failed checksum verification) would make
        :meth:`finish_turn` see a token that is already ahead of the
        replaying rank and abort the whole run — so the monitor clears
        them before respawning workers.
        """
        base = Path(workdir) / "sync"
        for pattern, prefix, suffix in (
            ("save_turn_step*.txt", "save_turn_step", ".txt"),
            ("ckpt_step*_complete", "ckpt_step", "_complete"),
        ):
            for p in base.glob(pattern):
                try:
                    found = int(p.name[len(prefix):-len(suffix)])
                except ValueError:  # pragma: no cover - foreign file
                    continue
                if found > step:
                    p.unlink(missing_ok=True)
