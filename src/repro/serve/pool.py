"""The persistent worker-process pool behind the gateway.

Spawning reuses the distributed runtime's submit machinery verbatim:
the same absolutized-``PYTHONPATH`` environment
(:func:`repro.distrib.submit._worker_env`) and the same append-mode log
files.  Each pool worker is named as a virtual ``pool-<i>`` host in its
status (the HOST column of `repro top`).

Each worker is connected to the gateway by one ``socketpair``: job ids
go out a line each (:meth:`WorkerPool.send`), ``done <job_id>`` lines
come back (:meth:`WorkerPool.finished`).  Each end is held by one
process only, so either side's death, however it happens, is EOF on
the other: the gateway respawns the worker (:meth:`ensure_alive`), a
worker exits.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
from pathlib import Path

from ..distrib.submit import _worker_env

__all__ = ["WorkerPool"]


class WorkerPool:
    """A fixed-size pool of persistent ``pool_worker`` processes."""

    def __init__(self, serve_dir: str | Path, n_workers: int = 2) -> None:
        if n_workers < 1:
            raise ValueError("the pool needs at least one worker")
        self.serve_dir = Path(serve_dir).resolve()
        self.n_workers = n_workers
        self.pool_dir = self.serve_dir / "pool"
        self.procs: dict[int, subprocess.Popen] = {}
        #: the gateway's end of each worker's socket (non-blocking)
        self.channels: dict[int, socket.socket] = {}
        self._partial: dict[int, bytes] = {}
        self.deaths = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn every worker."""
        (self.pool_dir / "hb").mkdir(parents=True, exist_ok=True)
        (self.pool_dir / "logs").mkdir(parents=True, exist_ok=True)
        for i in range(self.n_workers):
            self.spawn(i)

    def spawn(self, index: int) -> subprocess.Popen:
        """(Re)start one pool worker process on a fresh socket."""
        parent, child = socket.socketpair()
        log = self.pool_dir / "logs" / f"worker-{index:02d}.log"
        with child, open(log, "ab") as fh:
            try:
                proc = subprocess.Popen(
                    [
                        sys.executable, "-m", "repro.serve.pool_worker",
                        str(self.serve_dir), str(index),
                        str(child.fileno()),
                    ],
                    stdout=fh,
                    stderr=subprocess.STDOUT,
                    cwd=str(self.serve_dir),
                    env=_worker_env(),
                    pass_fds=(child.fileno(),),
                )
            except BaseException:
                parent.close()
                raise
        parent.setblocking(False)
        old = self.channels.get(index)
        if old is not None:
            old.close()
        self.channels[index] = parent
        self._partial[index] = b""
        self.procs[index] = proc
        return proc

    def stop(self, timeout: float = 10.0) -> None:
        """Close every channel; a worker exits after its current job."""
        for chan in self.channels.values():
            chan.close()
        self.channels.clear()
        for proc in self.procs.values():
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=timeout)
        self.procs.clear()

    # ------------------------------------------------------------------
    # the channel
    # ------------------------------------------------------------------
    def send(self, index: int, job_id: str) -> None:
        """Hand worker ``index`` one job."""
        try:
            self.channels[index].sendall(f"{job_id}\n".encode())
        except (BrokenPipeError, ConnectionResetError):
            pass  # the worker is dead: finished() reports its EOF

    def finished(self) -> list[tuple[int, str | None]]:
        """``(index, job_id)`` per ``done`` line received since the last
        call, ``(index, None)`` for a worker whose channel is at EOF.

        Never blocks.  A worker's lines come before its EOF.
        """
        out: list[tuple[int, str | None]] = []
        for index, chan in self.channels.items():
            try:
                data = chan.recv(4096)
            except BlockingIOError:
                continue
            except ConnectionResetError:
                data = b""
            if not data:
                out.append((index, None))
                continue
            *lines, self._partial[index] = (
                self._partial[index] + data
            ).split(b"\n")
            out.extend(
                (index, line.decode().removeprefix("done "))
                for line in lines
            )
        return out

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------
    def alive(self, index: int) -> bool:
        """Whether worker ``index`` is currently running."""
        proc = self.procs.get(index)
        return proc is not None and proc.poll() is None

    def ensure_alive(self, dead: list[int]) -> list[int]:
        """Respawn the workers whose channel is at EOF; returns them."""
        for i in dead:
            self.kill(i)  # reap it: the EOF can precede the exit
            self.deaths += 1
            self.spawn(i)
        return dead

    def kill(self, index: int) -> None:
        """Force-kill one worker (cancellation of its running job)."""
        proc = self.procs.get(index)
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)

    # ------------------------------------------------------------------
    # status surfaces
    # ------------------------------------------------------------------
    def heartbeat(self, index: int) -> dict | None:
        """Worker ``index``'s last heartbeat, or None (torn/missing)."""
        path = self.pool_dir / "hb" / f"pool{index:04d}.json"
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            return None

    def status(self) -> list[dict]:
        """One status dict per worker (for ``/cluster`` and top)."""
        out = []
        for i in range(self.n_workers):
            proc = self.procs.get(i)
            out.append({
                "index": i,
                "host": f"pool-{i:02d}",
                "alive": self.alive(i),
                "pid": proc.pid if proc is not None else None,
                "heartbeat": self.heartbeat(i),
            })
        return out
