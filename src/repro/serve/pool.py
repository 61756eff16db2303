"""The persistent worker-process pool behind the gateway.

Spawning reuses the distributed runtime's submit machinery verbatim:
the same absolutized-``PYTHONPATH`` environment
(:func:`repro.distrib.submit._worker_env`) and the same append-mode log
files.  Each pool worker is named as a virtual ``pool-<i>`` host in its
status (the HOST column of `repro top`).

Each worker is connected to the gateway by one ``socketpair``: job ids
go out a line each (:meth:`WorkerPool.send`), one ``ready`` line (the
worker is warm) and then ``done <job_id>`` lines come back
(:meth:`WorkerPool.finished`).  Each end is held by one process only,
so either side's death, however it happens, is EOF on the other: the
gateway respawns the worker (:meth:`ensure_alive`), a worker exits.
What crosses the socket is all the pool knows of a worker's state, and
all it needs: :meth:`WorkerPool.heartbeat` reads it from memory.
"""

from __future__ import annotations

import socket
import subprocess
import sys
import time
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
        #: per worker: {state, job, jobs_done, wall}, fed by the channel
        self._state: dict[int, dict] = {}
        self.deaths = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn every worker."""
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
        self._state[index] = {"state": "starting", "job": None,
                              "jobs_done": 0, "wall": time.time()}
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
    def _note(self, index: int, **change) -> None:
        """Update worker ``index``'s state; ``wall`` is when it began."""
        self._state[index] = {**self._state[index], **change,
                              "wall": time.time()}  # wall stamp

    def send(self, index: int, job_id: str) -> None:
        """Hand worker ``index`` one job."""
        if self._state[index]["state"] == "starting":
            self._note(index, job=job_id)  # it runs once the worker is warm
        else:
            self._note(index, state="running", job=job_id)
        try:
            self.channels[index].sendall(f"{job_id}\n".encode())
        except (BrokenPipeError, ConnectionResetError):
            pass  # the worker is dead: finished() reports its EOF

    def finished(self) -> list[tuple[int, str | None]]:
        """``(index, job_id)`` per ``done`` line received since the last
        call, ``(index, None)`` for a worker whose channel is at EOF.

        Never blocks.  A worker's lines come before its EOF.  A
        ``ready`` line only marks the worker warm.
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
            for line in lines:
                if line == b"ready":
                    job = self._state[index]["job"]
                    self._note(index, state="running" if job else "idle")
                    continue
                job_id = line.decode().removeprefix("done ")
                done = self._state[index]["jobs_done"] + 1
                self._note(index, state="idle", job=None, jobs_done=done)
                out.append((index, job_id))
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
        """Worker ``index``'s ``{state, job, jobs_done, wall}``, or None
        until it is warm."""
        state = self._state.get(index)
        if state is None or state["state"] == "starting":
            return None
        return state

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
