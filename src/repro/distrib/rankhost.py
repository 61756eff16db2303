"""The rank host: one preloaded interpreter that forks every rank.

Paper §4.1's job-submit program "begins a parallel subprocess on each
workstation", and §5 starts one again on every migration and restart.
A fresh interpreter per rank spends ~0.3 s importing numpy and the
worker's modules before its first step, about half the wall time of a
short two-rank run.  So each submitting interpreter starts one rank host
(``python -m repro.distrib.rankhost``) on its first spawn.  The host
imports the worker's import closure once (:func:`preload`) and then
forks one child per rank request.

A child closes the host's pipes, applies the request's environment,
``cwd`` and ``logs/rank%04d.stdout`` redirection, and runs the unchanged
:func:`repro.distrib.worker.main`.  It then flushes and leaves with
``os._exit``, skipping interpreter teardown.  The host reaps its
children with ``os.wait4`` and reports each one's pid, exit code and
peak resident set on its stdout (:func:`encode_report`).
:class:`RankProcess` is the submitter's handle on a forked rank: the
subset of :class:`subprocess.Popen` the monitor and
:func:`~repro.distrib.submit.submit_all` use, with ``Popen``'s exit
codes (``-9`` for SIGKILL).

Lifetime: the host is stopped and reaped when its submitter exits
(``atexit``).  On EOF of its request pipe (a submitter that died
however it died) the host kills every rank still running and exits, and
each rank dies with its host (``PR_SET_PDEATHSIG``).  A host that died
is replaced on the next spawn; its unreported ranks read as killed, so
the monitor's checkpoint restart handles them.

The host is a fresh interpreter rather than a fork of the submitter: a
fork would inherit the submitter's sockets, threads, signal handlers and
resident set.  ``multiprocessing``'s forkserver is no substitute either:
it re-executes the submitter's ``__main__``.  The host itself runs one
thread; numpy's OpenBLAS pool, started by the preload, stops its threads
in its own fork handler, so every fork happens single-threaded.
"""

from __future__ import annotations

import atexit
import errno
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass

__all__ = [
    "RankHost",
    "RankProcess",
    "Report",
    "ReportDamaged",
    "encode_report",
    "fork_rank",
    "parse_report",
    "preload",
]

#: the command that starts a rank host
HOST_ARGV = (sys.executable, "-m", "repro.distrib.rankhost")

#: Signals the host holds blocked: a terminal's Ctrl-C or a user's
#: ``kill -USR2`` aimed at the run must not end the host.  A child
#: unblocks SIGINT; SIGUSR2 stays blocked until
#: :func:`repro.distrib.worker.main` has its catcher in place, so a
#: migration request that lands in between waits instead of killing it.
HOST_BLOCKED = frozenset({signal.SIGINT, signal.SIGUSR2})

#: ``kind a b c crc32``: ``started pid 0 0``, ``exited pid code
#: maxrss_kb`` or ``failed errno 0 0``
REPORT_KINDS = ("started", "exited", "failed")
#: longer than any valid report: three 20-digit fields and the kind
MAX_REPORT = 96

#: seconds a spawn waits for the host's reply
SPAWN_TIMEOUT = 60.0

#: ``prctl`` option that signals a child when its parent dies (Linux)
_PR_SET_PDEATHSIG = 1


class ReportDamaged(ValueError):
    """A host report line that is not one whole, valid report."""


@dataclass(frozen=True)
class Report:
    """One line of the host's report stream."""

    kind: str
    #: the rank's pid; the errno of a ``failed`` request
    pid: int
    code: int = 0
    #: peak resident set of an exited rank, in KiB (``ru_maxrss``)
    maxrss_kb: int = 0


def encode_report(report: Report) -> bytes:
    """One report line, ending in the CRC32 of its own text."""
    body = b"%s %d %d %d " % (
        report.kind.encode(), report.pid, report.code, report.maxrss_kb
    )
    return b"%s%08x\n" % (body, zlib.crc32(body))


def parse_report(line: bytes) -> Report:
    """The report ``line`` encodes, or :class:`ReportDamaged`.

    A line is accepted only in its canonical form: it must re-encode to
    itself, so a flipped digit, a torn tail or foreign bytes all fail.
    """
    if len(line) > MAX_REPORT or not line.endswith(b"\n"):
        raise ReportDamaged(f"not a whole report line: {line[:MAX_REPORT]!r}")
    parts = line.split(b" ")
    try:
        if len(parts) != 5:
            raise ValueError("wrong field count")
        kind = parts[0].decode("ascii")
        if kind not in REPORT_KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        report = Report(kind, *(int(p) for p in parts[1:4]))
    except ValueError as exc:  # UnicodeDecodeError is a ValueError
        raise ReportDamaged(f"{line!r}: {exc}") from None
    if encode_report(report) != line:
        raise ReportDamaged(f"{line!r}: checksum or form does not match")
    return report


# ----------------------------------------------------------------------
# the host process
# ----------------------------------------------------------------------
def preload() -> None:
    """Import what a rank runs: numpy and the worker's import closure."""
    from . import worker  # noqa: F401


def _set_pdeathsig():
    """A callable that makes the caller die with its parent, or ``None``
    where the C library has no ``prctl``."""
    try:
        import ctypes

        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):  # pragma: no cover - not Linux
        return None
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    return lambda: prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)


def _run_rank(request: dict, host_pid: int, host_fds, pdeathsig) -> None:
    """The forked child: become the rank ``request`` asks for, run it,
    and leave with its exit code.  Never returns."""
    code = 1
    try:
        if pdeathsig is not None:
            pdeathsig()
        if os.getppid() != host_pid:
            os._exit(1)  # the host died before the death signal was set
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGCHLD, signal.SIG_DFL)
        for fd in host_fds:
            os.close(fd)
        # the host's request and report pipes, 0 and 1, are replaced
        null = os.open(os.devnull, os.O_RDONLY)
        os.dup2(null, 0)
        os.close(null)
        log = os.open(request["log"],
                      os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        os.dup2(log, 1)
        os.dup2(log, 2)
        os.close(log)
        os.chdir(request["cwd"])
        # what ``python -m`` started in this directory would see
        sys.path[0] = os.getcwd()
        os.environ.clear()
        os.environ.update(request["env"])
        signal.pthread_sigmask(signal.SIG_SETMASK, {signal.SIGUSR2})
        from . import worker

        code = worker.main([request["cfg"]])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except BaseException:
        import traceback

        traceback.print_exc()
        raise  # to the finally below, which leaves with code 1
    finally:
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except (OSError, ValueError):
                pass
        os._exit(code)


def _report(report: Report) -> None:
    os.write(1, encode_report(report))


def _reap(children: set[int]) -> None:
    """Report every child that has exited."""
    while children:
        try:
            pid, status, usage = os.wait4(-1, os.WNOHANG)
        except ChildProcessError:  # pragma: no cover - bookkeeping drift
            children.clear()
            return
        if pid == 0:
            return
        children.discard(pid)
        _report(Report("exited", pid, os.waitstatus_to_exitcode(status),
                       usage.ru_maxrss))


def main() -> int:
    """Serve rank requests, one JSON line each on stdin, until EOF."""
    preload()
    pdeathsig = _set_pdeathsig()
    signal.pthread_sigmask(signal.SIG_BLOCK, HOST_BLOCKED)
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_r, False)
    os.set_blocking(wake_w, False)
    signal.set_wakeup_fd(wake_w)
    signal.signal(signal.SIGCHLD, lambda signum, frame: None)
    host_pid = os.getpid()
    children: set[int] = set()
    pending = b""
    try:
        while True:
            ready, _, _ = select.select([0, wake_r], [], [])
            if wake_r in ready:
                os.read(wake_r, 4096)
            _reap(children)
            if 0 not in ready:
                continue
            chunk = os.read(0, 1 << 16)
            if not chunk:
                return 0
            pending += chunk
            *lines, pending = pending.split(b"\n")
            for line in lines:
                try:
                    request = json.loads(line)
                    pid = os.fork()
                except (ValueError, OSError) as exc:
                    _report(Report("failed",
                                   getattr(exc, "errno", None) or errno.EINVAL))
                    continue
                if pid == 0:
                    _run_rank(request, host_pid, (wake_r, wake_w), pdeathsig)
                children.add(pid)
                _report(Report("started", pid))
    except BrokenPipeError:
        return 0  # the submitter is gone
    finally:
        # no rank outlives its host
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:  # pragma: no cover - raced its exit
                pass
        for pid in children:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # pragma: no cover
                pass


# ----------------------------------------------------------------------
# the submitter's side
# ----------------------------------------------------------------------
class RankProcess:
    """A forked rank, as the submitter sees it.

    The subset of :class:`subprocess.Popen` the monitor and
    :func:`~repro.distrib.submit.submit_all` use; :attr:`returncode`
    follows ``Popen`` (negative: killed by that signal).
    """

    def __init__(self, host: RankHost, pid: int) -> None:
        self._host = host
        self.pid = pid
        self.returncode: int | None = None
        #: peak resident set in KiB, once its host reported the exit
        self.maxrss_kb: int | None = None

    def poll(self) -> int | None:
        if self.returncode is None:
            self._host.collect(0.0)
        return self.returncode

    def wait(self, timeout: float | None = None) -> int:
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.poll() is None:
            left = None if deadline is None else deadline - time.monotonic()
            if left is not None and left <= 0:
                raise subprocess.TimeoutExpired(f"rank pid {self.pid}",
                                                timeout)
            self._host.collect(left)
        return self.returncode

    def send_signal(self, sig: int) -> None:
        if self.poll() is None:
            try:
                os.kill(self.pid, sig)
            except ProcessLookupError:  # exited, not yet reported
                pass

    def kill(self) -> None:
        self.send_signal(signal.SIGKILL)


class RankHost:
    """The submitter's end of one rank host process."""

    def __init__(self, env: dict[str, str], argv=HOST_ARGV) -> None:
        self._proc = subprocess.Popen(
            list(argv), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=env, bufsize=0,
        )
        self._reports = self._proc.stdout.fileno()
        os.set_blocking(self._reports, False)
        self._lock = threading.Lock()
        self._pending = b""
        #: started here, exit not yet reported
        self._running: dict[int, RankProcess] = {}
        self.pid = self._proc.pid
        self.dead = False

    def alive(self) -> bool:
        return not self.dead and self._proc.poll() is None

    def spawn(self, request: dict) -> RankProcess:
        """Fork one rank; raises :class:`OSError` if the host could not
        (``self.dead`` tells whether the host died meanwhile)."""
        with self._lock:
            try:
                self._proc.stdin.write(json.dumps(request).encode() + b"\n")
            except (BrokenPipeError, ValueError):
                self._died()
            reply: RankProcess | Report | None = None
            deadline = time.monotonic() + SPAWN_TIMEOUT
            while reply is None and not self.dead:
                left = deadline - time.monotonic()
                if left <= 0:
                    self._proc.kill()  # silent: replace it, never hang
                    self._died()
                    break
                # one request is outstanding: the one started/failed
                # report is its reply, exits of other ranks interleave
                for report in self._read(left):
                    if report.kind == "exited":
                        self._exited(report)
                    elif report.kind == "started":
                        reply = RankProcess(self, report.pid)
                        self._running[report.pid] = reply
                    else:
                        reply = report
            if isinstance(reply, RankProcess):
                return reply
            if reply is None:
                raise OSError(errno.ECHILD,
                              "the rank host died or stopped answering")
            raise OSError(reply.pid, os.strerror(reply.pid))

    def collect(self, timeout: float | None) -> None:
        """Apply the exit reports that arrive within ``timeout``."""
        with self._lock:
            if not self.dead:
                for report in self._read(timeout):
                    self._exited(report)

    def _read(self, timeout: float | None) -> list[Report]:
        """The reports available now, or after waiting up to
        ``timeout``; a damaged one raises :class:`ReportDamaged`."""
        if b"\n" not in self._pending:
            ready, _, _ = select.select([self._reports], [], [], timeout)
            if ready:
                chunk = os.read(self._reports, 1 << 16)
                if not chunk:
                    self._died()
                    return []
                self._pending += chunk
        *lines, self._pending = self._pending.split(b"\n")
        return [parse_report(line + b"\n") for line in lines]

    def _exited(self, report: Report) -> None:
        proc = self._running.pop(report.pid, None)
        if proc is not None:
            proc.maxrss_kb = report.maxrss_kb
            proc.returncode = report.code

    def _died(self) -> None:
        """The host is gone: every unreported rank died with it."""
        self.dead = True
        for proc in self._running.values():
            proc.returncode = -signal.SIGKILL
        self._running.clear()
        self.stop()

    def stop(self, timeout: float = 10.0) -> None:
        """Close the request pipe (the host kills its ranks and exits)
        and reap the host."""
        for pipe in (self._proc.stdin, self._proc.stdout):
            try:
                pipe.close()
            except OSError:  # pragma: no cover
                pass
        try:
            self._proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:  # pragma: no cover
            self._proc.kill()
            self._proc.wait()


_host: RankHost | None = None
_host_lock = threading.Lock()


def _stop_host() -> None:
    if _host is not None:
        _host.stop()


def fork_rank(request: dict) -> RankProcess:
    """Fork one rank from this interpreter's rank host.

    ``request`` names the rank's config file (``cfg``), working
    directory (``cwd``), log file (``log``) and environment (``env``).
    The host starts on the first call and is replaced, once per call, if
    it died; the environment it starts with is the first request's.
    """
    global _host
    with _host_lock:
        for retry in (False, True):
            if _host is None:
                atexit.register(_stop_host)
            if _host is None or not _host.alive():
                _host = RankHost(request["env"])
            try:
                return _host.spawn(request)
            except OSError:
                if retry or not _host.dead:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":
    # nothing to flush: reports go out unbuffered, so skip the teardown
    # its submitter's exit would otherwise wait for
    os._exit(main())
