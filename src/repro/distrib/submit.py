"""The job-submit program (paper §4.1).

"The job-submit program finds free workstations in the cluster, and
begins a parallel subprocess on each workstation.  It provides each
process with a dump file that specifies one subregion of the problem.
The processes execute the same program on different data."

Host selection implements the paper's two-group strategy via
:meth:`repro.distrib.hostdb.HostDB.select_free`.  The "remote start" is
a local process tagged with the virtual host name (the substitution
documented in DESIGN.md — every control-plane mechanism is real, only
the machine boundary is virtual): a fork of the submitter's preloaded
rank host (:mod:`repro.distrib.rankhost`), not a fresh interpreter, so a
start, migration or restart does not pay the imports again.
"""

from __future__ import annotations

import os
import subprocess
from pathlib import Path
from typing import TYPE_CHECKING

from .hostdb import HostDB

if TYPE_CHECKING:
    from .rankhost import RankProcess
    from .worker import WorkerConfig

__all__ = ["spawn_worker", "submit_all"]


def _worker_env() -> dict[str, str]:
    """Environment for a worker process.

    Workers run with their working directory as ``cwd``, so relative
    ``PYTHONPATH`` entries inherited from the submitting process (for
    example ``PYTHONPATH=src`` from the test harness) would silently
    stop resolving and every worker would die on ``import repro`` —
    absolutize them against the *submitter's* cwd, and keep the
    directory providing :mod:`repro` itself importable from anywhere.
    """
    env = dict(os.environ)
    entries = [
        str(Path(p).resolve())
        for p in env.get("PYTHONPATH", "").split(os.pathsep)
        if p
    ]
    pkg_root = str(Path(__file__).resolve().parents[2])
    if pkg_root not in entries:
        entries.append(pkg_root)
    env["PYTHONPATH"] = os.pathsep.join(entries)
    return env


def spawn_worker(cfg: WorkerConfig) -> RankProcess:
    """Start one parallel subprocess from its config file."""
    from . import rankhost

    cfg_path = cfg.path(cfg.workdir, cfg.rank)
    cfg_path.write_text(cfg.to_json())
    log_dir = Path(cfg.workdir) / "logs"
    log_dir.mkdir(parents=True, exist_ok=True)
    return rankhost.fork_rank({
        "cfg": str(cfg_path),
        "cwd": str(cfg.workdir),
        "log": str(log_dir / f"rank{cfg.rank:04d}.stdout"),
        "env": _worker_env(),
    })


def submit_all(
    workdir: str | Path,
    hostdb: HostDB,
    n_ranks: int,
    base_cfg: dict,
) -> dict[int, RankProcess]:
    """Select free hosts for every rank and start the workers.

    ``base_cfg`` carries the common :class:`WorkerConfig` fields
    (steps_total, save_every, ...); per-rank fields are filled here.

    Submission is all-or-nothing: if spawning any rank fails, the
    already-started workers are killed and every host assignment made
    here is rolled back before the error propagates, so the host
    table never records ranks of a run that does not exist.
    """
    from .worker import WorkerConfig

    workdir = Path(workdir)
    hosts = hostdb.select_free(n_ranks)
    procs: dict[int, RankProcess] = {}
    assigned: list[str] = []
    try:
        for rank, host in enumerate(hosts):
            hostdb.assign(host.name, rank)
            assigned.append(host.name)
            cfg = WorkerConfig(
                workdir=str(workdir),
                rank=rank,
                host=host.name,
                generation=0,
                **base_cfg,
            )
            procs[rank] = spawn_worker(cfg)
    except BaseException:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
        for proc in procs.values():
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                pass
        for name in assigned:
            hostdb.assign(name, None)
        raise
    return procs
