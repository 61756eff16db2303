"""One persistent pool worker process: ``python -m repro.serve.pool_worker``.

The gateway sends job ids, one per line, over a socket whose fd number
is the last argument; the worker runs each through :func:`repro.run`
inside its own long-lived interpreter — so a stream of small 2D jobs
pays interpreter/import startup once.  It answers one ``ready`` line
once its imports are done (the warm-pool signal), then ``done <job_id>``
once each job's commit file is written; the gateway knows the worker's
state from these lines alone.  Large jobs fan out through the normal
distributed path (the worker plays the paper's designated submit
workstation).  Results go through the filesystem:

* ``jobs/<id>/result.json`` + ``fields.npz`` — success artifacts,
  written atomically, result last (the commit point);
* ``jobs/<id>/error.json`` — a deterministic failure (no retry).

The worker exits on EOF: the gateway closed its end, or died.  A worker
death (crash, chaos kill, OOM) leaves no result and is EOF on the
gateway's end, which respawns the process and requeues its job — the
detect-and-restart contract the distributed monitor implements for
rank processes.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import socket
import sys
import time
import traceback
from pathlib import Path

__all__ = ["main", "run_job", "WARM_MODULES"]

#: Every module :func:`run_job` executes for a local (serial or
#: threaded) job, imported before the ``ready`` line.
WARM_MODULES = (
    "numpy",
    "repro.facade",
    "repro.core.runner",
    "repro.core.threaded",
    "repro.distrib.spec",
    "repro.distrib.orchestrator",
    "repro.distrib.initprog",
    "repro.fluids.fused",
)


def _atomic_write(path: Path, payload: dict) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
    os.replace(tmp, path)


def _reply(chan: socket.socket, line: str) -> bool:
    """Send the gateway one line; False once it is gone."""
    try:
        chan.sendall(f"{line}\n".encode())
    except (BrokenPipeError, ConnectionResetError):
        return False
    return True


def run_job(serve_dir: Path, job_id: str, worker_index: int) -> None:
    """Execute one job from its ``job.json`` and commit the artifacts.

    Idempotent across retries: a half-written ``run/`` directory from a
    previous incarnation is discarded before starting over.
    """
    import numpy as np

    import repro

    from ..distrib.orchestrator import RunSettings
    from ..distrib.spec import ProblemSpec

    job_dir = serve_dir / "jobs" / job_id
    req = json.loads((job_dir / "job.json").read_text())
    try:
        spec = ProblemSpec.from_json(json.dumps(req["spec"]))
        settings = RunSettings.from_knobs(req.get("settings", {}))
        settings.job_id = job_id
        backend = req.get("backend", "serial")
        seed = int(req.get("seed", 0))
        # The seed is part of the cache fingerprint, so it must also be
        # part of the computation: seed 0 is the canonical start (the
        # spec's declarative init, rest by default, which repro.run
        # resolves itself), any other seed perturbs the initial density
        # reproducibly (the "random" init program of paper §4.1).
        fields = None
        if seed:
            from ..distrib.initprog import initial_fields

            fields = initial_fields(spec, "random", seed=seed)
        rundir = job_dir / "run"
        if rundir.exists():
            shutil.rmtree(rundir)  # retry after a worker death
        if backend != "distributed":
            # DistributedRun insists on creating an empty dir itself.
            rundir.mkdir(parents=True)
        t0 = time.perf_counter()
        result = repro.run(
            spec, backend, settings, workdir=rundir, fields=fields
        )
        elapsed = time.perf_counter() - t0
        fields = result.fields or {}
        tmp = job_dir / "fields.tmp.npz"
        np.savez(tmp, **fields)
        os.replace(tmp, job_dir / "fields.npz")
        _atomic_write(job_dir / "result.json", {
            "job_id": job_id,
            "backend": backend,
            "steps": result.steps,
            "elapsed": result.elapsed,
            "wall_elapsed": elapsed,
            "worker": worker_index,
            "n_diagnostics": len(result.diagnostics),
            "utilization": result.utilization,
            "migrations": result.migrations,
            "rebalances": result.rebalances,
            "trace_path": str(result.trace_path)
            if result.trace_path else None,
        })
    except Exception:  # noqa: BLE001 - reported to the scheduler as-is
        _atomic_write(job_dir / "error.json", {
            "job_id": job_id,
            "worker": worker_index,
            "error": traceback.format_exc(limit=20),
        })


def main(argv: list[str] | None = None) -> int:
    """Run the jobs read from the channel until it reaches EOF."""
    argv = sys.argv[1:] if argv is None else argv
    serve_dir = Path(argv[0]).resolve()
    index = int(argv[1])
    chan = socket.socket(fileno=int(argv[2]))
    # The "ready" line below is the warm-pool signal, so the imports a
    # job runs are paid here, at spawn, not by the first job
    # (``import repro`` alone loads nothing: it is lazy).
    for name in WARM_MODULES:
        importlib.import_module(name)
    with chan, chan.makefile("rb") as lines:
        if not _reply(chan, "ready"):
            return 0  # the gateway is gone
        for line in lines:
            job_id = line.decode().strip()
            run_job(serve_dir, job_id, index)
            if not _reply(chan, f"done {job_id}"):
                break  # the gateway is gone
    return 0


if __name__ == "__main__":
    sys.exit(main())
