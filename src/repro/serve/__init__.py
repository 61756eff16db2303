"""Simulation-as-a-service: the multi-tenant job layer over `repro.run`.

The facade runs one spec at a time; this package turns the same
machinery into a service that runs *hundreds* — the production leap the
ROADMAP's north star asks for:

* :mod:`~repro.serve.gateway` — a stdlib asyncio HTTP/JSON gateway
  accepting specs, streaming diagnostics live over chunked HTTP;
* :mod:`~repro.serve.hashing` — canonical content hashing of
  ``(spec, settings, seed)``, the result-cache key;
* :mod:`~repro.serve.jobs` — job records, the queued → running →
  done/failed/cancelled state machine, and the append-only JSONL
  history store every restart replays;
* :mod:`~repro.serve.scheduler` / :mod:`~repro.serve.pool` /
  :mod:`~repro.serve.pool_worker` — the priority queue draining into a
  persistent pool of worker processes (one job in flight per worker,
  sent over its socket; large jobs through the distributed path;
  retry-on-worker-death), and the result cache: an index from request
  fingerprint to the job that computed it, rebuilt from the history on
  restart (identical submission → that job's fields, zero recompute);
* :mod:`~repro.serve.client` / :mod:`~repro.serve.top` — the blocking
  client the CLI and ``backend="service"`` use, and the live cluster
  view.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "ServeClient": "client",
    "discover": "client",
    "Gateway": "gateway",
    "canonical_request": "hashing",
    "fingerprint": "hashing",
    "STATES": "jobs",
    "TERMINAL": "jobs",
    "TRANSITIONS": "jobs",
    "JobHistory": "jobs",
    "JobRecord": "jobs",
    "WorkerPool": "pool",
    "Scheduler": "scheduler",
    "render": "top",
    "watch": "top",
})

__all__ = [
    "Gateway",
    "JobHistory",
    "JobRecord",
    "Scheduler",
    "ServeClient",
    "STATES",
    "TERMINAL",
    "TRANSITIONS",
    "WorkerPool",
    "canonical_request",
    "discover",
    "fingerprint",
    "render",
    "watch",
]
