"""Simulation-as-a-service: the multi-tenant job layer over `repro.run`.

The facade runs one spec at a time; this package turns the same
machinery into a service that runs *hundreds* — the production leap the
ROADMAP's north star asks for:

* :mod:`~repro.serve.gateway` — a stdlib asyncio HTTP/JSON gateway
  accepting specs, streaming diagnostics live over chunked HTTP;
* :mod:`~repro.serve.hashing` — canonical content hashing of
  ``(spec, settings, seed)``, the result-cache key;
* :mod:`~repro.serve.cache` — the content-addressed result cache
  (identical submission → cached fields, zero recompute, survives
  restarts);
* :mod:`~repro.serve.jobs` — job records, the queued → running →
  done/failed/cancelled state machine, and the append-only JSONL
  history store every restart replays;
* :mod:`~repro.serve.scheduler` / :mod:`~repro.serve.pool` /
  :mod:`~repro.serve.pool_worker` — the priority queue draining into a
  persistent pool of worker processes (one job in flight per worker,
  sent over its socket; large jobs through the distributed path;
  retry-on-worker-death);
* :mod:`~repro.serve.client` / :mod:`~repro.serve.top` — the blocking
  client the CLI and ``backend="service"`` use, and the live cluster
  view.
"""

from .cache import ResultCache
from .client import ServeClient, discover
from .gateway import Gateway
from .hashing import canonical_request, fingerprint
from .jobs import STATES, TERMINAL, TRANSITIONS, JobHistory, JobRecord
from .pool import WorkerPool
from .scheduler import Scheduler
from .top import render, watch

__all__ = [
    "Gateway",
    "JobHistory",
    "JobRecord",
    "ResultCache",
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
