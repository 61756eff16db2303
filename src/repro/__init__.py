"""repro — reproduction of Skordos (HPDC 1995).

Parallel simulation of subsonic fluid dynamics on a cluster of
workstations: domain-decomposed explicit finite differences and lattice
Boltzmann solvers, a TCP/IP-distributed runtime with automatic process
migration and adaptive load rebalancing (:mod:`repro.balance`), a
discrete-event cluster simulator reproducing the paper's efficiency
measurements, and the theoretical efficiency model.

The one-call entry point is :func:`repro.run`, which marches a
:class:`~repro.distrib.ProblemSpec` on any of the backends and
returns a :class:`repro.RunResult`; :mod:`repro.trace` is the
phase-level tracing layer shared by all of them,
:mod:`repro.graph` plans a threaded run as an explicit task DAG and
drives it dependency-first (no step barrier), and :mod:`repro.serve`
puts the same machinery behind a single-host job gateway with a
result cache (job queue, worker pool, live cluster view).

Every export here and in the subpackages is lazy (:mod:`repro._lazy`):
``import repro`` loads no subpackage, and ``repro.run`` or
``repro.serve.Gateway`` imports its module on first use.  Rank
workers, pool workers and the CLI are fresh interpreters, so each one
pays only for the subsystems it actually runs.
"""

from ._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "balance": "balance",
    "chaos": "chaos",
    "cluster": "cluster",
    "core": "core",
    "distrib": "distrib",
    "fluids": "fluids",
    "graph": "graph",
    "harness": "harness",
    "net": "net",
    "serve": "serve",
    "trace": "trace",
    "viz": "viz",
    "BACKENDS": "facade",
    "RunResult": "facade",
    "run": "facade",
})

__version__ = "1.0.0"

__all__ = [
    "core",
    "fluids",
    "net",
    "distrib",
    "cluster",
    "balance",
    "chaos",
    "graph",
    "harness",
    "serve",
    "trace",
    "viz",
    "run",
    "RunResult",
    "BACKENDS",
    "__version__",
]
