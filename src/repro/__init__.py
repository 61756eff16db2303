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
"""

from . import balance, chaos, cluster, core, distrib, fluids, graph, \
    harness, net, serve, trace, viz
from .facade import BACKENDS, RunResult, run

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
