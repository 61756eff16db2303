"""Dependency-driven compute-graph runs (ROADMAP item 5).

Plan first, execute second: :func:`plan_graph` walks a decomposition
plus its per-rank methods and emits the explicit task DAG one run
implies — per-subregion compute/finalize nodes, per-edge ghost-fill
and seam-conversion nodes, periodic collective and checkpoint nodes —
as a serializable :class:`TaskGraph` costed from the §7 calibration
(or live :class:`~repro.balance.LoadEstimator` speeds).
:class:`GraphExecutor` then solves that graph on the real in-process
runtime with a worker pool and a ready heap: no BSP barrier, a
subregion steps as soon as its own ghost strips are filled, and the
result is bit-for-bit the serial one.  :mod:`repro.graph.stalls`
turns the cost estimates into *named* slow-rank reports — in-process
via the executor's watchdog, distributed via worker heartbeats
replayed by the monitor.

The facade front door is ``RunSettings(execution="graph")`` with
``backend="threaded"`` (or ``"distributed"``, where workers consume
per-rank graph slices and the monitor reports graph stalls);
``tests/graph/test_executor.py`` asserts the overlap gain over the
barriered runner on an imbalanced synthetic-delay chain.
"""

from .executor import GraphExecutor
from .plan import GRAPH_SCHEMA_VERSION, TaskGraph, TaskNode, plan_graph
from .stalls import (
    HeartbeatStallDetector,
    StallDetector,
    StallEvent,
)

__all__ = [
    "plan_graph",
    "TaskGraph",
    "TaskNode",
    "GraphExecutor",
    "StallDetector",
    "HeartbeatStallDetector",
    "StallEvent",
    "GRAPH_SCHEMA_VERSION",
]
