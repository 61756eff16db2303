"""Dependency-driven compute-graph runs: how threaded runs step.

Plan first, execute second: :func:`plan_graph` walks a decomposition
plus its per-rank methods and emits the explicit task DAG of ``n``
steps — per-subregion compute/finalize nodes, per-edge ghost-fill and
seam-conversion nodes — as a :class:`TaskGraph` costed from the §7
calibration.  :class:`GraphExecutor` then solves that graph on the
in-process state with a worker pool and a ready heap: no step barrier,
a subregion steps as soon as its own ghost strips are filled, and the
result is bit-for-bit the serial one.  :mod:`repro.graph.stalls` turns
the cost estimates into *named* slow-node reports via the executor's
watchdog.

:class:`~repro.core.ThreadedSimulation` (``repro.run(...,
"threaded")``) plans and solves one graph per ``step(n)`` call;
``tests/graph/test_executor.py`` asserts the overlap gain over any
barriered schedule on an imbalanced synthetic-delay chain.
"""

from .executor import GraphExecutor
from .plan import TaskGraph, TaskNode, plan_graph
from .stalls import StallDetector, StallEvent

__all__ = [
    "plan_graph",
    "TaskGraph",
    "TaskNode",
    "GraphExecutor",
    "StallDetector",
    "StallEvent",
]
