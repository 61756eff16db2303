"""Threaded parallel runner: real concurrency inside one process.

:class:`ThreadedSimulation` is a :class:`~repro.core.Simulation` whose
``step(n)`` plans the ``n`` steps as a task graph
(:func:`repro.graph.plan_graph`) and solves it on a
:class:`~repro.graph.GraphExecutor` with one worker thread per
subregion.  NumPy's vectorized kernels release the GIL for their inner
loops, so the threads genuinely overlap on a multi-core machine.

There is no step barrier: a node runs as soon as its dependencies are
done, so a subregion steps the moment its own ghost strips are filled —
the paper's first-come-first-served ``select`` loop taken to its
limit.  The planner's dependency edges encode the read/write
hazards of the serial axis sweep, so every execution order performs
the identical arithmetic and the tests assert bit-for-bit equality
with :class:`~repro.core.Simulation`.  On top of the inherited state
this runner adds only the per-rank synthetic load
(``step_delays``/``delay_fn``); global diagnostics are sampled between
``step`` calls, exactly as on the serial runner
(:meth:`~repro.core.Simulation.global_diagnostics`).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..trace import NULL_TRACER
from .decomposition import Decomposition
from .runner import Simulation

__all__ = ["ThreadedSimulation"]


class ThreadedSimulation(Simulation):
    """Step a decomposed problem with one thread per subregion.

    Same constructor signature and result semantics as
    :class:`repro.core.Simulation`; ``step(n)`` plans ``n`` steps and
    returns once every worker thread has finished them.
    ``step_delays[rank] + delay_fn(rank, step)`` seconds of synthetic
    load are slept before each rank's first compute phase of each
    step (the distributed runtime's ``step_delays`` knob); ``step`` is
    the absolute step number, continuing across ``step`` calls.
    """

    def __init__(
        self,
        method,
        decomp: Decomposition,
        global_fields: Mapping[str, np.ndarray],
        solid: np.ndarray | None = None,
        tracer=NULL_TRACER,
        converters=None,
        step_delays=None,
        delay_fn=None,
    ) -> None:
        super().__init__(method, decomp, global_fields, solid,
                         tracer=tracer, converters=converters)
        self._step_delays = list(step_delays or [])
        self._delay_fn = delay_fn

    def step(self, n: int = 1) -> None:
        """Advance every subregion ``n`` steps, concurrently."""
        # repro.graph imports core, so it is imported on first use
        from ..graph import GraphExecutor, plan_graph

        graph = plan_graph(
            self.decomp, self.methods, n,
            converter_edges=tuple(sorted(self._converters)),
        )
        GraphExecutor(
            self, graph,
            step_delays=self._step_delays, delay_fn=self._delay_fn,
        ).run()
