"""Threaded parallel runner: real concurrency inside one process.

:class:`ThreadedSimulation` is a :class:`~repro.core.Simulation` whose
``step(n)`` plans the ``n`` steps as a task graph
(:func:`~repro.core.taskgraph.plan_graph`) and runs it with one worker
thread per subregion and a ready heap.  NumPy's vectorized kernels
release the GIL for their inner loops, so the threads genuinely
overlap on a multi-core machine.

There is no step barrier: a node runs as soon as its dependencies are
done, so a subregion steps the moment its own ghost strips are filled —
the paper's first-come-first-served ``select`` loop taken to its
limit — and fast ranks run ahead of slow ones by however much the
neighbour-only dependency structure allows (one phase of lag per hop).
The planner's dependency edges encode the read/write hazards of the
serial axis sweep, so every execution order performs the identical
arithmetic and the tests assert bit-for-bit equality with
:class:`~repro.core.Simulation`.  On top of the inherited state this
runner adds only a synthetic-load hook (``delay_fn``); global
diagnostics are sampled between ``step`` calls, exactly as on the
serial runner (:meth:`~repro.core.Simulation.global_diagnostics`).
"""

from __future__ import annotations

import heapq
import threading
import time
from typing import Callable, Mapping

import numpy as np

from ..trace import NULL_TRACER
from .decomposition import Decomposition
from .runner import Simulation
from .taskgraph import plan_graph

__all__ = ["ThreadedSimulation"]


class ThreadedSimulation(Simulation):
    """Step a decomposed problem with one thread per subregion.

    Same constructor signature and result semantics as
    :class:`repro.core.Simulation`; ``step(n)`` plans ``n`` steps and
    returns once every worker thread has finished them.
    ``delay_fn(rank, step)`` seconds of synthetic load are slept before
    each rank's first compute phase of each step (the facade builds it
    from the distributed runtime's ``step_delays`` knob); ``step`` is
    the absolute step number, continuing across ``step`` calls.  Delays
    burn wall time only — results are unaffected.
    """

    def __init__(
        self,
        method,
        decomp: Decomposition,
        global_fields: Mapping[str, np.ndarray],
        solid: np.ndarray | None = None,
        tracer=NULL_TRACER,
        converters=None,
        delay_fn: Callable[[int, int], float] | None = None,
    ) -> None:
        super().__init__(method, decomp, global_fields, solid,
                         tracer=tracer, converters=converters)
        self._delay_fn = delay_fn

    def step(self, n: int = 1) -> None:
        """Advance every subregion ``n`` steps, concurrently.

        Raises the first node error; the remaining work is abandoned
        and every worker thread has exited by the time it propagates.
        """
        nodes = plan_graph(
            self.decomp, self.methods, n,
            converter_edges=tuple(sorted(self._converters)),
        ).nodes
        if not nodes:
            return
        # Per-call lookups: resume() swaps the subregions and exchanger.
        subs = {s.block.rank: s for s in self.subs}
        methods = {s.block.rank: m for s, m in zip(self.subs, self.methods)}
        tids = {rank: i for i, rank in enumerate(subs)}
        exchanger = self.exchanger
        ops = {
            (rank, op.axis, op.side): op
            for rank, plan in exchanger.plans.items()
            for op in plan.ops
        }
        phase_fields = self._phase_fields
        compute_names = self._compute_names
        exchange_names = self._exchange_names
        tracer = self.tracer
        delay_fn = self._delay_fn

        # Called from worker threads; the planner's deps guarantee
        # exclusive access to everything each node writes.
        def execute(node) -> None:
            kind = node.kind
            rank = node.rank
            sub = subs[rank]
            # A node runs between its rank's previous finalize and its
            # own, so the subregion's counter is the node's absolute step
            # (the plan numbers steps from 0 in every graph).
            step_no = sub.step
            tid = tids[rank]
            if kind == "compute":
                if node.phase == 0 and delay_fn is not None:
                    delay = delay_fn(rank, step_no)
                    if delay > 0:
                        time.sleep(delay)
                t0 = tracer.begin()
                methods[rank].compute_phase(sub, node.phase)
                tracer.end(compute_names[node.phase], t0,
                           step=step_no, tid=tid)
            elif kind == "finalize":
                t0 = tracer.begin()
                methods[rank].finalize_step(sub)
                tracer.end("finalize:0", t0, step=step_no, tid=tid)
                sub.step += 1
            else:  # seam / exchange / replicate: one ghost fill
                seam = kind == "seam"
                t0 = tracer.begin()
                exchanger.apply(
                    rank, ops[(rank, node.axis, node.side)],
                    () if seam else phase_fields[node.phase][rank],
                )
                tracer.end("seam:0" if seam else exchange_names[node.phase],
                           t0, step=step_no, tid=tid)

        indeg = [len(node.deps) for node in nodes]
        dependents: list[list[int]] = [[] for _ in nodes]
        for node in nodes:
            for d in node.deps:
                dependents[d].append(node.id)
        cond = threading.Condition()
        ready = [node.id for node in nodes if not node.deps]
        heapq.heapify(ready)
        state = {"left": len(nodes), "error": None}

        def worker() -> None:
            nid = None
            while True:
                with cond:
                    if nid is not None:
                        # retire the node just run and release its
                        # dependents; this thread takes the next one, so
                        # only the extra ready nodes need a sleeper woken
                        state["left"] -= 1
                        woken = 0
                        for dep_id in dependents[nid]:
                            indeg[dep_id] -= 1
                            if indeg[dep_id] == 0:
                                heapq.heappush(ready, dep_id)
                                woken += 1
                        if woken > 1:
                            cond.notify(woken - 1)
                    while not ready and state["left"] > 0 \
                            and state["error"] is None:
                        cond.wait()
                    if state["left"] <= 0 or state["error"] is not None:
                        cond.notify_all()
                        return
                    nid = heapq.heappop(ready)
                try:
                    execute(nodes[nid])
                except BaseException as exc:  # propagate to step()
                    with cond:
                        if state["error"] is None:
                            state["error"] = exc
                        cond.notify_all()
                    return

        threads = [
            threading.Thread(target=worker, name=f"repro-graph{i}",
                             daemon=True)
            for i in range(len(subs))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if state["error"] is not None:
            raise state["error"]
