"""Dependency-driven execution of a planned :class:`TaskGraph`.

A barriered runner advances every subregion in lockstep: compute,
barrier, exchange, barrier — so one slow rank stalls the whole step.
This executor instead walks the planned DAG with a pool of worker
threads and a ready heap: a node runs the moment its dependencies are
done, so a subregion steps as soon as *its own* ghost strips for step
``t`` are filled (the paper's first-come-first-served ``select`` loop,
taken to its limit), and fast ranks run ahead of slow ones by however
much the neighbour-only dependency structure allows (one phase of lag
per hop).  It is how :class:`~repro.core.ThreadedSimulation` steps.

Because the planner's dependency edges encode the complete read/write
hazard analysis of the axis-sweep exchange, *any* execution order the
heap produces performs the identical floating-point operations on the
identical data — runs are bit-for-bit equal to the serial
:class:`~repro.core.Simulation`, which the test suite asserts for FD,
LB and hybrid seam problems in 2D and 3D.

A watchdog thread applies the :class:`~repro.graph.stalls.StallDetector`
rule (ready for > N× estimated cost and unfinished) and emits one
``graph:stall:<label>`` trace span per event, so a deliberately slowed
rank shows up by name in the Chrome trace instead of as anonymous
waits.
"""

from __future__ import annotations

import heapq
import threading
import time
from typing import Callable, Sequence

from .plan import TaskGraph
from .stalls import STALL_FACTOR, STALL_FLOOR, StallDetector, StallEvent

__all__ = ["GraphExecutor"]

_WATCHDOG_POLL = 0.01


class GraphExecutor:
    """Run a planned graph on a :class:`~repro.core.Simulation`'s state.

    Parameters
    ----------
    sim:
        A built (or checkpoint-resumed) :class:`~repro.core.Simulation`;
        the executor mutates its subregions in place and leaves it in
        exactly the state the same number of serial ``sim.step()``
        calls would have produced.
    graph:
        The plan for this decomposition/method set, from
        :func:`repro.graph.plan_graph`.
    n_workers:
        Worker threads; defaults to one per subregion (NumPy kernels
        release the GIL, so threads genuinely overlap).
    delay_fn, step_delays:
        Synthetic-load injection, applied at each rank's first compute
        phase of each step: ``step_delays[rank]`` seconds every step
        (the distributed runtime's imbalance knob) plus
        ``delay_fn(rank, step)`` seconds (a jitter schedule).  ``step``
        is the subregion's absolute step number, as in trace spans, so
        a run split over several graphs sees one continuous count.
        Delays burn wall time only — results are unaffected.
    stall_factor, stall_floor:
        The stall rule: a node ready for more than
        ``factor × cost + floor`` seconds without finishing is
        reported (and traced as ``graph:stall:<label>``).
    """

    def __init__(
        self,
        sim,
        graph: TaskGraph,
        *,
        n_workers: int | None = None,
        tracer=None,
        delay_fn: Callable[[int, int], float] | None = None,
        step_delays: Sequence[float] | None = None,
        stall_factor: float = STALL_FACTOR,
        stall_floor: float = STALL_FLOOR,
    ) -> None:
        graph.validate()
        self.sim = sim
        self.graph = graph
        self.tracer = sim.tracer if tracer is None else tracer
        self.delay_fn = delay_fn
        self.step_delays = list(step_delays or [])
        self.stalls: list[StallEvent] = []
        self._detector = StallDetector(factor=stall_factor,
                                       floor=stall_floor)
        subs = sim.subs
        self._sub = {s.block.rank: s for s in subs}
        self._method = {
            s.block.rank: m for s, m in zip(subs, sim.methods)
        }
        self._tid = {s.block.rank: i for i, s in enumerate(subs)}
        ranks = graph.meta.get("ranks", [])
        if list(self._sub) != [int(r) for r in ranks]:
            raise ValueError(
                f"graph planned for ranks {ranks}, simulation has "
                f"{list(self._sub)}"
            )
        if int(graph.meta.get("nphases", -1)) != sim._nphases:
            raise ValueError("graph phase count does not match methods")
        # (rank, axis, side) -> EdgeOp, for fill/seam node lookup
        self._ops = {
            (rank, op.axis, op.side): op
            for rank, plan in sim.exchanger.plans.items()
            for op in plan.ops
        }
        self._fields = sim._phase_fields  # per-phase {rank: fields}
        self.n_workers = (
            max(1, int(n_workers)) if n_workers else len(subs)
        )
        # precomputed span names (allocation-free traced hot path)
        nphases = sim._nphases
        self._span = {
            "compute": tuple(f"compute:{p}" for p in range(nphases)),
            "exchange": tuple(f"exchange:{p}" for p in range(nphases)),
        }

    # ------------------------------------------------------------------
    # node execution (called from worker threads; the planner's deps
    # guarantee exclusive access to everything each node writes)
    # ------------------------------------------------------------------
    def _execute(self, node) -> None:
        kind = node.kind
        tracer = self.tracer
        rank = node.rank
        sub = self._sub[rank]
        # A node runs between its rank's previous finalize and its own,
        # so the subregion's counter is the node's absolute step (the
        # plan numbers steps from 0 in every graph).
        step_no = sub.step
        if kind == "compute":
            if node.phase == 0:
                delay = (
                    self.step_delays[rank]
                    if rank < len(self.step_delays) else 0.0
                )
                if self.delay_fn is not None:
                    delay += self.delay_fn(rank, step_no)
                if delay > 0:
                    time.sleep(delay)
            t0 = tracer.begin()
            self._method[rank].compute_phase(sub, node.phase)
            tracer.end(self._span["compute"][node.phase], t0,
                       step=step_no, tid=self._tid[rank])
        elif kind in ("exchange", "replicate"):
            op = self._ops[(rank, node.axis, node.side)]
            t0 = tracer.begin()
            self.sim.exchanger.apply_op(
                rank, op, self._fields[node.phase][rank]
            )
            tracer.end(self._span["exchange"][node.phase], t0,
                       step=step_no, tid=self._tid[rank])
        elif kind == "seam":
            op = self._ops[(rank, node.axis, node.side)]
            t0 = tracer.begin()
            self.sim.exchanger.apply_seam(rank, op)
            tracer.end("seam:0", t0, step=step_no, tid=self._tid[rank])
        elif kind == "finalize":
            t0 = tracer.begin()
            self._method[rank].finalize_step(sub)
            tracer.end("finalize:0", t0, step=step_no,
                       tid=self._tid[rank])
            sub.step += 1
        else:  # pragma: no cover - planner and executor share NODE_KINDS
            raise ValueError(f"unknown node kind {kind!r}")

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Execute every node; returns when the graph is drained.

        Raises the first node error; the remaining work is abandoned
        and every thread has exited by the time it propagates.
        """
        nodes = self.graph.nodes
        if not nodes:
            return
        # each rank's step at plan step 0, for the stall spans
        base = {rank: sub.step for rank, sub in self._sub.items()}
        indeg = [len(n.deps) for n in nodes]
        dependents: list[list[int]] = [[] for _ in nodes]
        for n in nodes:
            for d in n.deps:
                dependents[d].append(n.id)
        lock = threading.Lock()
        cond = threading.Condition(lock)
        ready: list[int] = []
        now = time.monotonic()
        for n in nodes:
            if indeg[n.id] == 0:
                heapq.heappush(ready, n.id)
                self._detector.node_ready(n, now)
        state = {"left": len(nodes), "error": None}

        def worker() -> None:
            nid = None
            while True:
                with cond:
                    if nid is not None:
                        # retire the node just run and release its
                        # dependents; this thread takes the next one, so
                        # only the extra ready nodes need a sleeper woken
                        self._detector.node_done(nid)
                        state["left"] -= 1
                        t_now = time.monotonic()
                        woken = 0
                        for dep_id in dependents[nid]:
                            indeg[dep_id] -= 1
                            if indeg[dep_id] == 0:
                                heapq.heappush(ready, dep_id)
                                self._detector.node_ready(nodes[dep_id],
                                                          t_now)
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
                    self._execute(nodes[nid])
                except BaseException as exc:  # propagate to run()
                    with cond:
                        if state["error"] is None:
                            state["error"] = exc
                        cond.notify_all()
                    return

        finished = threading.Event()

        def watchdog() -> None:
            while not finished.wait(_WATCHDOG_POLL):
                with lock:
                    fresh = self._detector.check(time.monotonic())
                for event in fresh:
                    self.stalls.append(event)
                    if self.tracer.enabled:
                        self.tracer.add_span(
                            f"graph:stall:{event.label}",
                            self.tracer.begin(), 0.0,
                            step=base[event.rank] + event.step,
                            tid=self._tid[event.rank],
                        )

        threads = [
            threading.Thread(target=worker, name=f"repro-graph{i}",
                             daemon=True)
            for i in range(self.n_workers)
        ]
        dog = threading.Thread(target=watchdog, name="repro-graph-dog",
                               daemon=True)
        for t in threads:
            t.start()
        dog.start()
        for t in threads:
            t.join()
        finished.set()
        dog.join()
        if state["error"] is not None:
            raise state["error"]
