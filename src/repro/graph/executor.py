"""Dependency-driven execution of a planned :class:`TaskGraph`.

The BSP runners advance every subregion in lockstep: compute, barrier,
exchange, barrier — so one slow rank stalls the whole step.  This
executor instead walks the planned DAG with a pool of worker threads
and a ready heap: a node runs the moment its dependencies are done, so
a subregion steps as soon as *its own* ghost strips for step ``t`` are
filled (the paper's first-come-first-served ``select`` loop, taken to
its limit), and fast ranks run ahead of slow ones by however much the
neighbour-only dependency structure allows (one phase of lag per hop).

Because the planner's dependency edges encode the complete read/write
hazard analysis of the axis-sweep exchange, *any* execution order the
heap produces performs the identical floating-point operations on the
identical data — runs are bit-for-bit equal to the serial
:class:`~repro.core.Simulation`, which the test suite asserts for FD,
LB and hybrid seam problems at 1–4 ranks.

The executor doubles as the in-process half of the stall story: a
watchdog thread applies the :class:`~repro.graph.stalls.StallDetector`
rule (ready for > N× estimated cost and unfinished) and emits one
``graph:stall:<label>`` trace span per event, so a deliberately slowed
rank shows up by name in the Chrome trace instead of as anonymous
barrier waits.
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
    """Run a planned graph on a serial :class:`~repro.core.Simulation`.

    Parameters
    ----------
    sim:
        A freshly built (or checkpoint-resumed) serial
        :class:`~repro.core.Simulation`; the executor mutates its
        subregions in place and leaves it in exactly the state the
        same number of ``sim.step()`` calls would have produced.
    graph:
        The plan for this decomposition/method set, from
        :func:`repro.graph.plan_graph`.
    n_workers:
        Worker threads; defaults to one per subregion (like the
        threaded runner — NumPy kernels release the GIL, so threads
        genuinely overlap).
    delay_fn, step_delays:
        Synthetic-load injection, applied at each rank's first compute
        phase of each step: ``step_delays[rank]`` seconds every step
        (the distributed runtime's imbalance knob) plus
        ``delay_fn(rank, step)`` seconds (the overlap bench's jitter
        schedule).  Delays burn wall time only — results are
        unaffected.
    stall_factor, stall_floor:
        The stall rule: a node ready for more than
        ``factor × cost + floor`` seconds without finishing is
        reported (and traced as ``graph:stall:<label>``).
    diag_vmax:
        The CFL threshold ``diag`` nodes hold each record to (``0``:
        only a global NaN aborts — see
        :func:`~repro.distrib.diagnostics.check_record`).
    checkpoint_dir:
        Where ``checkpoint`` nodes write their per-rank dumps; when
        ``None`` checkpoint nodes are no-ops (the in-process runners
        never checkpoint mid-run either).
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
        diag_vmax: float = 0.0,
        checkpoint_dir=None,
    ) -> None:
        graph.validate()
        self.sim = sim
        self.graph = graph
        self.tracer = sim.tracer if tracer is None else tracer
        self.delay_fn = delay_fn
        self.step_delays = list(step_delays or [])
        self.diag_vmax = diag_vmax
        self.checkpoint_dir = checkpoint_dir
        self.diagnostics: list = []
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
        if kind == "compute":
            rank = node.rank
            if node.phase == 0:
                delay = (
                    self.step_delays[rank]
                    if rank < len(self.step_delays) else 0.0
                )
                if self.delay_fn is not None:
                    delay += self.delay_fn(rank, node.step)
                if delay > 0:
                    time.sleep(delay)
            t0 = tracer.begin()
            self._method[rank].compute_phase(self._sub[rank], node.phase)
            tracer.end(self._span["compute"][node.phase], t0,
                       step=node.step, tid=self._tid[rank])
        elif kind in ("exchange", "replicate"):
            rank = node.rank
            op = self._ops[(rank, node.axis, node.side)]
            t0 = tracer.begin()
            self.sim.exchanger.apply_op(
                rank, op, self._fields[node.phase][rank]
            )
            tracer.end(self._span["exchange"][node.phase], t0,
                       step=node.step, tid=self._tid[rank])
        elif kind == "seam":
            rank = node.rank
            op = self._ops[(rank, node.axis, node.side)]
            t0 = tracer.begin()
            self.sim.exchanger.apply_seam(rank, op)
            tracer.end("seam:0", t0, step=node.step,
                       tid=self._tid[rank])
        elif kind == "finalize":
            rank = node.rank
            sub = self._sub[rank]
            t0 = tracer.begin()
            self._method[rank].finalize_step(sub)
            tracer.end("finalize:0", t0, step=node.step,
                       tid=self._tid[rank])
            sub.step += 1
        elif kind == "diag":
            from ..distrib.diagnostics import check_record, serial_diagnostics

            t0 = tracer.begin()
            rec = serial_diagnostics(self.sim.subs)
            tracer.end("collective:diag", t0, step=node.step)
            self.diagnostics.append(rec)
            check_record(rec, self.diag_vmax)
        elif kind == "checkpoint":
            if self.checkpoint_dir is not None:
                from ..distrib.dumpfile import dump_path, save_dump

                t0 = tracer.begin()
                save_dump(
                    self._sub[node.rank],
                    dump_path(self.checkpoint_dir, node.rank),
                )
                tracer.end("checkpoint:0", t0, step=node.step,
                           tid=self._tid[node.rank])
        else:  # pragma: no cover - planner and executor share NODE_KINDS
            raise ValueError(f"unknown node kind {kind!r}")

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Execute every node; returns when the graph is drained.

        Raises the first node error (remaining work is abandoned, like
        the threaded runner's error path).
        """
        nodes = self.graph.nodes
        if not nodes:
            return
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
            while True:
                with cond:
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
                with cond:
                    self._detector.node_done(nid)
                    state["left"] -= 1
                    t_now = time.monotonic()
                    for dep_id in dependents[nid]:
                        indeg[dep_id] -= 1
                        if indeg[dep_id] == 0:
                            heapq.heappush(ready, dep_id)
                            self._detector.node_ready(nodes[dep_id], t_now)
                    cond.notify_all()

        def watchdog() -> None:
            while True:
                with cond:
                    if state["left"] <= 0 or state["error"] is not None:
                        return
                    fresh = self._detector.check(time.monotonic())
                    for event in fresh:
                        self.stalls.append(event)
                        if self.tracer.enabled:
                            self.tracer.add_span(
                                f"graph:stall:{event.label}",
                                self.tracer.begin(), 0.0,
                                step=event.step,
                                tid=self._tid.get(event.rank, 0),
                            )
                    cond.wait(timeout=_WATCHDOG_POLL)

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
        dog.join()
        if state["error"] is not None:
            raise state["error"]
