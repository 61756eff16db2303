"""Planning the explicit task DAG one decomposed run implies.

A compute/communicate run (paper §3) is usually *executed* — phases and
exchanges interleaved by a runner — but everything the runner will do is
known the moment the decomposition and the per-rank methods are fixed.
This module walks a :class:`~repro.core.decomposition.Decomposition`
plus its methods and emits that schedule as data: a
:class:`TaskGraph` of per-subregion compute/finalize nodes and per-edge
ghost-fill (and seam-conversion) nodes, each carrying the dependency
edges that make any topological execution order produce *bit-for-bit*
the serial result.

The dependency rules encode the read/write-hazard analysis of
:class:`~repro.core.exchange.LocalExchanger` at per-edge granularity:

* a ghost fill into ``dst`` at sweep position ``k`` waits for both
  endpoint computes of its phase and for every earlier-position
  operation *touching either endpoint* — the send strip spans the full
  padded extent of the other axes, so corner data propagates through
  consecutive axis passes exactly as in the serial sweep, and a later
  pass must not overwrite a strip a neighbour has yet to read;
* ``compute(t, p+1)`` waits for every stage-``p`` operation touching
  its subregion (fills into it *and* reads of its send strips);
* ``finalize(t)`` waits for every exchange of the step touching the
  subregion — the filter rewrites interior and ring-1 ghosts that
  neighbours read — and ``compute(t+1, 0)`` waits for ``finalize(t)``;
* seam conversions (hybrid runs) run before the step's first compute
  phase in the same axis-sweep order as
  :meth:`~repro.core.exchange.LocalExchanger.exchange_seam`.

Nodes that only touch *different* subregions are left unordered: that
is the compute/communicate overlap
:class:`~repro.core.threaded.ThreadedSimulation` harvests.  Global
diagnostics and checkpoints are not nodes: the threaded runner takes
them between ``step`` calls, as the serial one does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .decomposition import Decomposition
from .exchange import build_plan

__all__ = ["TaskNode", "TaskGraph", "plan_graph"]


@dataclass(frozen=True)
class TaskNode:
    """One unit of work in a planned run.

    ``kind`` is ``seam``, ``compute``, ``exchange``, ``replicate`` or
    ``finalize``, the order they appear in within one step.  ``rank``
    is the owning subregion (the written one for ghost fills), ``src``
    the rank a fill or seam conversion reads from (``-1`` when not
    applicable).  ``step`` counts from 0 within the plan.
    ``pos`` is the position in the per-phase axis sweep — two fills at
    the same position commute, fills at different positions touching a
    common rank do not.
    """

    id: int
    kind: str
    rank: int
    step: int
    phase: int = -1
    axis: int = -1
    side: int = 0
    pos: int = -1
    src: int = -1
    deps: tuple[int, ...] = ()

    @property
    def label(self) -> str:
        """Stable human-readable name (``compute:r0:t3:p1`` etc.)."""
        bits = [self.kind, f"r{self.rank}", f"t{self.step}"]
        if self.phase >= 0:
            bits.append(f"p{self.phase}")
        if self.axis >= 0:
            side = "lo" if self.side < 0 else "hi"
            bits.append(f"a{self.axis}{side}")
        if self.src >= 0:
            bits.append(f"from{self.src}")
        return ":".join(bits)


@dataclass
class TaskGraph:
    """A validated task DAG for ``steps`` steps of one run."""

    nodes: list[TaskNode]

    def validate(self) -> None:
        """Check ids are dense and every dependency points backwards.

        Construction order is a topological order, so acyclicity
        reduces to ``dep < id``; a violated check means a hand-edited
        or corrupted graph.
        """
        for i, node in enumerate(self.nodes):
            if node.id != i:
                raise ValueError(f"node {i} carries id {node.id}")
            for dep in node.deps:
                if not 0 <= dep < node.id:
                    raise ValueError(
                        f"node {node.label} depends on {dep} (id {node.id})"
                    )


def plan_graph(
    decomp: Decomposition,
    methods: Sequence,
    steps: int,
    *,
    converter_edges: Sequence[tuple[int, int]] = (),
) -> TaskGraph:
    """Plan the task DAG of ``steps`` steps of one decomposed run.

    Parameters
    ----------
    decomp, methods:
        The decomposition and the per-rank methods, exactly as a
        :class:`~repro.core.Simulation` would receive them (one method
        per active rank, shared ``pad``).
    converter_edges:
        The ``(dst_rank, src_rank)`` seam edges of a hybrid run (the
        keys of :func:`repro.fluids.coupling.build_converters`); these
        edges get per-step seam-conversion nodes and are skipped by the
        per-phase exchange, mirroring the serial runner.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    ranks = sorted(b.rank for b in decomp.active_blocks())
    if len(methods) != len(ranks):
        raise ValueError(
            f"{len(methods)} methods for {len(ranks)} active ranks"
        )
    meth = dict(zip(ranks, methods))
    # Per exchange pass, every rank's edge ops (all plans of one
    # decomposition share the same passes).
    sweep = list(zip(*(
        build_plan(decomp, r, methods[0].pad).passes for r in ranks
    )))
    nphases = max(len(m.exchange_phases) for m in methods)
    conv = frozenset((int(a), int(b)) for a, b in converter_edges)
    nodes: list[TaskNode] = []

    def add(kind, rank, step, *, phase=-1, axis=-1, side=0, pos=-1,
            src=-1, deps=()) -> int:
        nid = len(nodes)
        nodes.append(TaskNode(
            id=nid, kind=kind, rank=rank, step=step, phase=phase,
            axis=axis, side=side, pos=pos, src=src,
            deps=tuple(sorted(set(int(d) for d in deps))),
        ))
        return nid

    prev_finalize: dict[int, int] = {}

    for t in range(steps):
        # --- seam conversions (hybrid): before the first compute phase,
        #     in axis-sweep order, both sides converting time-t state.
        seam_all: dict[int, list[int]] = {r: [] for r in ranks}
        if conv:
            touch = {r: [[] for _ in sweep] for r in ranks}
            for pos, pass_ops in enumerate(sweep):
                for r, ops in zip(ranks, pass_ops):
                    for op in ops:
                        nb = op.neighbor_rank
                        if (r, nb) not in conv:
                            continue
                        deps = []
                        if t > 0:
                            deps += [prev_finalize[r], prev_finalize[nb]]
                        for k in range(pos):
                            deps += touch[r][k] + touch[nb][k]
                        nid = add(
                            "seam", r, t, axis=op.axis, side=op.side,
                            pos=pos, src=nb, deps=deps,
                        )
                        touch[r][pos].append(nid)
                        touch[nb][pos].append(nid)
                        seam_all[r].append(nid)
                        seam_all[nb].append(nid)

        compute_id: dict[tuple[int, int], int] = {}
        prev_stage_all: dict[int, list[int]] = {}
        fin_deps: dict[int, list[int]] = {r: [] for r in ranks}

        for p in range(nphases):
            # --- compute phase p on every rank whose method has it
            for r in ranks:
                if p >= len(meth[r].exchange_phases):
                    continue
                deps: list[int] = []
                if p == 0:
                    if t > 0:
                        deps.append(prev_finalize[r])
                    deps += seam_all[r]
                else:
                    if (r, p - 1) in compute_id:
                        deps.append(compute_id[(r, p - 1)])
                    deps += prev_stage_all.get(r, [])
                compute_id[(r, p)] = add(
                    "compute", r, t, phase=p, deps=deps,
                )

            # --- ghost fills of phase p, axis by axis
            touch = {r: [[] for _ in sweep] for r in ranks}
            stage_all: dict[int, list[int]] = {r: [] for r in ranks}
            for pos, pass_ops in enumerate(sweep):
                for r, ops in zip(ranks, pass_ops):
                    m = meth[r]
                    fields = (
                        m.exchange_phases[p]
                        if p < len(m.exchange_phases) else ()
                    )
                    if not fields:
                        continue
                    for op in ops:
                        if op.kind == "hold":
                            continue
                        if (
                            op.kind == "recv"
                            and (r, op.neighbor_rank) in conv
                        ):
                            continue
                        deps = [compute_id[(r, p)]]
                        for k in range(pos):
                            deps += touch[r][k]
                        if op.kind == "recv":
                            nb = op.neighbor_rank
                            if (nb, p) in compute_id:
                                deps.append(compute_id[(nb, p)])
                            for k in range(pos):
                                deps += touch[nb][k]
                            nid = add(
                                "exchange", r, t, phase=p, axis=op.axis,
                                side=op.side, pos=pos, src=nb,
                                deps=deps,
                            )
                            if nb != r:
                                touch[nb][pos].append(nid)
                                stage_all[nb].append(nid)
                        else:
                            nid = add(
                                "replicate", r, t, phase=p, axis=op.axis,
                                side=op.side, pos=pos,
                                deps=deps,
                            )
                        touch[r][pos].append(nid)
                        stage_all[r].append(nid)
            prev_stage_all = stage_all
            for r in ranks:
                fin_deps[r] += stage_all[r]

        # --- finalize: after the rank's last own phase and after every
        #     exchange of the step that read or wrote its arrays (the
        #     filter rewrites interior + ring-1 ghosts neighbours read).
        finalize_id: dict[int, int] = {}
        for r in ranks:
            lastp = len(meth[r].exchange_phases) - 1
            finalize_id[r] = add(
                "finalize", r, t,
                deps=[compute_id[(r, lastp)]] + fin_deps[r],
            )
        prev_finalize = finalize_id

    graph = TaskGraph(nodes)
    graph.validate()
    return graph
