"""Re-cutting a running problem's global state into weighted blocks.

The live half of the rebalance epoch: after every worker has dumped its
subregion at the agreed sync step and exited, the monitoring program
calls :func:`recut_problem` to

1. reassemble the global fields from the per-rank dumps (including the
   method-private LB populations, which the dumps carry in full),
2. build a new *weighted* chain decomposition whose slab sizes are the
   planner's shares,
3. cut fresh per-rank dumps from the assembled state (ghosts filled
   from true global values, bit-identical to what exchanges would
   produce), and
4. rewrite ``spec.json`` with the integer shares as axis-0 weights, so
   every restarted worker reconstructs the same decomposition.

Because the shares are integers summing to the axis extent,
:func:`repro.cluster.allocation.proportional_shares` reproduces them
exactly and the monitor-side and worker-side decompositions cannot
drift.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from ..core.decomposition import Decomposition
from ..distrib.decompose import (
    DumpStepMismatch,
    assemble_dumps,
    decompose_problem,
)
from ..distrib.spec import ProblemSpec

__all__ = ["RecutError", "check_chain", "check_rebalanceable",
           "recut_problem"]


class RecutError(RuntimeError):
    """The dumped state could not be re-cut into the requested blocks."""


def check_chain(blocks: tuple[int, ...]) -> None:
    """Raise :class:`RecutError` unless ``blocks`` is a chain
    ``(P, 1[, 1])``: rebalancing resizes slabs along axis 0 only."""
    if any(b != 1 for b in blocks[1:]):
        raise RecutError(
            "rebalancing resizes slabs of a chain decomposition; "
            f"use blocks=(P, 1[, 1]), got {blocks}"
        )


def check_rebalanceable(spec: ProblemSpec) -> Decomposition:
    """Raise :class:`RecutError` unless ``spec`` supports re-cutting.

    Rebalancing resizes the slabs of a chain decomposition (blocks
    ``(P, 1[, 1])``) in which every block is active and every block runs
    one method: re-cutting around inactive (all-solid) blocks would
    need the unsaved solid-region state to rebuild their neighbours'
    ghosts, and resizing the slabs of a hybrid (mixed-method) run would
    move its method seams off their region boundaries.  Returns the
    spec's decomposition.
    """
    if spec.is_hybrid:
        raise RecutError(
            "policy='rebalance' cannot re-cut a hybrid (mixed-method) "
            "run: resizing slabs would move the method seams off their "
            "region boundaries; use policy='migrate'"
        )
    decomp = spec.build_decomposition()
    check_chain(decomp.blocks)
    if decomp.n_active != decomp.n_blocks:
        raise RecutError(
            "rebalancing needs every block active; "
            f"{decomp.n_blocks - decomp.n_active} block(s) are solid"
        )
    return decomp


def recut_problem(
    workdir: str | Path,
    shares: list[int],
    *,
    in_tag: str,
    out_tag: str,
) -> Decomposition:
    """Re-cut the dumped global state into new axis-0 slab shares.

    Reads every rank's ``<in_tag>`` dump under ``workdir/dumps``,
    writes one ``<out_tag>`` dump per rank of the new decomposition,
    rewrites ``workdir/spec.json`` with the shares as weights, and
    returns the new decomposition.  The dumps must all sit at the same
    step (the sync protocol guarantees it); anything else raises
    :class:`RecutError`.
    """
    workdir = Path(workdir)
    spec = ProblemSpec.load(workdir / "spec.json")
    old = check_rebalanceable(spec)
    if len(shares) != old.n_active:
        raise RecutError(
            f"{len(shares)} shares for {old.n_active} ranks"
        )
    if sum(shares) != old.grid_shape[0]:
        raise RecutError(
            f"shares {shares} do not sum to axis extent "
            f"{old.grid_shape[0]}"
        )

    weights = (tuple(int(s) for s in shares),) + (None,) * (old.ndim - 1)
    new_spec = replace(spec, weights=weights)
    new = new_spec.build_decomposition()
    if new.n_active != old.n_active:
        raise RecutError(
            f"re-cut changed the active-rank count "
            f"({old.n_active} -> {new.n_active})"
        )
    if new.n_active_nodes != old.n_active_nodes:  # pragma: no cover
        raise RecutError("re-cut changed the active node count")

    try:
        step, fields, extra = assemble_dumps(workdir, in_tag)
    except DumpStepMismatch as exc:
        raise RecutError(str(exc)) from exc
    decompose_problem(new_spec, fields, workdir, tag=out_tag, step=step,
                      extra=extra)
    return new
