"""Ghost-cell exchange schedules (paper §4.2).

Neighbouring subregions exchange the outer surface of their interiors:
width-``pad`` strips copied onto the receiver's padded area.  Exchanges
proceed axis by axis (x, then y, then z), and every strip spans the full
padded extent of the *other* axes; this two-phase scheme propagates
corner and edge ghost data through consecutive axis exchanges, so the
full stencil of fig. 4 (diagonal dependencies, needed by the lattice
Boltzmann populations) is served without any explicit diagonal message —
each process only ever talks to its axis-aligned neighbours, exactly as
the paper's system does.

Three exchange transports implement the same plan:

* :class:`LocalExchanger` (here) — direct array copies between
  subregions living in one process: a whole sweep per call for the
  serial reference runner, one edge operation per call for the
  threaded runner's task graph (:mod:`repro.core.taskgraph`).
* :class:`repro.net.transport.SocketExchanger` — real TCP/IP sockets
  between worker processes (the paper's actual mechanism).
* the cluster simulator, which never moves bytes but charges the plan's
  message sizes to the simulated Ethernet bus.

The two transports that move bytes fill every face through one routine,
:func:`fill_ghost`: hold, replicate the edge, copy the source strip, or
hand a seam's source strips to its converter.  They differ only in
where the source strips live — the neighbour's arrays in process, this
subregion's own arrays for a periodic self-wrap, a decoded frame over a
socket.

At a physical (non-periodic) domain boundary the ghost strips are filled
by replicating the edge values, in the same axis order, which keeps a
decomposed run bit-for-bit identical to the serial one.  Ghost strips
facing an *inactive* (all-solid, fig. 2) block are left untouched: their
values were set from the global initial state at decomposition time and
solid-node values are maintained locally by the boundary-condition
enforcement of the numerical methods.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .decomposition import Decomposition
from .subregion import SubregionState

__all__ = [
    "EdgeOp",
    "EdgeStage",
    "ExchangePlan",
    "build_plan",
    "sweep_axes",
    "fill_ghost",
    "LocalExchanger",
]


def sweep_axes(ndim: int, extended: bool) -> tuple[int, ...]:
    """The per-axis exchange order.

    A single ascending sweep propagates corner data when every block is
    active: the corner travels owner -> axis-0 neighbour -> axis-1
    neighbour, and each hop's strip spans the previous hops' ghosts.
    When a decomposition has *inactive* blocks (fig. 2), the canonical
    through-block of a diagonal pair may not exist and the corner must
    route around it, which can require the axis hops in any order; the
    extended sweep is a shortest supersequence containing every
    permutation of the axes ([0,1,0] in 2D, [0,1,2,0,1,2,0] in 3D), so
    some monotone path of exchanges covers every reachable corner.
    """
    base = tuple(range(ndim))
    if not extended or ndim == 1:
        return base
    if ndim == 2:
        return (0, 1, 0)
    return (0, 1, 2, 0, 1, 2, 0)

FillKind = Literal["recv", "replicate", "hold"]


@dataclass(frozen=True)
class EdgeOp:
    """One side of one axis of a subregion's exchange plan.

    Attributes
    ----------
    axis, side:
        Which face of the block (``side`` is -1 for the low face,
        +1 for the high face).
    kind:
        ``"recv"`` — ghost strip is received from an active neighbour;
        ``"replicate"`` — physical domain boundary, ghost strip filled by
        edge replication; ``"hold"`` — face towards an inactive (solid)
        block, ghost strip left as decomposed.
    recv_slices:
        Slices of *my* padded arrays covering the ghost strip.
    send_slices:
        Slices of *my* padded arrays covering the interior strip that the
        neighbour on this face needs from me (only for ``kind="recv"``).
    src_slices:
        Slices of the *neighbour's* padded arrays covering the strip it
        sends across its opposite face — what fills my ghost strip
        (only for ``kind="recv"``).
    neighbor_rank:
        Dense rank of the active neighbour (only for ``kind="recv"``).
    """

    axis: int
    side: int
    kind: FillKind
    recv_slices: tuple[slice, ...]
    send_slices: tuple[slice, ...] | None = None
    src_slices: tuple[slice, ...] | None = None
    neighbor_rank: int = -1

    def strip_nodes(self, padded_shape: Sequence[int]) -> int:
        """Number of nodes in the exchanged strip (for traffic accounting)."""
        n = 1
        for d, sl in enumerate(self.recv_slices):
            start, stop, _ = sl.indices(padded_shape[d])
            n *= stop - start
        return n


@dataclass(frozen=True)
class ExchangePlan:
    """All edge operations for one subregion.

    ``ops`` holds each face's operation once, axis by axis; ``passes``
    is the exchange itself: the operations of each axis pass, in the
    order of :func:`sweep_axes` (an axis the extended sweep repeats
    appears once per pass).  Every transport walks ``passes``.
    """

    rank: int
    ops: tuple[EdgeOp, ...]
    passes: tuple[tuple[EdgeOp, ...], ...]

    def recv_ops(self) -> list[EdgeOp]:
        """Only the operations that exchange with a neighbour."""
        return [op for op in self.ops if op.kind == "recv"]

    @property
    def n_neighbors(self) -> int:
        return len({op.neighbor_rank for op in self.recv_ops()})


def build_plan(
    decomp: Decomposition, rank: int, pad: int
) -> ExchangePlan:
    """Build the exchange plan for the active block with the given rank."""
    blk = decomp.by_rank(rank)
    shape = blk.shape
    ndim = decomp.ndim
    if any(n < pad for n in shape):
        raise ValueError(
            f"block {blk.index} shape {shape} smaller than pad {pad}; "
            "coarsen the decomposition"
        )
    full = tuple(slice(None) for _ in range(ndim))
    ops: list[EdgeOp] = []
    for axis in range(ndim):
        n = shape[axis]
        for side in (-1, +1):
            recv = list(full)
            recv[axis] = slice(0, pad) if side == -1 else slice(pad + n, 2 * pad + n)
            off = tuple(side if d == axis else 0 for d in range(ndim))
            nb_index = decomp.neighbor_index(blk.index, off)
            if nb_index is None:
                ops.append(
                    EdgeOp(axis, side, "replicate", tuple(recv))
                )
                continue
            nb = decomp[nb_index]
            if not nb.active:
                ops.append(EdgeOp(axis, side, "hold", tuple(recv)))
                continue
            # Interior strip the neighbour needs from me lives on the
            # same face: my low-face neighbour receives my first `pad`
            # interior rows, my high-face neighbour my last `pad`.  My
            # ghost strip is filled by the neighbour's send strip on
            # its opposite face.
            send, src = list(full), list(full)
            m = nb.shape[axis]
            if side == -1:
                send[axis], src[axis] = slice(pad, 2 * pad), slice(m, pad + m)
            else:
                send[axis], src[axis] = slice(n, pad + n), slice(pad, 2 * pad)
            ops.append(EdgeOp(
                axis, side, "recv", tuple(recv), tuple(send), tuple(src),
                nb.rank,
            ))
    sweep = sweep_axes(ndim, decomp.n_active < decomp.n_blocks)
    passes = tuple(
        tuple(op for op in ops if op.axis == axis) for axis in sweep
    )
    return ExchangePlan(rank=rank, ops=tuple(ops), passes=passes)


class EdgeStage(threading.local):
    """A reusable staging buffer, one per thread, for self-filled strips.

    A ghost strip filled from its own array — the edge plane of a
    domain-boundary face, or the far send strip of a periodic axis that
    one block spans — overlaps its source in memory, so assigning one to
    the other directly makes NumPy copy the source through a fresh
    temporary the size of the strip.  Staging the source through this
    buffer instead allocates nothing once it has grown to the largest
    strip; per thread, because the task graph may fill two faces of one
    subregion at once.
    """

    buf = np.empty(0)

    def copy(self, dst: np.ndarray, src: np.ndarray) -> None:
        """``dst[...] = src`` (``src`` broadcasts) through the buffer,
        for a ``src`` that shares memory with ``dst`` (a fill plan
        checks that once, when it binds)."""
        n = math.prod(src.shape)
        if self.buf.size < n or self.buf.dtype != src.dtype:
            self.buf = np.empty(n, dtype=src.dtype)
        staged = self.buf[:n].reshape(src.shape)
        staged[...] = src
        dst[...] = staged


def _replicate_edge(
    arr: np.ndarray, op: EdgeOp, pad: int, interior_extent: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``(ghost strip, edge plane)`` views of a domain-boundary face:
    the edge plane broadcast onto the strip fills it by replication.

    Matches ``np.pad(..., mode='edge')`` applied axis by axis in
    ascending-axis order (the convention of
    :func:`repro.core.subregion.make_subregions`).
    """
    edge = list(op.recv_slices)
    idx = pad if op.side == -1 else pad + interior_extent - 1
    edge[op.axis] = slice(idx, idx + 1)
    return arr[(...,) + op.recv_slices], arr[(...,) + tuple(edge)]


def _bind_fill(
    sub: SubregionState, op: EdgeOp, field_names: Sequence[str], src,
    stage: EdgeStage,
):
    """The copies that fill one face from arrays that stay put: the
    edge plane (``replicate``) or the source fields' send strip
    (``recv``).  A copy whose two sides share memory goes through
    ``stage`` (bitwise the same as a direct copy)."""
    if op.kind == "replicate":
        extent = sub.block.shape[op.axis]
        pairs = [_replicate_edge(sub.fields[name], op, sub.pad, extent)
                 for name in field_names]
        held = []
    else:
        recv, index = (...,) + op.recv_slices, (...,) + op.src_slices
        pairs = [(sub.fields[name][recv], src[name][index])
                 for name in field_names]
        held = [(src, name, src[name]) for name in field_names]
    ops = []
    for dst, strip in pairs:
        ops += _copy_ops(dst, strip, dst.ndim - sub.ndim, stage)
    held += [(sub.fields, name, sub.fields[name]) for name in field_names]
    return ops, held


def _copy_ops(dst: np.ndarray, src: np.ndarray, lead: int,
              stage: EdgeStage):
    """The bound copies of ``dst[...] = src`` for arrays with ``lead``
    leading component axes.

    Copies between arrays that share no memory are direct.  NumPy
    copies an overlapping source through a fresh temporary unless the
    target is one-dimensional, so a strip whose every component is one
    contiguous run (the far strip of a periodic axis-0 wrap) is copied
    run by run; any other overlapping copy goes through ``stage``.
    """
    if not np.may_share_memory(dst, src):
        return [(dst.__setitem__, (Ellipsis, src))]
    first = (0,) * lead
    if (dst.shape == src.shape and dst[first].flags.c_contiguous
            and src[first].flags.c_contiguous):
        return [(dst[i].reshape(-1).__setitem__,
                 (Ellipsis, src[i].reshape(-1)))
                for i in np.ndindex(dst.shape[:lead])]
    return [(stage.copy, (dst, src))]


def fill_ghost(
    sub: SubregionState,
    op: EdgeOp,
    field_names: Sequence[str],
    src,
    stage: EdgeStage,
    converter=None,
    framed: bool = False,
) -> None:
    """Fill one face's ghost strip: the one rule of every transport.

    ``hold`` leaves the strip as decomposed; ``replicate`` copies the
    edge plane outwards (``src`` is unused); ``recv`` copies each named
    field's source strip into its ghost strip.  ``src`` maps field
    names to arrays: the neighbour's fields (the strip is its send
    strip, ``op.src_slices``), this subregion's own fields for a
    periodic self-wrap, or — ``framed`` — a decoded frame whose arrays
    already have the strip's shape.  On a seam edge (``converter``
    given) the source holds the neighbour's own representation instead,
    and the converter translates its ``wire_fields`` into this
    subregion's fields (``field_names`` is unused).

    Fills from arrays that stay put are bound once per face and field
    set (:meth:`SubregionState.plan`): a warmed fill is only the copies.
    """
    if op.kind == "hold":
        return
    if converter is not None:
        converter.convert(sub, op, src,
                          ... if framed else (...,) + op.src_slices)
        return
    if framed:
        recv = (...,) + op.recv_slices
        for name in field_names:
            sub.fields[name][recv] = src[name]
        return
    key = ("fill", op.axis, op.side, tuple(field_names))
    for fn, args in sub.plan(key, _bind_fill, op, field_names, src,
                             stage).ops:
        fn(*args)


class LocalExchanger:
    """Exchange ghost strips between subregions living in one process.

    Drives both the serial reference configuration (a 1x1 decomposition,
    where every face is a domain boundary or a periodic self-wrap) and
    in-process parallel runs used by the bitwise serial==parallel tests.
    """

    def __init__(
        self,
        decomp: Decomposition,
        subs: Sequence[SubregionState],
        converters=None,
    ):
        self.decomp = decomp
        self.subs = list(subs)
        if not self.subs:
            raise ValueError("no active subregions to exchange between")
        pad = self.subs[0].pad
        if any(s.pad != pad for s in self.subs):
            raise ValueError("all subregions must share the same pad width")
        self._by_rank = {s.block.rank: s for s in self.subs}
        self.plans = {
            s.block.rank: build_plan(decomp, s.block.rank, pad)
            for s in self.subs
        }
        # Every (subregion, edge op) in exchange order: all subregions
        # advance together, pass by pass (every plan of one
        # decomposition has the same passes).
        self._walk = tuple(
            (sub, op)
            for pass_ops in zip(
                *(self.plans[s.block.rank].passes for s in self.subs)
            )
            for sub, ops in zip(self.subs, pass_ops)
            for op in ops
        )
        #: per-edge seam converters keyed ``(dst_rank, src_rank)`` (see
        #: :func:`repro.fluids.coupling.build_converters`); edges listed
        #: here are *skipped* by :meth:`exchange` — their ghost strips
        #: are translated once per step by :meth:`exchange_seam` instead.
        self.converters = dict(converters or {})
        self._seam_walk = tuple(
            (sub.block.rank, op) for sub, op in self._walk
            if (sub.block.rank, op.neighbor_rank) in self.converters
        )
        self.stage = EdgeStage()

    def exchange(
        self, field_names: Sequence[str], fields_by_rank=None
    ) -> None:
        """Run one full ghost exchange of the named fields.

        All subregions advance together, pass by pass
        (:attr:`ExchangePlan.passes`): every axis-``d`` copy reads
        interior strips (plus ghost columns refreshed by earlier
        passes), so there is no read/write hazard within a pass.

        ``fields_by_rank`` (hybrid runs) overrides ``field_names`` per
        subregion — each method exchanges its own representation with
        its same-method neighbours; mixed-method edges have a converter
        installed and are skipped here (seam strips are refreshed by
        :meth:`exchange_seam` before the step's first compute phase).
        """
        converters = self.converters
        for sub, op in self._walk:
            rank = sub.block.rank
            fields = (
                field_names if fields_by_rank is None
                else fields_by_rank[rank]
            )
            if fields and (rank, op.neighbor_rank) not in converters:
                self.apply(rank, op, fields)

    def exchange_seam(self) -> None:
        """Translate every mixed-method ghost strip (once per step).

        Walks the same passes as :meth:`exchange`; for each seam
        edge the neighbour's send strip of *its* representation (the
        converter's ``wire_fields``) is handed to the converter, which
        writes this subregion's ghost strip — populations rebuilt from
        ``rho, V`` on an LB side, moments taken on an FD side.  Writes
        touch only ghost strips while reads come from interior send
        strips (plus this subregion's own strip for the gradient
        stencils), so within a pass there is no read/write hazard, and
        later passes see earlier passes' translated corners exactly
        like the regular sweep.
        """
        for rank, op in self._seam_walk:
            self.apply(rank, op, ())

    def apply(
        self, rank: int, op: EdgeOp, field_names: Sequence[str]
    ) -> None:
        """Fill one face of one subregion (:func:`fill_ghost`).

        The per-face entry of both sweeps and of the threaded runner
        (:class:`~repro.core.threaded.ThreadedSimulation`), whose
        planner's dependency edges guarantee the read/write ordering
        the sweeps enforce with their loop structure.  A ``recv`` face
        with a converter installed is a seam: the converter translates
        the neighbour's own fields and ``field_names`` is unused.
        """
        sub = self._by_rank[rank]
        if op.kind != "recv":
            fill_ghost(sub, op, field_names, None, self.stage)
            return
        fill_ghost(
            sub, op, field_names, self._by_rank[op.neighbor_rank].fields,
            self.stage, self.converters.get((rank, op.neighbor_rank)),
        )

    def message_bytes(
        self, rank: int, values_per_node: int, itemsize: int = 8
    ) -> dict[int, int]:
        """Bytes this rank sends to each neighbour per exchange.

        Used for traffic accounting against the shared-bus Ethernet
        model; ``values_per_node`` is the per-node payload of §6
        (3 values in 2D for both methods, 4 for FD / 5 for LB in 3D).
        """
        sub = self._by_rank[rank]
        out: dict[int, int] = {}
        for op in self.plans[rank].recv_ops():
            assert op.send_slices is not None
            n = 1
            for d, sl in enumerate(op.send_slices):
                start, stop, _ = sl.indices(sub.padded_shape[d])
                n *= stop - start
            out[op.neighbor_rank] = (
                out.get(op.neighbor_rank, 0) + n * values_per_node * itemsize
            )
        return out
