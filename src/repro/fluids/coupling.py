"""FD <-> LB seam coupling (Latt-Chopard-Albuquerque spatial coupling).

A hybrid run assigns different numerical methods to different subregions
of one decomposition.  At a *seam* — a block face whose two sides run
different methods — the ghost strips cannot be copied verbatim: the FD
side evolves only the macroscopic fields ``rho, V`` while the LB side
also carries populations ``F_i``.  This module owns both translations:

* **populations -> rho, V** (:func:`macro_from_populations`): plain
  moments plus the Guo half-force shift, the same convention as the LB
  kernels' ``lb_moments`` so a seam against an LB region reads exactly
  the macroscopic state the LB region itself would report.
* **rho, V -> populations** (:func:`populations_from_macro`): the
  truncated Chapman-Enskog reconstruction ``f_i = f_eq_i(rho, u)
  + f_half_i + f_neq_i`` where ``f_half_i = -+(3/2) w_i rho (e_i . g)``
  is the half-force shift (zeroth moment 0, first moment ``-+rho g / 2``)
  and ``f_neq_i = -3 w_i tau rho Q_iab d_a u_b`` with ``Q_iab = e_ia
  e_ib - delta_ab / 3`` is the strain-rate non-equilibrium correction,
  evaluated with finite differences of the velocity field.  The ghost
  strip feeds the LB *streaming* step, which pulls **post-collision**
  populations: the Guo forcing has just deposited ``rho g`` of
  momentum, so the half-force shift enters with momentum ``+rho g / 2``
  (the ``-rho g / 2`` sign is the post-streaming state that inverts
  ``lb_moments``) and the non-equilibrium part carries the BGK
  post-collision factor ``(1 - 1/tau)``.

Both ``f_half`` and ``f_neq`` have vanishing zeroth and first moments,
so the round trip ``rho, V -> populations -> moments`` is exact to
rounding regardless of the velocity gradients (asserted at 1e-12 by the
seam unit tests), and a uniform flow reconstructs pure (shifted)
equilibrium.

The exchange layer stays physics-agnostic: :func:`build_converters`
returns per-edge :class:`SeamConverter` objects keyed by ``(dst_rank,
src_rank)`` which ``LocalExchanger`` / ``SocketExchanger`` invoke
whenever the two sides of an edge disagree on the method.  The seam
sweep runs once per step *before* the first compute phase, so both
sides translate time-``t`` state (first order in time at the seam,
exact at steady state — the regime the Poiseuille validation checks).
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Protocol, Sequence

import numpy as np

from ..core.decomposition import Decomposition
from ..core.subregion import SubregionState
from ._kernels import (
    copy_op,
    holding,
    region_shape,
    run_ops,
    shift_region,
)

__all__ = [
    "SeamConverter",
    "LBToFDConverter",
    "FDToLBConverter",
    "macro_from_populations",
    "populations_from_macro",
    "populations_from_macro_ops",
    "strip_gradient_ops",
    "strip_velocity_gradients",
    "seam_wire_fields",
    "build_converters",
]

Region = tuple  # tuple[slice, ...]


# ----------------------------------------------------------------------
# conversions
# ----------------------------------------------------------------------
def macro_from_populations(
    lb, f: np.ndarray, rho: np.ndarray | None = None,
    vels: Sequence[np.ndarray] | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """``(rho, [u, v(, w)])`` from a ``(Q,) + shape`` population array.

    Mirrors the LB kernels' ``lb_moments`` (signed index sums, then the
    Guo half-force shift ``u_d += g_d / 2``) so seam moments agree with
    the macroscopic fields the LB region itself maintains.  No solid
    masking: seam strips through walls keep the no-slip values the
    methods enforce locally.  ``rho``/``vels`` are ``shape`` outputs
    (a ghost strip's views), allocated when omitted.
    """
    rho = np.add.reduce(f, 0, None, rho)
    g = lb.params.gravity
    out = []
    for d in range(lb.ndim):
        plus, minus = lb._mom_idx[d]
        vel = np.subtract(f[plus[0]], f[minus[0]],
                          None if vels is None else vels[d])
        for i in plus[1:]:
            vel += f[i]
        for i in minus[1:]:
            vel -= f[i]
        vel /= rho
        if g[d] != 0.0:
            vel += 0.5 * g[d]
        out.append(vel)
    return rho, out


def populations_from_macro(
    lb,
    rho: np.ndarray,
    vels: Sequence[np.ndarray],
    grads: Sequence[Sequence[np.ndarray]] | None = None,
    post_collision: bool = True,
) -> np.ndarray:
    """Reconstruct populations from macroscopic fields (module docstring).

    ``grads[a][b]`` is ``d u_b / d x_a`` on ``rho``'s grid; ``None``
    drops the non-equilibrium correction (uniform flow needs none).

    ``post_collision`` selects which epoch of the LB cycle the
    populations represent.  ``False``: the post-streaming state whose
    moments :func:`macro_from_populations` inverts — first moment
    ``rho (u - g/2)``, full non-equilibrium part.  ``True`` (what seam
    ghosts need — streaming pulls post-collision populations): the Guo
    forcing just deposited ``rho g`` of momentum, so the first moment
    is ``rho (u + g/2)`` (half-force shift flips sign) and the
    non-equilibrium part carries the BGK factor ``(1 - 1/tau)``.

    Runs :func:`populations_from_macro_ops` once on fresh buffers.
    """
    q, shape = lb.lattice.q, rho.shape
    out = np.empty((q,) + shape)
    work = _PopulationWork(np.empty((q // 2,) + shape), np.empty(shape),
                           np.empty(shape), np.empty((q,) + shape),
                           np.empty((q,) + shape), np.empty(shape))
    run_ops(populations_from_macro_ops(lb, rho, vels, grads, post_collision,
                                       out, work))
    return out


class _PopulationWork(NamedTuple):
    """Work buffers of :func:`populations_from_macro_ops`: the
    equilibrium's ``eu``/``usq``/``tmp``, two ``(Q,) + shape`` buffers
    and the strain trace."""

    eu: np.ndarray
    usq: np.ndarray
    tmp: np.ndarray
    term: np.ndarray
    acc: np.ndarray
    trace: np.ndarray


def populations_from_macro_ops(
    lb, rho, vels, grads, post_collision: bool, out: np.ndarray,
    work: _PopulationWork,
):
    """The operations of :func:`populations_from_macro` into ``out``.

    The ``(Q, 1, ...)`` coefficient columns are formed here, by the
    products the allocating form evaluated (``1.5 w_i (e_i . g)``,
    ``e_ia e_ib``, ``scale w_i``), so every population keeps its bits.
    """
    ops = lb.equilibrium_ops(rho, list(vels), out, work.eu, work.usq,
                             work.tmp)
    ndim = lb.ndim
    e_b, w_b = lb.broadcast_columns(rho.ndim)
    # Half-force shift: zeroth moment 0, first moment -+ rho g / 2
    # (docstring above — the sign tracks the epoch).
    g = lb.params.gravity
    if any(g):
        eg = e_b[0] * g[0]
        for d in range(1, ndim):
            eg = eg + e_b[d] * g[d]
        ops += [(np.multiply, (1.5 * w_b * eg, rho, work.term)),
                (np.add if post_collision else np.subtract,
                 (out, work.term, out))]
    if grads is not None:
        # Q_iab d_a u_b = (e_ia e_ib - delta_ab / 3) d_a u_b
        trace, acc, term = work.trace, work.acc, work.term
        ops.append(copy_op(trace, grads[0][0]))
        ops += [(np.add, (trace, grads[d][d], trace))
                for d in range(1, ndim)]
        for a in range(ndim):
            for b in range(ndim):
                eab = e_b[a] * e_b[b]
                if a == b == 0:
                    ops.append((np.multiply, (eab, grads[a][b], acc)))
                else:
                    ops += [(np.multiply, (eab, grads[a][b], term)),
                            (np.add, (acc, term, acc))]
        scale = 3.0 * (lb.tau - 1.0) if post_collision else 3.0 * lb.tau
        ops += [
            (np.true_divide, (trace, 3.0, trace)),
            (np.subtract, (acc, trace, acc)),
            (np.multiply, (scale * w_b, rho, term)),
            (np.multiply, (term, acc, term)),
            (np.subtract, (out, term, out)),
        ]
    return ops


def strip_velocity_gradients(
    arrs: Sequence[np.ndarray], region: Region, dx: float = 1.0
) -> list[list[np.ndarray]]:
    """``grads[a][b] = d arrs[b] / d x_a`` over ``region`` of padded arrays.

    Runs :func:`strip_gradient_ops` once on fresh buffers.
    """
    shape = region_shape(_explicit(region, arrs[0].shape))
    ndim = len(shape)
    out = [[np.empty(shape) for _ in range(ndim)] for _ in range(ndim)]
    run_ops(strip_gradient_ops(arrs, region, dx, out))
    return out


def _explicit(region: Region, shape) -> Region:
    """``region`` with every slice resolved against ``shape``."""
    return tuple(slice(*sl.indices(n)[:2]) for sl, n in zip(region, shape))


def strip_gradient_ops(
    arrs: Sequence[np.ndarray], region: Region, dx: float,
    out: Sequence[Sequence[np.ndarray]],
):
    """The operations of ``out[a][b] <- d arrs[b] / d x_a`` over
    ``region`` (each ``out[a][b]`` has the region's shape).

    :func:`numpy.gradient` on the region grown by one cell per axis
    (clipped at the array bounds), trimmed back, node by node: cells
    with both axis neighbours inside the grown block get the centered
    ``(a[i+1] - a[i-1]) / (2 dx)``, reading one cell *outside* the
    strip when available; a cell on the physical array edge falls back
    to the one-sided ``(a[1] - a[0]) / dx`` or ``(a[-1] - a[-2]) / dx``
    — deterministic and identical wherever the strip lives (serial,
    threaded, or a distributed receiver).
    """
    shape = arrs[0].shape
    region = _explicit(region, shape)
    ndim = len(shape)
    ops = []
    for a in range(ndim):
        lo, hi = region[a].start, region[a].stop
        n = shape[a]
        # per part: the cells (first, stop), the shifts of the upper and
        # the lower read, the divisor
        parts = [(max(lo, 1), min(hi, n - 1), 1, -1, 2.0 * dx)]
        if lo == 0:
            parts.append((0, 1, 1, 0, dx))
        if hi == n:
            parts.append((n - 1, n, 0, -1, dx))
        for b in range(ndim):
            for first, stop, up, down, div in parts:
                if stop <= first:
                    continue
                cells = list(region)
                cells[a] = slice(first, stop)
                dst = list(slice(None) for _ in range(ndim))
                dst[a] = slice(first - lo, stop - lo)
                o = out[a][b][tuple(dst)]
                ops += [
                    (np.subtract, (arrs[b][shift_region(tuple(cells), a, up)],
                                   arrs[b][shift_region(tuple(cells), a,
                                                        down)], o)),
                    (np.true_divide, (o, div, o)),
                ]
    return ops


# ----------------------------------------------------------------------
# per-edge converters
# ----------------------------------------------------------------------
class SeamConverter(Protocol):
    """Translate a neighbour's seam strips into my ghost strip.

    ``wire_fields`` names the fields the *sender* ships (its own
    representation); ``wire_leading`` their leading (component) dims,
    for receivers that do not hold a field themselves (a socket
    transport decodes a frame by them); ``convert`` writes the
    receiver's ghost strip.  Converters are invoked only through
    :func:`repro.core.exchange.fill_ghost`.
    """

    wire_fields: tuple[str, ...]
    wire_leading: Mapping[str, tuple[int, ...]]

    def convert(
        self,
        sub: SubregionState,
        op,
        src: Mapping[str, np.ndarray],
        src_index,
    ) -> None:
        """Translate the neighbour's strips ``src[name][src_index]``
        (its own field representation, see :func:`seam_wire_fields`)
        into this subregion's fields over the ghost region of the face
        ``op`` (an :class:`~repro.core.exchange.EdgeOp`); each strip
        has the ghost strip's shape."""
        ...


class LBToFDConverter:
    """LB neighbour -> FD ghost strip: moments of the shipped populations."""

    def __init__(self, lb) -> None:
        self.lb = lb
        self.wire_fields: tuple[str, ...] = ("f",)
        self.wire_leading = {"f": (lb.lattice.q,)}

    def convert(self, sub, op, src, src_index) -> None:
        """Fill the FD ghost strip with the moments of the received
        LB populations, written straight into it."""
        recv = op.recv_slices
        macro_from_populations(
            self.lb, src["f"][src_index], sub.fields["rho"][recv],
            [sub.fields[name][recv] for name in self.lb.vel_names],
        )


class FDToLBConverter:
    """FD neighbour -> LB ghost strip: macro copy + population rebuild.

    The shipped ``rho, V`` land in the ghost strip first; velocity
    gradients for the non-equilibrium correction are then taken on the
    receiver's own padded arrays (strip plus one adjacent ring), so the
    reconstruction is local, deterministic, and identical across the
    serial, threaded and distributed transports.  The gradients and the
    reconstruction are bound once per face (:meth:`SubregionState.plan
    <repro.core.subregion.SubregionState.plan>`), with their work
    buffers in the subregion's scratch and the populations written
    straight into the ghost strip of ``f``.
    """

    def __init__(self, lb) -> None:
        self.lb = lb
        self.wire_fields: tuple[str, ...] = ("rho",) + lb.vel_names
        self.wire_leading: dict[str, tuple[int, ...]] = {}

    def convert(self, sub, op, src, src_index) -> None:
        """Adopt the received macro strips, then rebuild the LB ghost
        populations from them (equilibrium + half-force +
        non-equilibrium reconstruction)."""
        recv = op.recv_slices
        for name in self.wire_fields:
            sub.fields[name][recv] = src[name][src_index]
        for fn, args in sub.plan(("seam", op.axis, op.side), self._bind,
                                 op).ops:
            fn(*args)

    def _bind(self, sub: SubregionState, op):
        lb = self.lb
        recv = op.recv_slices
        shape = region_shape(_explicit(recv, sub.padded_shape))
        q, ndim = lb.lattice.q, lb.ndim
        key = f"seam{op.axis}{op.side:+d}_"
        grads = [[sub.scratch(f"{key}grad{a}{b}", shape)
                  for b in range(ndim)] for a in range(ndim)]
        vel_arrs = [sub.fields[name] for name in lb.vel_names]
        work = _PopulationWork(
            sub.scratch(key + "eu", (q // 2,) + shape),
            sub.scratch(key + "usq", shape),
            sub.scratch(key + "tmp", shape),
            sub.scratch(key + "term", (q,) + shape),
            sub.scratch(key + "acc", (q,) + shape),
            sub.scratch(key + "trace", shape),
        )
        ops = strip_gradient_ops(vel_arrs, recv, lb.params.dx, grads)
        ops += populations_from_macro_ops(
            lb, sub.fields["rho"][recv], [a[recv] for a in vel_arrs], grads,
            True, sub.fields["f"][(slice(None),) + recv], work,
        )
        return ops, holding(sub, ("rho", "f") + lb.vel_names)


def seam_wire_fields(method) -> tuple[str, ...]:
    """Fields a method ships across a seam (its own representation)."""
    return ("f",) if method.method_name == "lb" else (
        ("rho",) + method.vel_names
    )


def build_converters(
    decomp: Decomposition, methods_by_rank: Sequence
) -> dict[tuple[int, int], SeamConverter]:
    """Per-edge converters for every mixed-method face of a decomposition.

    ``methods_by_rank`` lists one method instance per dense active rank.
    Returns ``{(dst_rank, src_rank): converter}`` — empty for uniform
    runs, in which case the exchange layer behaves exactly as before.
    """
    out: dict[tuple[int, int], SeamConverter] = {}
    rank_of = {b.rank: b for b in decomp.active_blocks()}
    for dst_rank, blk in rank_of.items():
        dst = methods_by_rank[dst_rank]
        for axis in range(decomp.ndim):
            for side in (-1, +1):
                off = tuple(
                    side if d == axis else 0 for d in range(decomp.ndim)
                )
                nb_index = decomp.neighbor_index(blk.index, off)
                if nb_index is None:
                    continue
                nb = decomp[nb_index]
                if not nb.active:
                    continue
                src = methods_by_rank[nb.rank]
                if src.method_name == dst.method_name:
                    continue
                if dst.method_name == "lb":
                    out[(dst_rank, nb.rank)] = FDToLBConverter(dst)
                else:
                    out[(dst_rank, nb.rank)] = LBToFDConverter(src)
    return out
