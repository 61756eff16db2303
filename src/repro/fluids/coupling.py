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

from typing import Mapping, Protocol, Sequence

import numpy as np

from ..core.decomposition import Decomposition
from ..core.subregion import SubregionState

__all__ = [
    "SeamConverter",
    "LBToFDConverter",
    "FDToLBConverter",
    "macro_from_populations",
    "populations_from_macro",
    "strip_velocity_gradients",
    "seam_wire_fields",
    "build_converters",
]

Region = tuple  # tuple[slice, ...]


# ----------------------------------------------------------------------
# conversions
# ----------------------------------------------------------------------
def macro_from_populations(
    lb, f: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """``(rho, [u, v(, w)])`` from a ``(Q,) + shape`` population array.

    Mirrors the LB kernels' ``lb_moments`` (signed index sums, then the
    Guo half-force shift ``u_d += g_d / 2``) so seam moments agree with
    the macroscopic fields the LB region itself maintains.  No solid
    masking: seam strips through walls keep the no-slip values the
    methods enforce locally.
    """
    rho = f.sum(axis=0)
    g = lb.params.gravity
    vels = []
    for d in range(lb.ndim):
        plus, minus = lb._mom_idx[d]
        vel = np.subtract(f[plus[0]], f[minus[0]])
        for i in plus[1:]:
            vel += f[i]
        for i in minus[1:]:
            vel -= f[i]
        vel /= rho
        if g[d] != 0.0:
            vel += 0.5 * g[d]
        vels.append(vel)
    return rho, vels


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
    """
    f = lb.equilibrium(rho, list(vels))
    ndim = lb.ndim
    e_b, w_b = lb.broadcast_columns(rho.ndim)
    # Half-force shift: zeroth moment 0, first moment -+ rho g / 2
    # (docstring above — the sign tracks the epoch).
    g = lb.params.gravity
    if any(g):
        eg = e_b[0] * g[0]
        for d in range(1, ndim):
            eg = eg + e_b[d] * g[d]
        if post_collision:
            f += 1.5 * w_b * eg * rho
        else:
            f -= 1.5 * w_b * eg * rho
    if grads is not None:
        # Q_iab d_a u_b = (e_ia e_ib - delta_ab / 3) d_a u_b
        trace = grads[0][0].copy()
        for d in range(1, ndim):
            trace += grads[d][d]
        acc = None
        for a in range(ndim):
            for b in range(ndim):
                term = e_b[a] * e_b[b] * grads[a][b]
                acc = term if acc is None else acc + term
        acc -= trace / 3.0
        scale = 3.0 * (lb.tau - 1.0) if post_collision else 3.0 * lb.tau
        f -= scale * w_b * rho * acc
    return f


def strip_velocity_gradients(
    arrs: Sequence[np.ndarray], region: Region, dx: float = 1.0
) -> list[list[np.ndarray]]:
    """``grads[a][b] = d arrs[b] / d x_a`` over ``region`` of padded arrays.

    Grow the region by one cell per axis (clipped at the array bounds),
    take :func:`numpy.gradient` on the grown block, trim back: interior
    cells get centered differences that read one cell *outside* the
    strip when available; cells on the physical array edge fall back to
    the one-sided difference — deterministic and identical wherever the
    strip lives (serial, threaded, or a distributed receiver).
    """
    shape = arrs[0].shape
    grown: list[slice] = []
    trim: list[slice] = []
    for d, sl in enumerate(region):
        start, stop, _ = sl.indices(shape[d])
        gs, ge = max(start - 1, 0), min(stop + 1, shape[d])
        grown.append(slice(gs, ge))
        trim.append(slice(start - gs, (start - gs) + (stop - start)))
    grown_t, trim_t = tuple(grown), tuple(trim)
    ndim = len(shape)
    out: list[list[np.ndarray]] = []
    for a in range(ndim):
        row = []
        for b in range(ndim):
            g = np.gradient(arrs[b][grown_t], dx, axis=a)
            row.append(np.ascontiguousarray(g[trim_t]))
        out.append(row)
    return out


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
        recv_slices: Region,
        src: Mapping[str, np.ndarray],
        src_index,
    ) -> None:
        """Translate the neighbour's strips ``src[name][src_index]``
        (its own field representation, see :func:`seam_wire_fields`)
        into this subregion's fields over the ghost region
        ``recv_slices``; each strip has the ghost strip's shape."""
        ...


class LBToFDConverter:
    """LB neighbour -> FD ghost strip: moments of the shipped populations."""

    def __init__(self, lb) -> None:
        self.lb = lb
        self.wire_fields: tuple[str, ...] = ("f",)
        self.wire_leading = {"f": (lb.lattice.q,)}

    def convert(self, sub, recv_slices, src, src_index) -> None:
        """Fill the FD ghost strip with the moments of the received
        LB populations."""
        rho, vels = macro_from_populations(self.lb, src["f"][src_index])
        sub.fields["rho"][recv_slices] = rho
        for d, name in enumerate(self.lb.vel_names):
            sub.fields[name][recv_slices] = vels[d]


class FDToLBConverter:
    """FD neighbour -> LB ghost strip: macro copy + population rebuild.

    The shipped ``rho, V`` land in the ghost strip first; velocity
    gradients for the non-equilibrium correction are then taken on the
    receiver's own padded arrays (strip plus one adjacent ring), so the
    reconstruction is local, deterministic, and identical across the
    serial, threaded and distributed transports.
    """

    def __init__(self, lb) -> None:
        self.lb = lb
        self.wire_fields: tuple[str, ...] = ("rho",) + lb.vel_names
        self.wire_leading: dict[str, tuple[int, ...]] = {}

    def convert(self, sub, recv_slices, src, src_index) -> None:
        """Adopt the received macro strips, then rebuild the LB ghost
        populations from them (equilibrium + half-force +
        non-equilibrium reconstruction)."""
        lb = self.lb
        for name in self.wire_fields:
            sub.fields[name][recv_slices] = src[name][src_index]
        vel_arrs = [sub.fields[n] for n in lb.vel_names]
        grads = strip_velocity_gradients(
            vel_arrs, recv_slices, dx=lb.params.dx
        )
        rho = sub.fields["rho"][recv_slices]
        vels = [a[recv_slices] for a in vel_arrs]
        sub.fields["f"][(slice(None),) + recv_slices] = (
            populations_from_macro(lb, rho, vels, grads)
        )


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
