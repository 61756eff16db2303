"""Boundary conditions: walls, inlet jets, pressure outlets (paper §2).

The paper's domains are enclosed by wall nodes ("gray areas are walls,
dark-gray areas are walls that enclose the simulated region and
demarcate the inlet and the outlet").  Walls are *solid nodes of the
grid*: no-slip velocity, zero-normal-gradient density, and (for the
lattice Boltzmann method) population bounce-back.  Openings in the walls
carry the driving conditions of the flue-pipe problem: a velocity inlet
(the jet of air) and a pressure outlet.

All conditions are local, node-wise rules, so they commute with the
decomposition: each subregion applies them over its own (grown) interior
using node sets intersected with its block at initialization time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..core.subregion import SubregionState
from ._kernels import Region, flat_nodes, holding, node_strides

__all__ = [
    "GlobalBox",
    "VelocityInlet",
    "PressureOutlet",
    "build_wall_aux",
    "enforce_noslip",
    "enforce_wall_density",
    "wall_key",
]


@dataclass(frozen=True)
class GlobalBox:
    """A rectangular set of nodes in *global* grid coordinates.

    ``lo`` inclusive, ``hi`` exclusive, one entry per axis.
    """

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have equal length")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"empty box {self.lo}..{self.hi}")

    def local_mask(self, sub: SubregionState) -> np.ndarray:
        """Boolean mask over the subregion's padded shape.

        Includes ghost nodes: boundary rules are node-wise, so applying
        them on ghost copies of remote nodes is exactly what the owning
        subregion does to its interior originals.
        """
        mask = np.zeros(sub.padded_shape, dtype=bool)
        sl = []
        for d in range(sub.ndim):
            # Global -> padded-local: local = global - block.lo + pad.
            lo = self.lo[d] - sub.block.lo[d] + sub.pad
            hi = self.hi[d] - sub.block.lo[d] + sub.pad
            lo = max(lo, 0)
            hi = min(hi, sub.padded_shape[d])
            if hi <= lo:
                return mask
            sl.append(slice(lo, hi))
        mask[tuple(sl)] = True
        return mask


VelocityFn = Callable[[int], tuple[float, ...]]


@dataclass(frozen=True)
class VelocityInlet:
    """Prescribed-velocity opening (the jet of air entering the pipe).

    Parameters
    ----------
    box:
        The inlet nodes.
    velocity:
        Either a constant velocity tuple or a callable of the integration
        step (e.g. a ramped jet) returning the tuple.
    """

    box: GlobalBox
    velocity: tuple[float, ...] | VelocityFn

    def velocity_at(self, step: int) -> tuple[float, ...]:
        """Jet velocity at an integration step (ramps resolve here)."""
        v = self.velocity
        return v(step) if callable(v) else v


@dataclass(frozen=True)
class PressureOutlet:
    """Fixed-density (fixed-pressure) opening where the flow exits."""

    box: GlobalBox
    rho: float = 1.0


# ----------------------------------------------------------------------
# wall (solid-node) rules shared by both numerical methods
# ----------------------------------------------------------------------

def build_wall_aux(
    sub: SubregionState,
    solid_rings: Sequence[int] = (),
    density_rings: Sequence[int] = (),
) -> None:
    """Precompute the wall rules' node sets into ``sub.aux``.

    ``fluid_f`` is the fluid mask as float64 (it multiplies into the
    dense kernels).  The rules themselves touch only wall nodes — about
    1.5 % of a channel block — so each one runs on flat index sets
    into the padded arrays, built here once per grown interior it is
    applied on (``solid_rings`` / ``density_rings`` list the rings
    ``by`` of :meth:`SubregionState.grown_interior`):

    ``wall_solid{by}``: the solid nodes of the region (no-slip, and
    the lattice Boltzmann bounce-back);
    ``wall_rho{by}``: the solid nodes with at least one star-adjacent
    fluid node (the density rule's targets), with ``_nbr`` the flat
    indices of all ``2 ndim`` neighbours of each in axis/side order,
    ``_nf`` the neighbours' ``fluid_f`` values and ``_den`` their sum.

    Like all of ``aux`` these are derived state: never exchanged or
    dumped, rebuilt by ``init_subregion`` after a restore.
    """
    fluid = (~sub.solid).astype(np.float64)
    sub.aux["fluid_f"] = fluid
    flat_fluid = fluid.reshape(-1)
    flat_index = np.arange(sub.solid.size).reshape(sub.padded_shape)
    for by in solid_rings:
        region = sub.grown_interior(by)
        sub.aux[f"wall_solid{by}"] = flat_index[region][sub.solid[region]]
    strides = node_strides(sub.padded_shape)
    for by in density_rings:
        region = sub.grown_interior(by)
        nodes = flat_index[region][sub.solid[region]]
        nbr = np.stack([
            nodes + side * strides[axis]
            for axis in range(sub.ndim)
            for side in (-1, +1)
        ])
        nf = flat_fluid[nbr]
        # den exactly as the dense rule sums it, so the division below
        # sees the same bits.
        den = np.zeros(nodes.shape)
        for row in nf:
            den += row
        sel = den > 0.0
        sub.aux[f"wall_rho{by}"] = nodes[sel]
        # row-contiguous: a strided index row makes take() copy it
        sub.aux[f"wall_rho{by}_nbr"] = np.ascontiguousarray(nbr[:, sel])
        sub.aux[f"wall_rho{by}_nf"] = np.ascontiguousarray(nf[:, sel])
        sub.aux[f"wall_rho{by}_den"] = den[sel]


def wall_key(sub: SubregionState, kind: str, region: Region) -> str:
    """The ``aux`` key of the ``kind`` wall set of a grown interior."""
    by = sub.pad - region[0].start
    key = f"wall_{kind}{by}"
    if not 0 <= by <= sub.pad or region != sub.grown_interior(by) \
            or key not in sub.aux:
        raise ValueError(
            f"no {kind} wall set for region {region}: build_wall_aux "
            f"builds them per grown interior at init_subregion"
        )
    return key


def enforce_noslip(
    sub: SubregionState, names: Sequence[str], region: Region
) -> None:
    """Zero the named velocity components at solid nodes in ``region``.

    Multiplies by ``0.0`` rather than storing ``0``: signed zeros and
    NaNs come out as the dense ``field *= fluid_f`` rule leaves them.
    """
    for fn, args in sub.plan(("noslip", region[0].start), _bind_noslip,
                             names, region).ops:
        fn(*args)


def _bind_noslip(sub: SubregionState, names: Sequence[str], region: Region):
    key = wall_key(sub, "solid", region)
    idx = sub.aux[key]
    held = holding(sub, names, aux=(key,))
    if not idx.size:
        return [], held
    buf = sub.scratch(key + "_buf", idx.shape)
    ops = []
    for name in names:
        flat = flat_nodes(sub.fields[name], sub.ndim)
        # mode="clip" (the indices are in range): "raise" would buffer
        # the output through a fresh temporary.
        ops += [
            (flat.take, (idx, None, buf, "clip")),
            (np.multiply, (buf, 0.0, buf)),
            (flat.__setitem__, (idx, buf)),
        ]
    return ops, held


def enforce_wall_density(
    sub: SubregionState, region: Region, rho_name: str = "rho"
) -> None:
    """Zero-normal-gradient density at walls.

    Every solid node with at least one star-adjacent fluid node takes the
    mean density of its fluid neighbours, which makes the discrete normal
    pressure gradient at the wall vanish; deeper solid nodes are left
    untouched (they keep their initial reference density).  The rule
    reads one ring beyond ``region``, which the callers' padding
    guarantees is valid.
    """
    for fn, args in sub.plan(("wall_rho", region[0].start),
                             _bind_wall_density, region, rho_name).ops:
        fn(*args)


def _bind_wall_density(sub: SubregionState, region: Region, rho_name: str):
    key = wall_key(sub, "rho", region)
    target = sub.aux[key]
    nbr = sub.aux[key + "_nbr"]
    nf = sub.aux[key + "_nf"]
    held = holding(sub, (rho_name,),
                   aux=(key, key + "_nbr", key + "_nf", key + "_den"))
    if not target.size:
        return [], held
    flat = flat_nodes(sub.fields[rho_name], sub.ndim)
    num = sub.scratch(key + "_num", target.shape)
    tmp = sub.scratch(key + "_tmp", target.shape)
    # Accumulate from zero in the dense rule's axis/side order; all
    # reads land before the one write, so no solid node reads another
    # solid node's fresh value.
    ops = [(num.fill, (0.0,))]
    for k in range(len(nbr)):
        ops += [
            (flat.take, (nbr[k], None, tmp, "clip")),
            (np.multiply, (tmp, nf[k], tmp)),
            (np.add, (num, tmp, num)),
        ]
    ops += [
        (np.true_divide, (num, sub.aux[key + "_den"], num)),  # den > 0
        (flat.__setitem__, (target, num)),
    ]
    return ops, held
