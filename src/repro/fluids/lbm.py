"""Lattice Boltzmann method (paper §6; Skordos, PRE 48:4823).

A relaxation algorithm carrying two kinds of variables: the traditional
fluid variables ``rho, Vx, Vy(,Vz)`` and the populations ``F_i``.  Each
cycle relaxes the populations towards the equilibrium built from the
fluid variables, shifts them to the nearest neighbours, and recomputes
the fluid variables — which are then filtered by the same fourth-order
filter as the finite-difference method.

Per-step sequence (paper §6)::

    Relax       F_i              (inner)
    Communicate F_i              (boundary)   <- one message per neighbour
    Shift       F_i              (inner)
    Calculate   rho, V  from F_i (inner)
    Filter      rho, V           (inner)

(The paper lists Shift before Communicate; shifting in pull form after
the exchange moves exactly the same populations across the subregion
boundary and keeps the run bit-identical to the serial program.)

The BGK collision relaxes with ``tau = 3 nu + 1/2`` (lattice units) and
body forces enter through the Guo forcing scheme, second-order accurate
so the Hagen-Poiseuille validation converges quadratically like the
paper reports for both methods.  Solid wall nodes do not collide; they
reflect every arriving population back along its incoming direction
(bounce-back), which places the no-slip wall halfway between the last
fluid node and the first solid node.

Ghost width is 3: streaming reaches 1, the macro fields behind the
filter reach 2 more; one exchanged message per step carries the
relaxed populations on a width-3 strip.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.subregion import SubregionState
from ._kernels import Region, copy_op, flat_nodes, holding
from . import fused
from .boundary import (
    PressureOutlet,
    VelocityInlet,
    build_wall_aux,
    wall_key,
)
from .filters import FourthOrderFilter
from .lattices import Lattice, lattice_for
from .params import FluidParams

__all__ = ["LBMethod"]

_VEL_NAMES = ("u", "v", "w")


class LBMethod:
    """Lattice Boltzmann (D2Q9 / D3Q15) in 2 or 3 dimensions.

    Works in lattice units (``dx = dt = 1``, ``c_s^2 = 1/3``);
    construction enforces ``params.require_lattice_units()``.
    """

    #: ghost layers; see module docstring
    pad = 3
    #: canonical spec name (``ProblemSpec.method``)
    method_name = "lb"
    #: the kernel module the hot paths run
    backend = fused

    def __init__(
        self,
        params: FluidParams,
        ndim: int = 2,
        inlets: Sequence[VelocityInlet] = (),
        outlets: Sequence[PressureOutlet] = (),
        pad: int | None = None,
    ) -> None:
        if ndim not in (2, 3):
            raise ValueError(f"ndim must be 2 or 3, got {ndim}")
        if pad is not None:
            if pad < type(self).pad:
                raise ValueError(
                    f"pad {pad} below the method minimum {type(self).pad}"
                )
            self.pad = pad
        if len(params.gravity) != ndim:
            raise ValueError(
                f"gravity {params.gravity} must have {ndim} components"
            )
        params.require_lattice_units()
        self.params = params
        self.ndim = ndim
        self.lattice: Lattice = lattice_for(ndim)
        self.tau = params.lb_tau
        if self.tau <= 0.5:
            raise ValueError(f"tau {self.tau} must exceed 1/2")
        self.vel_names: tuple[str, ...] = _VEL_NAMES[:ndim]
        self.field_names: tuple[str, ...] = ("rho",) + self.vel_names + ("f",)
        self._filtered = ("rho",) + self.vel_names
        self.exchange_phases: tuple[tuple[str, ...], ...] = (("f",),)
        self.inlets = tuple(inlets)
        self.outlets = tuple(outlets)
        self.filter = FourthOrderFilter(params.filter_eps)
        # The velocity set and the collision coefficients as (Q, 1)
        # columns: they broadcast straight against the (Q, n) flat
        # population spans the kernels sweep, so each fused kernel is a
        # whole-lattice expression instead of a per-direction loop.
        lat = self.lattice
        # Opposite directions are the adjacent rows 2k+1, 2k+2 (row 0 is
        # rest), each pair led by the row whose first nonzero component
        # is +1: the kernels form e_i . u of the leading rows only
        # (pair_eu_ops) and take the partner's as its exact negative.
        q = lat.q
        self._eu_terms = tuple(
            tuple((d, int(c)) for d, c in enumerate(lat.e[i]) if c)
            for i in range(1, q, 2)
        )
        if (q % 2 == 0 or lat.e[0].any()
                or any(lat.opposite[i] != i + 1 for i in range(1, q, 2))
                or any(terms[0][1] != 1 for terms in self._eu_terms)):
            raise AssertionError(
                f"{lat.name} must list rest first, then each opposite "
                "pair as rows 2k+1, 2k+2 with row 2k+1 leading with +1"
            )
        self._e_f = lat.e.astype(np.float64)
        self._e_b = tuple(self._e_f[:, d, None] for d in range(ndim))
        self._w_b = lat.w[:, None]
        # Collision + Guo forcing collapse into one polynomial per
        # population (see fused.lb_relax):
        #   delta_i = w_i rho [4.5 w eu^2 + A1_i eu + A0_i - s] - w f_i
        # with w = 1/tau, pref = 1 - 1/(2 tau), G_i = e_i . g:
        omega = 1.0 / self.tau
        pref = 1.0 - 0.5 / self.tau
        g_i = self._e_f @ np.asarray(params.gravity, dtype=np.float64)
        self._omega = omega
        self._pref = pref
        self._a1_b = (3.0 * omega + 9.0 * pref * g_i)[:, None]
        self._a0_b = (omega + 3.0 * pref * g_i)[:, None]
        # The equilibrium is the same polynomial with w = 1, g = 0.
        self._eq_a1_b = np.full((q, 1), 3.0)
        self._eq_a0_b = np.ones((q, 1))
        # Momentum accumulation index lists: every e component is -1/0/+1,
        # so the d-momentum is a signed sum of population planes — no
        # multiplies, no intermediate (Q, ...) products.
        self._mom_idx = tuple(
            (
                tuple(int(i) for i in np.flatnonzero(lat.e[:, d] > 0)),
                tuple(int(i) for i in np.flatnonzero(lat.e[:, d] < 0)),
            )
            for d in range(ndim)
        )
        # Opposite-direction pairs swapped by bounce-back (the rest
        # population is its own opposite).
        opp = lat.opposite
        self._pairs = tuple(
            (i, int(opp[i])) for i in range(lat.q) if i < opp[i]
        )

    # ------------------------------------------------------------------
    # equilibrium and forcing
    # ------------------------------------------------------------------
    def broadcast_columns(self, nodes: int):
        """``(e_b, w_b)``: the velocity components and the weights shaped
        ``(Q, 1, ..., 1)`` to broadcast against ``(Q,)`` + ``nodes``-axis
        population arrays."""
        e_b = tuple(self._column(c, nodes) for c in self._e_b)
        return e_b, self._column(self._w_b, nodes)

    def _column(self, col: np.ndarray, nodes: int) -> np.ndarray:
        """A ``(Q, 1)`` coefficient column shaped for ``nodes`` axes."""
        if nodes == 1:
            return col
        return col.reshape((self.lattice.q,) + (1,) * nodes)

    def pair_eu_ops(self, vels: Sequence[np.ndarray], out: np.ndarray):
        """The operations of ``out[k] <- e_i . u`` for the leading rows
        ``i = 2k+1``.

        Every ``e`` component is -1, 0 or +1, so each row is a signed
        sum of velocity components in axis order, with no multiply.
        The partner row ``2k+2`` is the opposite direction: its
        ``e_i . u`` is exactly ``-out[k]``, because round-to-nearest is
        symmetric in sign, so it is never formed.  (Where a zero
        component is dropped, ``e_i . u`` can differ from the product
        form only in the sign of a zero, which no polynomial below
        sees.)  ``out`` has shape ``(Q // 2,) + u.shape``.
        """
        ops = []
        for row, ((d0, _), *rest) in zip(out, self._eu_terms):
            if not rest:
                ops.append(copy_op(row, vels[d0]))
                continue
            (d1, s1), *more = rest
            ops.append((np.add if s1 > 0 else np.subtract,
                        (vels[d0], vels[d1], row)))
            ops += [(np.add if s > 0 else np.subtract, (row, vels[d], row))
                    for d, s in more]
        return ops

    @staticmethod
    def pair_polynomial_ops(
        eu: np.ndarray,
        scale: float,
        a1: np.ndarray,
        a0: np.ndarray,
        s: np.ndarray,
        out: np.ndarray,
    ):
        """The operations of ``out_i <- (scale eu_i + a1_i) eu_i + a0_i
        - s`` for every population, from the leading rows' ``eu``
        (:meth:`pair_eu_ops`).

        ``a1``/``a0`` are ``(Q, 1, ...)`` columns.  A partner row has
        ``e_i . u = -eu``, so its Horner steps are the same products with
        the signs moved into the operations: ``a1 - scale eu`` equals
        ``scale (-eu) + a1``, its product with ``eu`` is the exact
        negative of the one with ``-eu`` and is subtracted from ``a0``.
        The rest row (``e = 0``) is the closed form ``a0 - s``.  Every
        population thus gets the bits of the textbook Horner form.
        """
        lead, partner = out[1::2], out[2::2]
        return [
            (np.multiply, (eu, scale, lead)),
            (np.subtract, (a1[2::2], lead, partner)),
            (np.add, (lead, a1[1::2], lead)),
            (np.multiply, (lead, eu, lead)),
            (np.multiply, (partner, eu, partner)),
            (np.add, (lead, a0[1::2], lead)),
            (np.subtract, (a0[2::2], partner, partner)),
            (np.subtract, (a0[0], s, out[0])),
            (np.subtract, (out[1:], s, out[1:])),
        ]

    def equilibrium(
        self,
        rho: np.ndarray,
        vels: Sequence[np.ndarray],
        out: np.ndarray | None = None,
        eu: np.ndarray | None = None,
        usq: np.ndarray | None = None,
        tmp: np.ndarray | None = None,
    ) -> np.ndarray:
        """BGK equilibrium ``f_eq_i = w_i rho (1 + 3 eu + 4.5 eu^2 - 1.5 u^2)``.

        Returns an array of shape ``(Q,) + rho.shape`` — ``out`` when
        given.  The whole lattice is evaluated at once, by the
        collision's own operations (:meth:`pair_eu_ops`,
        :meth:`pair_polynomial_ops`): ``eu`` is a ``(Q // 2,) +
        rho.shape`` work buffer, ``usq``/``tmp`` are ``rho.shape`` work
        buffers; their contents are clobbered.  All buffers are
        allocated when omitted; the results are identical either way.
        """
        q = self.lattice.q
        if out is None:
            out = np.empty((q,) + rho.shape, dtype=np.float64)
        if eu is None:
            eu = np.empty((q // 2,) + rho.shape, dtype=np.float64)
        if usq is None:
            usq = np.empty(rho.shape, dtype=np.float64)
        if tmp is None:
            tmp = np.empty(rho.shape, dtype=np.float64)
        for fn, args in self.equilibrium_ops(rho, vels, out, eu, usq, tmp):
            fn(*args)
        return out

    def equilibrium_ops(self, rho, vels, out, eu, usq, tmp):
        """The operations of :meth:`equilibrium` on the given buffers."""
        nodes = rho.ndim
        # usq <- 1.5 |u|^2
        ops = [(np.multiply, (vels[0], vels[0], usq))]
        for d in range(1, self.ndim):
            ops += [(np.multiply, (vels[d], vels[d], tmp)),
                    (np.add, (usq, tmp, usq))]
        ops.append((np.multiply, (usq, 1.5, usq)))
        # out <- w_i rho ((4.5 eu + 3) eu + 1 - 1.5 u^2)   (Horner form)
        ops += self.pair_eu_ops(vels, eu)
        ops += self.pair_polynomial_ops(
            eu, 4.5, self._column(self._eq_a1_b, nodes),
            self._column(self._eq_a0_b, nodes), usq, out,
        )
        ops += [(np.multiply, (out, self._column(self._w_b, nodes), out)),
                (np.multiply, (out, rho, out))]
        return ops

    # ------------------------------------------------------------------
    # ExplicitMethod protocol
    # ------------------------------------------------------------------
    def init_subregion(self, sub: SubregionState) -> None:
        """Allocate masks, scratch and (if absent) equilibrium populations."""
        if sub.ndim != self.ndim:
            raise ValueError(
                f"subregion is {sub.ndim}D but method is {self.ndim}D"
            )
        if sub.pad != self.pad:
            raise ValueError(f"subregion pad {sub.pad} != method pad {self.pad}")
        # Bounce-back runs on the solid nodes of ring 2 (finalize_step).
        build_wall_aux(sub, solid_rings=(2,))
        self.filter.build_mask(sub)
        for i, inlet in enumerate(self.inlets):
            sub.aux[f"inlet{i}"] = inlet.box.local_mask(sub)
        for i, outlet in enumerate(self.outlets):
            sub.aux[f"outlet{i}"] = outlet.box.local_mask(sub)
        if "f" not in sub.fields:
            # Populations start at equilibrium with the decomposed
            # macroscopic state, evaluated over the whole padded array so
            # ghosts are exact from step zero.
            fused.lb_init(self, sub)

    def compute_phase(self, sub: SubregionState, phase: int) -> None:
        """BGK collision on the interior (the single compute phase)."""
        if phase != 0:  # pragma: no cover - protocol guard
            raise ValueError(f"LB has 1 compute phase, got {phase}")
        self._relax(sub)

    def finalize_step(self, sub: SubregionState) -> None:
        """Stream, bounce-back, moments, openings, filter."""
        g2 = sub.grown_interior(2)
        self._shift(sub, g2)
        self._bounce_back(sub, g2)
        self._macro(sub, g2)
        self._apply_openings(sub, g2)
        self.filter.apply(sub, self._filtered, sub.interior)

    # ------------------------------------------------------------------
    # kernels — hot paths run the fused NumPy kernels of
    # repro.fluids.fused.  Bounce-back and openings
    # stay here, on the wall-node sets of repro.fluids.boundary.
    # ------------------------------------------------------------------
    def _relax(self, sub: SubregionState) -> None:
        """BGK collision + Guo forcing; solid nodes do not collide."""
        fused.lb_relax(self, sub)

    def _shift(self, sub: SubregionState, region: Region) -> None:
        """Streaming in pull form: ``F_i(x) <- F_i(x - e_i)``."""
        fused.lb_stream(self, sub, region)

    def _bounce_back(self, sub: SubregionState, region: Region) -> None:
        """Reflect all populations at solid nodes (full bounce-back).

        Swaps each opposite pair ``(i, opp(i))`` in place on the
        precomputed solid-node set: two node-sized buffers instead of a
        ``(Q, n_solid)`` gather and its permuted copy.
        """
        for fn, args in sub.plan("bounce_back", self._bind_bounce_back,
                                 region).ops:
            fn(*args)

    def _bind_bounce_back(self, sub: SubregionState, region: Region):
        key = wall_key(sub, "solid", region)
        idx = sub.aux[key]
        held = holding(sub, ("f",), aux=(key,))
        if not idx.size:
            return [], held
        pops = flat_nodes(sub.fields["f"], self.ndim)
        a = sub.scratch(key + "_buf", idx.shape)
        b = sub.scratch(key + "_swap", idx.shape)
        ops = []
        for i, j in self._pairs:
            # mode="clip" (the indices are in range): "raise" would
            # buffer the output through a fresh temporary.
            ops += [
                (pops[i].take, (idx, None, a, "clip")),
                (pops[j].take, (idx, None, b, "clip")),
                (pops[i].__setitem__, (idx, b)),
                (pops[j].__setitem__, (idx, a)),
            ]
        return ops, held

    def _macro(self, sub: SubregionState, region: Region) -> None:
        """Fluid variables from populations (plus Guo half-force shift)."""
        fused.lb_moments(self, sub, region)

    def _apply_openings(self, sub: SubregionState, region: Region) -> None:
        """Inlets force equilibrium at the jet velocity; outlets rescale
        populations to the reference density (node-wise rules)."""
        f = sub.fields["f"]
        rho = sub.fields["rho"]
        for i, inlet in enumerate(self.inlets):
            mask = sub.aux[f"inlet{i}"][region]
            if not mask.any():
                continue
            vel = inlet.velocity_at(sub.step)
            rho_sel = rho[region][mask]
            vel_arrays = [np.full_like(rho_sel, vel[d]) for d in range(self.ndim)]
            f[(slice(None),) + region][:, mask] = self.equilibrium(
                rho_sel, vel_arrays
            )
            for d, name in enumerate(self.vel_names):
                sub.fields[name][region][mask] = vel[d]
        for i, outlet in enumerate(self.outlets):
            mask = sub.aux[f"outlet{i}"][region]
            if not mask.any():
                continue
            rho_sel = rho[region][mask]
            scale = outlet.rho / rho_sel
            f[(slice(None),) + region][:, mask] *= scale
            rho[region][mask] = outlet.rho
