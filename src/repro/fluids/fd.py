"""Explicit finite differences for subsonic flow (paper §6, eqs. 1-3).

A straightforward discretization of the isothermal compressible
Navier-Stokes equations: spatial derivatives by centered differences on
a uniform orthogonal grid, time derivatives by forward Euler.  For the
purpose of improving numerical stability the density equation (eq. 1)
is updated *using the velocities at time t+dt*: the velocity values are
computed first and the density is computed as a separate step — which is
also why FD sends **two messages per integration step** per neighbour
(velocity boundary, then density boundary) where the lattice Boltzmann
method sends one, the difference whose performance consequences §7
measures.

Per-step sequence (paper §6)::

    Calculate   Vx, Vy[, Vz]   (inner)
    Communicate Vx, Vy[, Vz]   (boundary)
    Calculate   rho            (inner)
    Communicate rho            (boundary)
    Filter      rho, Vx, Vy[, Vz] (inner)

Ghost width is 4: updates reach 1, the wall-density rule reaches 1 more,
and the fourth-order filter reaches 2 beyond that; ring-1 ghosts are
re-filtered locally so the two messages above are the only communication.
"""

from __future__ import annotations

from typing import Sequence

from ..core.subregion import SubregionState
from . import fused
from .boundary import (
    PressureOutlet,
    VelocityInlet,
    build_wall_aux,
    enforce_noslip,
    enforce_wall_density,
)
from .filters import FourthOrderFilter
from .params import FluidParams

__all__ = ["FDMethod"]

_VEL_NAMES = ("u", "v", "w")


class FDMethod:
    """Explicit finite differences in 2 or 3 dimensions.

    Parameters
    ----------
    params:
        Physical/numerical parameters; ``params.check_stability(ndim)``
        is enforced at construction.
    ndim:
        2 or 3.
    inlets, outlets:
        Optional openings in the enclosing walls.
    """

    #: ghost layers; see module docstring
    pad = 4
    #: canonical spec name (``ProblemSpec.method``)
    method_name = "fd"
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
        params.check_stability(ndim)
        self.params = params
        self.ndim = ndim
        self.vel_names: tuple[str, ...] = _VEL_NAMES[:ndim]
        self.field_names: tuple[str, ...] = ("rho",) + self.vel_names
        self.exchange_phases: tuple[tuple[str, ...], ...] = (
            self.vel_names,
            ("rho",),
        )
        self.inlets = tuple(inlets)
        self.outlets = tuple(outlets)
        self.filter = FourthOrderFilter(params.filter_eps)

    # ------------------------------------------------------------------
    # ExplicitMethod protocol
    # ------------------------------------------------------------------
    def init_subregion(self, sub: SubregionState) -> None:
        """Build the wall sets and masks of a fresh subregion (the
        kernels bind their scratch and plans on the first step)."""
        if sub.ndim != self.ndim:
            raise ValueError(
                f"subregion is {sub.ndim}D but method is {self.ndim}D"
            )
        if sub.pad != self.pad:
            raise ValueError(f"subregion pad {sub.pad} != method pad {self.pad}")
        # No-slip runs on the interior, ring 1 and ring 3; the density
        # rule on ring 3 (see finalize_step and the two updates).
        build_wall_aux(sub, solid_rings=(0, 1, 3), density_rings=(3,))
        self.filter.build_mask(sub)
        for i, inlet in enumerate(self.inlets):
            sub.aux[f"inlet{i}"] = inlet.box.local_mask(sub)
        for i, outlet in enumerate(self.outlets):
            sub.aux[f"outlet{i}"] = outlet.box.local_mask(sub)

    def compute_phase(self, sub: SubregionState, phase: int) -> None:
        """Velocity update (phase 0) or density update (phase 1)."""
        if phase == 0:
            self._update_velocity(sub)
        elif phase == 1:
            self._update_density(sub)
        else:  # pragma: no cover - protocol guard
            raise ValueError(f"FD has 2 compute phases, got {phase}")

    def finalize_step(self, sub: SubregionState) -> None:
        """Wall rules, openings, then the fourth-order filter."""
        g1 = sub.grown_interior(1)
        g3 = sub.grown_interior(3)
        enforce_wall_density(sub, g3)
        # Ghost-ring solid nodes facing an *inactive* block are never
        # refreshed by an exchange; zeroing them locally reproduces the
        # no-slip values the serial program holds there.
        enforce_noslip(sub, self.vel_names, g3)
        self._apply_openings(sub, g3)
        self.filter.apply(sub, self.field_names, g1)

    # ------------------------------------------------------------------
    # kernels — hot paths run the fused NumPy kernels of
    # repro.fluids.fused.  No-slip enforcement stays
    # here, on the wall-node sets of repro.fluids.boundary.
    # ------------------------------------------------------------------
    def _update_velocity(self, sub: SubregionState) -> None:
        """Forward-Euler momentum update (eqs. 2-3) on the interior."""
        fused.fd_velocity(self, sub)
        enforce_noslip(sub, self.vel_names, sub.interior)

    def _update_density(self, sub: SubregionState) -> None:
        """Continuity update (eq. 1) with time-(t+dt) velocities."""
        # The freshly exchanged velocity ghosts are no-slip-enforced
        # already, except ghosts held against inactive blocks (and, at
        # step 0, the raw initial condition): enforce over one ring so
        # the mass fluxes read clean wall velocities.
        enforce_noslip(sub, self.vel_names, sub.grown_interior(1))
        fused.fd_density(self, sub)

    def _apply_openings(self, sub: SubregionState, region) -> None:
        """Force inlet velocities and outlet densities (node-wise)."""
        for i, inlet in enumerate(self.inlets):
            mask = sub.aux[f"inlet{i}"][region]
            if not mask.any():
                continue
            vel = inlet.velocity_at(sub.step)
            for d, name in enumerate(self.vel_names):
                arr = sub.fields[name][region]
                arr[mask] = vel[d]
        for i, outlet in enumerate(self.outlets):
            mask = sub.aux[f"outlet{i}"][region]
            if not mask.any():
                continue
            sub.fields["rho"][region][mask] = outlet.rho
