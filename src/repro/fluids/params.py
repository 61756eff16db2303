"""Physical and numerical parameters of a subsonic flow simulation.

The paper's problems carry two time scales — slow hydrodynamic flow and
fast acoustic waves — and the acoustic scale dominates the choice of
integration time step: resolving wave propagation and reflection demands
``c_s * dt`` comparable to ``dx`` (eq. 4), which is why the large steps
of implicit methods buy nothing here and explicit, local methods win.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["FluidParams"]

#: Lattice speed of sound of the D2Q9 / D3Q15 lattices in lattice units.
LATTICE_CS = 1.0 / math.sqrt(3.0)


@dataclass(frozen=True)
class FluidParams:
    """Parameters shared by the FD and LB methods.

    Parameters
    ----------
    nu:
        Kinematic viscosity (the friction constant of eqs. 2-3).
    cs:
        Speed of sound (the stiffness constant of eqs. 2-3).
    dx, dt:
        Grid spacing and integration time step.  The defaults put the
        solver in lattice units (``dx = dt = 1``) with the lattice speed
        of sound, where FD and LB are directly comparable.
    rho0:
        Reference density (initial fill and outlet pressure datum).
    filter_eps:
        Strength of the fourth-order numerical-viscosity filter; 0
        disables it.  Stability of the filter itself requires
        ``filter_eps <= 1/16`` per axis.
    gravity:
        Body-force acceleration per axis (drives the Hagen-Poiseuille
        validation flow).
    """

    nu: float = 0.05
    cs: float = LATTICE_CS
    dx: float = 1.0
    dt: float = 1.0
    rho0: float = 1.0
    filter_eps: float = 0.02
    gravity: tuple[float, ...] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if self.nu <= 0:
            raise ValueError(f"viscosity must be positive, got {self.nu}")
        if self.cs <= 0 or self.dx <= 0 or self.dt <= 0:
            raise ValueError("cs, dx and dt must be positive")
        if not 0.0 <= self.filter_eps <= 1.0 / 16.0:
            raise ValueError(
                f"filter_eps {self.filter_eps} outside the stable "
                "range [0, 1/16]"
            )

    # ------------------------------------------------------------------
    # derived numbers
    # ------------------------------------------------------------------
    @property
    def acoustic_cfl(self) -> float:
        """``c_s dt / dx`` — must be O(1) or below (eq. 4 and stability)."""
        return self.cs * self.dt / self.dx

    @property
    def viscous_number(self) -> float:
        """``nu dt / dx^2`` — explicit diffusion stability number."""
        return self.nu * self.dt / (self.dx * self.dx)

    def check_stability(self, ndim: int = 2) -> None:
        """Raise if the explicit FD step sizes are clearly unstable.

        Conservative bounds: acoustic ``c_s dt / dx <= 1/sqrt(ndim)``
        and viscous ``nu dt / dx^2 <= 1/(2 ndim)``.
        """
        a_lim = 1.0 / math.sqrt(ndim)
        v_lim = 1.0 / (2.0 * ndim)
        if self.acoustic_cfl > a_lim + 1e-12:
            raise ValueError(
                f"acoustic CFL {self.acoustic_cfl:.3f} exceeds {a_lim:.3f}"
            )
        if self.viscous_number > v_lim + 1e-12:
            raise ValueError(
                f"viscous number {self.viscous_number:.3f} exceeds "
                f"{v_lim:.3f}"
            )

    # ------------------------------------------------------------------
    # lattice Boltzmann mapping
    # ------------------------------------------------------------------
    @property
    def lb_tau(self) -> float:
        """BGK relaxation time reproducing ``nu``: ``tau = 3 nu* + 1/2``.

        ``nu* = nu dt / dx^2`` is the viscosity in lattice units; the
        method is well-posed for ``tau > 1/2``.
        """
        return 3.0 * self.viscous_number + 0.5

    def require_lattice_units(self) -> None:
        """LB runs on the lattice: ``c_s`` must equal ``(dx/dt)/sqrt(3)``."""
        want = (self.dx / self.dt) * LATTICE_CS
        if not math.isclose(self.cs, want, rel_tol=1e-12):
            raise ValueError(
                f"lattice Boltzmann requires cs = (dx/dt)/sqrt(3) = "
                f"{want:.6g}, got {self.cs:.6g}; use "
                f"FluidParams.lattice(nu=...) or adjust dt"
            )

    @classmethod
    def lattice(cls, ndim: int = 2, **kw) -> "FluidParams":
        """Lattice-unit parameters (``dx = dt = 1``, lattice ``c_s``)."""
        g = kw.pop("gravity", (0.0,) * ndim)
        if len(g) != ndim:
            raise ValueError(f"gravity {g} must have {ndim} components")
        return cls(dx=1.0, dt=1.0, cs=LATTICE_CS, gravity=tuple(g), **kw)
