"""The scenario library: every validated flow of the repo, scored.

Each scenario pins a calibrated configuration (grid, viscosity,
forcing, step count) and the tolerance its score gates on.  The
tolerances are *measured*, not aspirational — each one documents the
residual observed on the pinned configuration with headroom for
backend-to-backend reduction-order noise:

========================  =============================  ==============
scenario                  reference                      measured
========================  =============================  ==============
poiseuille                exact parabola                 ~2e-3 (tol 5e-3)
duct3d                    exact Fourier series           fd 8e-3 / lb 4e-2
cavity Re=100             Hou et al. (0.6196, 0.7373)    0.013 (tol 0.025)
cavity Re=400             Hou et al. (0.5608, 0.6078)    0.009 (tol 0.025)
cavity Re=1000            Hou et al. (0.5333, 0.5647)    0.013 (tol 0.030)
flue_pipe                 quarter-wave tone of the pipe  0.43 f_qw, SNR 16
cylinder_wake             von Karman street structure    wake ratio 0.95
acoustic_wave             2 x standing-wave frequency    rel err 4e-3
taylor_green              exact decay exp(-4 nu k^2 t)   see bounds
hybrid_channel            exact parabola across a seam   ~2e-3 (tol 5e-3)
conservation              exact mass invariance          drift ~1e-13 (lb)
efficiency                paper figs. 5-11 (simulated)   f <= 1
========================  =============================  ==============
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from ..distrib import ProblemSpec
from ..fluids.analytic import (
    acoustic_frequency,
    duct_profile,
    poiseuille_profile,
    taylor_green_decay_rate,
)
from ..fluids.observables import primary_vortex, spectral_peak
from .base import Case, Param, Scenario, Score, diag_series, register

__all__ = ["HOU_CAVITY_CENTERS"]

#: Primary-vortex centers (x, y) of the lid-driven cavity, fractions of
#: the cavity side measured from the left/bottom walls, lid moving +x
#: along the top.  Hou, Zou, Chen, Doolen & Cogley, JCP 118 (1995).
HOU_CAVITY_CENTERS = {
    100: (0.6196, 0.7373),
    400: (0.5608, 0.6078),
    1000: (0.5333, 0.5647),
}

#: documented per-Re tolerance on the center position (fraction of the
#: cavity side, euclidean); measured errors are 0.009-0.013 on the
#: pinned grids — the bound leaves ~2x headroom.
CAVITY_CENTER_TOL = {100: 0.025, 400: 0.025, 1000: 0.030}


def _mass_drift(diagnostics: Sequence[Any]) -> float | None:
    """Max relative total-mass drift over the run, or None without a
    usable diagnostics series."""
    mass = diag_series(diagnostics, "total_mass")
    if mass.size < 2 or mass[0] == 0.0:
        return None
    return float(np.max(np.abs(mass - mass[0])) / abs(mass[0]))


def _n_nonfinite(diagnostics: Sequence[Any]) -> float | None:
    n = diag_series(diagnostics, "n_nonfinite")
    if n.size == 0:
        return None
    return float(n.max())


def _with_diag(
    residuals: dict, bounds: dict, name: str, value: float | None,
    bound: float | None,
) -> None:
    """Record a diagnostics-derived residual; gate it only when the
    series was actually sampled (local scoring of a fields-only result
    must not fail on absent diagnostics)."""
    if value is None:
        return
    residuals[name] = value
    if bound is not None:
        bounds[name] = bound


def _shortfall(value: float, minimum: float) -> float:
    """Residual for a >=-style gate: 0 when satisfied, the gap when not
    (so Score.check's ``value > bound`` with bound 0 does the test)."""
    return float(max(0.0, minimum - value))


# ----------------------------------------------------------------------
# 1. plane Poiseuille channel (the paper's §7 validation flow)
# ----------------------------------------------------------------------
class PoiseuilleScenario(Scenario):
    name = "poiseuille"
    version = 1
    title = "Body-force-driven plane channel vs the exact parabola"
    reference = "u(y) = g y (H - y) / (2 nu), paper §7"
    params = {
        "method": Param("lb", "solver", choices=("lb", "fd")),
        "ny": Param(32, "wall-normal grid nodes", lo=16, hi=256),
        "nu": Param(0.1, "kinematic viscosity", lo=1e-3, hi=0.5),
        "g": Param(1e-5, "body-force acceleration", lo=1e-8, hi=1e-3),
        "steps": Param(12000, "time steps", lo=100),
        "tol": Param(5e-3, "max relative profile error", lo=1e-5),
    }

    def _build(self, p: dict[str, Any]) -> Case:
        ny = p["ny"]
        spec = ProblemSpec(
            method=p["method"],
            grid_shape=(ny // 2, ny),
            blocks=(1, 2),
            periodic=(True, False),
            params={"nu": p["nu"], "gravity": (p["g"], 0.0),
                    "filter_eps": 0.0},
            geometry={"kind": "channel"},
        )
        return Case(spec, {"steps": p["steps"], "diag_every": 1000})

    def _profile_error(self, p, u_slice, offset, span):
        ny = p["ny"]
        y = np.arange(ny, dtype=float) - offset
        exact = poiseuille_profile(y, span, p["g"], p["nu"])
        sl = slice(1, ny - 1)
        return float(
            np.abs(u_slice[sl] - exact[sl]).max() / exact.max()
        )

    def _score(self, p, result) -> Score:
        u = np.asarray(result.fields["u"])
        # each method resolves the wall at its own offset (§7: compare
        # against the method's effective channel height)
        offset, span = (
            (0.5, p["ny"] - 2.0) if p["method"] == "lb"
            else (0.0, p["ny"] - 1.0)
        )
        err = self._profile_error(p, u[u.shape[0] // 2], offset, span)
        residuals = {"profile_err": err}
        bounds = {"profile_err": p["tol"]}
        _with_diag(residuals, bounds, "mass_drift",
                   _mass_drift(result.diagnostics), 1e-6)
        return Score.check(residuals, bounds)


# ----------------------------------------------------------------------
# 2. 3D rectangular duct (figs. 9-11 grids are 10^3..44^3 ducts)
# ----------------------------------------------------------------------
class Duct3DScenario(Scenario):
    name = "duct3d"
    version = 1
    title = "3D rectangular duct vs the exact Fourier-series profile"
    reference = "Landau & Lifshitz §17; tests/integration/test_duct_3d"
    params = {
        "method": Param("fd", "solver", choices=("fd", "lb")),
        "n": Param(13, "duct cross-section nodes", lo=9, hi=33),
        "nu": Param(0.08, "kinematic viscosity", lo=1e-3, hi=0.5),
        "g": Param(1e-6, "body-force acceleration", lo=1e-9, hi=1e-4),
        "steps": Param(2500, "time steps", lo=100),
    }

    def _build(self, p: dict[str, Any]) -> Case:
        n = p["n"]
        spec = ProblemSpec(
            method=p["method"],
            grid_shape=(6, n, n),
            blocks=(1, 1, 1),
            periodic=(True, False, False),
            params={"nu": p["nu"], "gravity": (p["g"], 0.0, 0.0),
                    "filter_eps": 0.0},
            geometry={"kind": "channel"},
        )
        return Case(spec, {"steps": p["steps"], "diag_every": 500})

    def _score(self, p, result) -> Score:
        n = p["n"]
        u3 = np.asarray(result.fields["u"])
        u = u3[u3.shape[0] // 2]
        offset = 0.0 if p["method"] == "fd" else 0.5
        span = (n - 1.0) if offset == 0.0 else (n - 2.0)
        j = np.arange(n, dtype=float)
        y = (j - offset)[:, None]
        z = (j - offset)[None, :]
        exact = duct_profile(y, z, span, span, p["g"], p["nu"])
        fluid = np.zeros((n, n), dtype=bool)
        fluid[1:-1, 1:-1] = True
        err = float(np.abs(u[fluid] - exact[fluid]).max() / exact.max())
        tol = 1e-2 if p["method"] == "fd" else 5e-2
        residuals = {"profile_err": err}
        bounds = {"profile_err": tol}
        _with_diag(residuals, bounds, "mass_drift",
                   _mass_drift(result.diagnostics), 1e-6)
        return Score.check(residuals, bounds)


# ----------------------------------------------------------------------
# 3. lid-driven cavity vs Hou et al.
# ----------------------------------------------------------------------
class CavityScenario(Scenario):
    name = "cavity"
    version = 1
    title = "Lid-driven cavity primary vortex vs Hou et al."
    reference = "Hou et al., JCP 118 (1995), table II"
    params = {
        "Re": Param(100, "Reynolds number", choices=(100, 400, 1000)),
        "n": Param(0, "cavity side nodes (0 = auto per Re)", lo=0,
                   hi=256),
        "steps": Param(0, "time steps (0 = auto per Re)", lo=0),
        "lid_speed": Param(0.1, "lid speed (lattice units)", lo=0.01,
                           hi=0.2),
    }

    @staticmethod
    def _auto(p):
        n = p["n"] or (64 if p["Re"] == 100 else 96)
        steps = p["steps"] or {100: 8000, 400: 12000, 1000: 24000}[p["Re"]]
        return n, steps

    def _build(self, p: dict[str, Any]) -> Case:
        n, steps = self._auto(p)
        # nu from Re = U L / nu with L the cavity side
        nu = p["lid_speed"] * n / p["Re"]
        spec = ProblemSpec(
            method="lb",
            grid_shape=(n + 2, n + 2),
            blocks=(2, 2),
            periodic=(False, False),
            params={"nu": nu, "filter_eps": 0.01},
            geometry={"kind": "cavity", "lid_speed": p["lid_speed"],
                      "ramp_steps": 100},
        )
        return Case(spec, {"steps": steps, "diag_every": max(steps // 20,
                                                             1)})

    def _score(self, p, result) -> Score:
        n, _ = self._auto(p)
        case = self._build(p)
        solid, _, _ = case.spec.build_geometry()
        u = np.asarray(result.fields["u"])
        v = np.asarray(result.fields["v"])
        cx, cy = primary_vortex(u, v, mask=~solid)
        # wall surfaces sit half a node outside the first fluid node:
        # node j maps to fraction (j - 0.5) / n of the cavity side
        fx, fy = (cx - 0.5) / n, (cy - 0.5) / n
        ref = HOU_CAVITY_CENTERS[p["Re"]]
        err = float(np.hypot(fx - ref[0], fy - ref[1]))
        residuals = {"center_err": err}
        bounds = {"center_err": CAVITY_CENTER_TOL[p["Re"]]}
        details = {"center": (fx, fy), "reference": ref}
        _with_diag(residuals, bounds, "nonfinite",
                   _n_nonfinite(result.diagnostics), 0.0)
        return Score.check(residuals, bounds, details)


# ----------------------------------------------------------------------
# 4-5. flue pipe (figs. 1-2), promoted from demo to scored scenario
# ----------------------------------------------------------------------
def _flue_quarter_wave(nx: int, cs: float) -> float:
    """Naive quarter-wave frequency of the resonant pipe.

    The pipe interior runs from the labium edge (0.30 nx) to the end
    cap (nx - 2 th); an ideal closed-open column of that length L
    resonates at cs / (4 L).  End corrections, the finite mouth and the
    jet offset shift the real tone well below this (measured 0.43 x on
    the pinned grid), so scores gate on a factor-3 window, not a
    percentage.
    """
    th = max(2, nx // 64)
    length = (1.0 - 2.0 * th / nx - 0.30) * nx
    return cs / (4.0 * length)


class FluePipeScenario(Scenario):
    name = "flue_pipe"
    version = 1
    title = "Flue-pipe jet tone (fig. 1) via diagnostics spectroscopy"
    reference = "paper figs. 1-2; quarter-wave estimate of the pipe"
    params = {
        "nx": Param(200, "grid width", lo=96, hi=1200),
        "jet_speed": Param(0.12, "jet inflow speed", lo=0.02, hi=0.3),
        "nu": Param(0.02, "kinematic viscosity", lo=1e-3, hi=0.2),
        "steps": Param(6000, "time steps", lo=1000),
        "diag_every": Param(2, "diagnostics sampling stride", lo=1,
                            hi=16),
    }

    def _grid(self, p):
        nx = p["nx"]
        return nx, (nx * 5) // 8

    def _build(self, p: dict[str, Any]) -> Case:
        nx, ny = self._grid(p)
        spec = ProblemSpec(
            method="lb",
            grid_shape=(nx, ny),
            blocks=(2, 2),
            periodic=(False, False),
            params={"nu": p["nu"]},
            geometry={"kind": "flue_pipe", "jet_speed": p["jet_speed"],
                      "ramp_steps": 50},
        )
        return Case(spec, {"steps": p["steps"],
                           "diag_every": p["diag_every"]})

    def _score(self, p, result) -> Score:
        nx, _ = self._grid(p)
        case = self._build(p)
        cs = case.spec.build_params().cs
        f_qw = _flue_quarter_wave(nx, cs)
        mass = diag_series(result.diagnostics, "total_mass")
        if mass.size < 64:
            return Score(
                passed=False,
                failures=["needs a diagnostics series (diag_every <= "
                          "steps/64) to hear the tone"],
            )
        # drop the start-up transient, then difference the series: the
        # mass of an open pipe drifts as a red continuum that would
        # mask the tone; d(mass)/dt is flat enough to expose the
        # acoustic line (verified against a mouth-pressure probe).
        settle = mass.size // 3
        dmass = np.diff(mass[settle:])
        dt = float(p["diag_every"])
        band = (f_qw / 10.0, f_qw * 10.0)
        freq, amp = spectral_peak(dmass, dt=dt, band=band)
        from ..fluids.probes import spectrum

        fgrid, agrid = spectrum(dmass, dt)
        in_band = (fgrid >= band[0]) & (fgrid <= band[1]) & (fgrid > 0)
        floor = float(np.median(agrid[in_band]))
        snr = amp / floor if floor > 0 else np.inf
        factor = float(max(freq / f_qw, f_qw / freq))
        residuals = {
            "tone_factor": factor,       # distance from f_qw, as a ratio
            "inv_snr": float(1.0 / snr),
        }
        bounds = {"tone_factor": 3.0, "inv_snr": 0.2}
        details = {"frequency": freq, "quarter_wave": f_qw, "snr": snr}
        _with_diag(residuals, bounds, "nonfinite",
                   _n_nonfinite(result.diagnostics), 0.0)
        return Score.check(residuals, bounds, details)


class FluePipeChannelScenario(Scenario):
    name = "flue_pipe_channel"
    version = 1
    title = "Fig. 2 channel flue pipe: jet active, solid blocks inactive"
    reference = "paper fig. 2 (15 workstations for a 6x4 decomposition)"
    params = {
        "nx": Param(200, "grid width", lo=96, hi=1200),
        "jet_speed": Param(0.12, "jet inflow speed", lo=0.02, hi=0.3),
        "nu": Param(0.02, "kinematic viscosity", lo=1e-3, hi=0.2),
        "steps": Param(2000, "time steps", lo=200),
    }

    def _build(self, p: dict[str, Any]) -> Case:
        nx = p["nx"]
        spec = ProblemSpec(
            method="lb",
            grid_shape=(nx, (nx * 5) // 8),
            blocks=(4, 4),
            periodic=(False, False),
            params={"nu": p["nu"]},
            geometry={"kind": "flue_pipe", "variant": "channel",
                      "jet_speed": p["jet_speed"], "ramp_steps": 50},
        )
        return Case(spec, {"steps": p["steps"], "diag_every": 100})

    def _score(self, p, result) -> Score:
        case = self._build(p)
        decomp = case.spec.build_decomposition()
        inactive = int(np.prod(case.spec.blocks)) - len(
            decomp.active_blocks()
        )
        solid, _, _ = case.spec.build_geometry()
        speed = np.hypot(np.asarray(result.fields["u"]),
                         np.asarray(result.fields["v"]))[~solid]
        vmax = float(speed.max())
        cs = case.spec.build_params().cs
        residuals = {
            # the fig. 2 geometry must idle whole subregions
            "inactive_shortfall": _shortfall(inactive, 1.0),
            # the jet must be up and the flow subsonic
            "jet_shortfall": _shortfall(vmax, 0.5 * p["jet_speed"]),
            "mach": vmax / cs,
        }
        bounds = {"inactive_shortfall": 0.0, "jet_shortfall": 0.0,
                  "mach": 0.9}
        details = {"inactive_blocks": inactive, "max_speed": vmax}
        _with_diag(residuals, bounds, "nonfinite",
                   _n_nonfinite(result.diagnostics), 0.0)
        return Score.check(residuals, bounds, details)


# ----------------------------------------------------------------------
# 6. cylinder wake (von Karman street)
# ----------------------------------------------------------------------
class CylinderWakeScenario(Scenario):
    name = "cylinder_wake"
    version = 1
    title = "Cylinder in a channel: a von Karman street develops"
    reference = "standard vortex-street qualification flow"
    params = {
        "nx": Param(160, "grid length", lo=96, hi=1024),
        "Re": Param(120, "Reynolds number (U D / nu)", lo=60, hi=300),
        "speed": Param(0.08, "free-stream speed", lo=0.02, hi=0.15),
        "radius_frac": Param(0.08, "cylinder radius / channel height",
                             lo=0.04, hi=0.15),
        "steps": Param(6000, "time steps", lo=1000),
    }

    def _derived(self, p):
        nx = p["nx"]
        ny = nx // 2
        diameter = 2.0 * p["radius_frac"] * ny
        nu = p["speed"] * diameter / p["Re"]
        # body force holding the mean flow against drag: 2x the plane
        # Poiseuille force for this centerline speed (the obstacle adds
        # blockage losses)
        g = 8.0 * nu * p["speed"] / (ny - 2.0) ** 2 * 2.0
        return nx, ny, diameter, nu, g

    def _build(self, p: dict[str, Any]) -> Case:
        nx, ny, _, nu, g = self._derived(p)
        spec = ProblemSpec(
            method="lb",
            grid_shape=(nx, ny),
            blocks=(4, 1),
            periodic=(True, False),
            params={"nu": nu, "gravity": (g, 0.0), "filter_eps": 0.01},
            geometry={"kind": "cylinder", "radius_frac": p["radius_frac"],
                      "center_frac": (0.25, 0.5)},
            # impulsive start: spinning the flow up from rest by body
            # force alone takes O(H^2/nu) ~ 10^5 steps
            init={"kind": "uniform_flow", "speed": p["speed"],
                  "perturb": 1e-2},
        )
        return Case(spec, {"steps": p["steps"], "diag_every": 4})

    def _score(self, p, result) -> Score:
        nx, ny, diameter, _, _ = self._derived(p)
        case = self._build(p)
        solid, _, _ = case.spec.build_geometry()
        u = np.asarray(result.fields["u"])
        v = np.asarray(result.fields["v"])
        u_mean = float(u[~solid].mean())
        wake_ratio = float(np.abs(v[~solid]).max() / max(u_mean, 1e-12))
        # spatial wavelength of the street: dominant mode of v along
        # the centerline downstream of the cylinder
        x0 = nx // 4 + int(diameter)
        line = v[x0:, ny // 2]
        wavelength = np.nan
        if line.size >= 16:
            amp = np.abs(np.fft.rfft(line - line.mean()))
            k = int(np.argmax(amp[1:]) + 1)
            wavelength = line.size / k / diameter
        residuals = {
            # the mean flow must survive the blockage...
            "mean_flow_shortfall": _shortfall(u_mean / p["speed"], 0.25),
            # ...and carry transverse oscillations (the street)
            "wake_shortfall": _shortfall(wake_ratio, 0.3),
            # street spacing lands in a generous physical window
            "wavelength_dev": float(
                max(0.0, 3.0 - wavelength, wavelength - 15.0)
            ),
        }
        bounds = {"mean_flow_shortfall": 0.0, "wake_shortfall": 0.0,
                  "wavelength_dev": 0.0}
        details = {"u_mean": u_mean, "wake_ratio": wake_ratio,
                   "street_wavelength_D": wavelength}
        _with_diag(residuals, bounds, "mass_drift",
                   _mass_drift(result.diagnostics), 1e-3)
        return Score.check(residuals, bounds, details)


# ----------------------------------------------------------------------
# 7. acoustic standing wave
# ----------------------------------------------------------------------
class AcousticWaveScenario(Scenario):
    name = "acoustic_wave"
    version = 1
    title = "Standing-wave frequency vs the exact acoustic dispersion"
    reference = "omega = cs k (eq. 4's fast scale); KE oscillates at 2f"
    params = {
        "method": Param("lb", "solver", choices=("lb", "fd")),
        "nx": Param(64, "box length", lo=16, hi=512),
        "mode": Param(1, "standing-wave mode number", lo=1, hi=4),
        "nu": Param(1e-3, "kinematic viscosity", lo=1e-5, hi=0.05),
        "steps": Param(800, "time steps", lo=100),
    }

    def _build(self, p: dict[str, Any]) -> Case:
        spec = ProblemSpec(
            method=p["method"],
            grid_shape=(p["nx"], 8),
            blocks=(2, 1),
            periodic=(True, True),
            params={"nu": p["nu"], "filter_eps": 0.0},
            init={"kind": "standing_wave", "mode": p["mode"],
                  "amplitude": 1e-3},
        )
        return Case(spec, {"steps": p["steps"], "diag_every": 1})

    def _score(self, p, result) -> Score:
        case = self._build(p)
        params = case.spec.build_params()
        ke = diag_series(result.diagnostics, "kinetic_energy")
        if ke.size < 64:
            return Score(
                passed=False,
                failures=["needs a per-step diagnostics series to "
                          "measure the oscillation"],
            )
        # KE ~ sin^2(omega t) oscillates at twice the wave frequency
        f_wave = acoustic_frequency(
            p["nx"] * params.dx, p["mode"], params.cs
        ) / (2.0 * np.pi)
        freq, _ = spectral_peak(ke, dt=params.dt)
        rel_err = float(abs(freq - 2.0 * f_wave) / (2.0 * f_wave))
        residuals = {"freq_rel_err": rel_err}
        bounds = {"freq_rel_err": 2e-2}
        details = {"frequency": freq, "expected": 2.0 * f_wave}
        _with_diag(residuals, bounds, "mass_drift",
                   _mass_drift(result.diagnostics), 1e-9)
        return Score.check(residuals, bounds, details)


# ----------------------------------------------------------------------
# 8. Taylor-Green vortex decay
# ----------------------------------------------------------------------
class TaylorGreenScenario(Scenario):
    name = "taylor_green"
    version = 1
    title = "Taylor-Green decay rate and vortex-center fidelity"
    reference = "exact Navier-Stokes solution: E(t) = E0 exp(-4 nu k^2 t)"
    params = {
        "n": Param(64, "periodic box side", lo=32, hi=256),
        "nu": Param(0.01, "kinematic viscosity", lo=1e-3, hi=0.1),
        "u0": Param(0.05, "initial velocity amplitude", lo=0.005,
                    hi=0.15),
        "steps": Param(2000, "time steps", lo=200),
    }

    def _build(self, p: dict[str, Any]) -> Case:
        n = p["n"]
        spec = ProblemSpec(
            method="lb",
            grid_shape=(n, n),
            blocks=(2, 2),
            periodic=(True, True),
            # the nonlinear filter adds artificial dissipation that
            # biases the measured decay rate; the exact solution needs
            # none
            params={"nu": p["nu"], "filter_eps": 0.0},
            init={"kind": "taylor_green", "u0": p["u0"]},
        )
        return Case(spec, {"steps": p["steps"], "diag_every": 50})

    def _score(self, p, result) -> Score:
        n = p["n"]
        case = self._build(p)
        params = case.spec.build_params()
        ke = diag_series(result.diagnostics, "kinetic_energy")
        step = diag_series(result.diagnostics, "step")
        residuals: dict[str, float] = {}
        bounds: dict[str, float] = {}
        details: dict[str, Any] = {}
        if ke.size >= 4 and np.all(ke > 0):
            slope = np.polyfit(step * params.dt, np.log(ke), 1)[0]
            rate = taylor_green_decay_rate(n * params.dx, p["nu"])
            rel = float(abs(-slope - rate) / rate)
            residuals["decay_rel_err"] = rel
            bounds["decay_rel_err"] = 0.05
            details["decay_rate"] = float(-slope)
            details["expected_rate"] = rate
        else:
            residuals["decay_rel_err"] = np.nan
            bounds["decay_rel_err"] = 0.05
        # the vortex array must not wander: centers of the initial
        # condition sit at multiples of n/2 (psi extrema of cos kx cos ky)
        cx, cy = primary_vortex(
            np.asarray(result.fields["u"]), np.asarray(result.fields["v"])
        )
        half = n / 2.0
        drift = float(
            np.hypot(
                min(cx % half, half - cx % half),
                min(cy % half, half - cy % half),
            ) / n
        )
        residuals["center_drift"] = drift
        bounds["center_drift"] = 0.01
        details["center"] = (cx, cy)
        _with_diag(residuals, bounds, "mass_drift",
                   _mass_drift(result.diagnostics), 1e-11)
        return Score.check(residuals, bounds, details)


# ----------------------------------------------------------------------
# 9. hybrid FD/LB channel (the v2 region-map seam)
# ----------------------------------------------------------------------
class HybridChannelScenario(Scenario):
    name = "hybrid_channel"
    version = 1
    title = "Poiseuille across an FD/LB method seam (spec v2)"
    reference = "exact parabola; seam accuracy per the hybrid bench"
    params = {
        "ny": Param(32, "wall-normal grid nodes", lo=16, hi=128),
        "nu": Param(0.1, "kinematic viscosity", lo=1e-3, hi=0.5),
        "g": Param(1e-5, "body-force acceleration", lo=1e-8, hi=1e-3),
        "steps": Param(12000, "time steps", lo=100),
        "tol": Param(5e-3, "max relative profile error", lo=1e-5),
    }

    def _build(self, p: dict[str, Any]) -> Case:
        ny = p["ny"]
        nx = ny // 2
        spec = ProblemSpec(
            # LB resolves the lower wall, FD the upper half: the seam
            # runs along the block boundary at ny/2
            method={"default": "lb", "regions": [
                {"box": [[0, ny // 2], [nx, ny]], "method": "fd"},
            ]},
            grid_shape=(nx, ny),
            blocks=(1, 2),
            periodic=(True, False),
            params={"nu": p["nu"], "gravity": (p["g"], 0.0),
                    "filter_eps": 0.0},
            geometry={"kind": "channel"},
        )
        return Case(spec, {"steps": p["steps"], "diag_every": 1000})

    def _score(self, p, result) -> Score:
        ny = p["ny"]
        u = np.asarray(result.fields["u"])
        # mixed wall placements: LB's bottom wall sits at -0.5, FD's
        # top wall at ny-1 -> effective height ny - 1.5
        y = np.arange(ny, dtype=float) - 0.5
        exact = poiseuille_profile(y, ny - 1.5, p["g"], p["nu"])
        sl = slice(1, ny - 1)
        err = float(
            np.abs(u[u.shape[0] // 2][sl] - exact[sl]).max()
            / exact.max()
        )
        residuals = {"profile_err": err}
        bounds = {"profile_err": p["tol"]}
        _with_diag(residuals, bounds, "mass_drift",
                   _mass_drift(result.diagnostics), 1e-6)
        return Score.check(residuals, bounds)


# ----------------------------------------------------------------------
# 10. conservation under random perturbation
# ----------------------------------------------------------------------
class ConservationScenario(Scenario):
    name = "conservation"
    version = 1
    title = "Mass invariance of a periodic box under random perturbation"
    reference = "exact discrete conservation of the LB collision"
    params = {
        "method": Param("lb", "solver", choices=("lb", "fd")),
        "n": Param(48, "periodic box side", lo=16, hi=256),
        "seed": Param(0, "perturbation seed", lo=0),
        "steps": Param(500, "time steps", lo=50),
    }

    def _build(self, p: dict[str, Any]) -> Case:
        n = p["n"]
        spec = ProblemSpec(
            method=p["method"],
            grid_shape=(n, n),
            blocks=(2, 2),
            periodic=(True, True),
            params={"nu": 0.05},
            init={"kind": "random", "seed": p["seed"],
                  "amplitude": 1e-3},
        )
        return Case(spec, {"steps": p["steps"], "diag_every": 50})

    def _score(self, p, result) -> Score:
        residuals: dict[str, float] = {}
        bounds: dict[str, float] = {}
        # both solvers conserve mass to roundoff on a periodic box
        # (measured <= 4e-14 over 500 steps)
        _with_diag(residuals, bounds, "mass_drift",
                   _mass_drift(result.diagnostics), 1e-12)
        _with_diag(residuals, bounds, "nonfinite",
                   _n_nonfinite(result.diagnostics), 0.0)
        speed = diag_series(result.diagnostics, "max_speed")
        if speed.size:
            # a 1e-3 density perturbation must never accelerate the
            # fluid to more than a small fraction of sound speed
            residuals["max_speed"] = float(speed.max())
            bounds["max_speed"] = 0.05
        if not residuals:
            return Score(
                passed=False,
                failures=["needs a diagnostics series to audit "
                          "conservation"],
            )
        return Score.check(residuals, bounds)


# ----------------------------------------------------------------------
# 11. parallel efficiency on the simulated 1994 cluster (figs. 5-11)
# ----------------------------------------------------------------------
class EfficiencyScenario(Scenario):
    name = "efficiency"
    version = 1
    title = "Parallel efficiency of one decomposition and grain (figs. 5-11)"
    reference = "paper §7 on the simulated cluster; eqs. 17-21 alongside"
    params = {
        "method": Param("lb", "solver", choices=("lb", "fd")),
        "blocks": Param("5x4", "decomposition, e.g. 5x4 or 2x2x2 "
                               "(the number of axes sets the dimension)"),
        "side": Param(100, "subregion side in nodes", lo=4, hi=1000),
        "steps": Param(30, "time steps", lo=1),
    }

    def _build(self, p: dict[str, Any]) -> Case:
        try:
            blocks = tuple(int(b) for b in str(p["blocks"]).split("x"))
        except ValueError:
            raise ValueError(
                f"param blocks={p['blocks']!r} must look like 5x4 or 2x2x2"
            ) from None
        spec = ProblemSpec(
            method=p["method"],
            grid_shape=tuple(b * p["side"] for b in blocks),
            blocks=blocks,
            periodic=(False,) * len(blocks),
        )
        return Case(spec, {"steps": p["steps"]})

    def _score(self, p, result) -> Score:
        sim = result.sim
        if sim is None:
            return Score(
                passed=False,
                failures=[f"the {result.backend} backend times no "
                          "simulated cluster; run efficiency on the "
                          "simulated backend"],
            )
        residuals = {"f": sim.efficiency, "speedup": sim.speedup,
                     "time_per_step": sim.time_per_step}
        details = {"processors": sim.processors,
                   "nodes": sim.nodes_per_proc,
                   "network_errors": sim.bus.network_errors}
        return Score.check(residuals, {"f": 1.0}, details)


def _register_all() -> None:
    for cls in (
        PoiseuilleScenario,
        Duct3DScenario,
        CavityScenario,
        FluePipeScenario,
        FluePipeChannelScenario,
        CylinderWakeScenario,
        AcousticWaveScenario,
        TaylorGreenScenario,
        HybridChannelScenario,
        ConservationScenario,
        EfficiencyScenario,
    ):
        register(cls())


_register_all()
