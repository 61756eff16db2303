"""FluidParams validation, stability numbers, LB mapping."""

import math

import pytest

from repro.fluids import FluidParams
from repro.fluids.params import LATTICE_CS


class TestValidation:
    def test_defaults_are_lattice_units(self):
        p = FluidParams()
        assert p.dx == p.dt == 1.0
        assert p.cs == pytest.approx(LATTICE_CS)

    def test_negative_viscosity(self):
        with pytest.raises(ValueError):
            FluidParams(nu=-0.1)

    def test_filter_eps_range(self):
        with pytest.raises(ValueError):
            FluidParams(filter_eps=0.2)
        FluidParams(filter_eps=1.0 / 16.0)  # boundary allowed

    def test_positive_scales(self):
        with pytest.raises(ValueError):
            FluidParams(dt=0.0)


class TestStability:
    def test_acoustic_cfl(self):
        p = FluidParams(cs=0.5, dt=0.4, dx=1.0)
        assert p.acoustic_cfl == pytest.approx(0.2)

    def test_check_stability_passes_lattice(self):
        FluidParams.lattice(2, nu=0.1).check_stability(2)

    def test_check_stability_acoustic_violation(self):
        p = FluidParams(cs=2.0, dt=1.0, dx=1.0, nu=0.01)
        with pytest.raises(ValueError, match="acoustic"):
            p.check_stability(2)

    def test_check_stability_viscous_violation(self):
        p = FluidParams(nu=0.5, cs=0.1)
        with pytest.raises(ValueError, match="viscous"):
            p.check_stability(2)

    def test_3d_is_stricter(self):
        p = FluidParams(nu=0.2, cs=LATTICE_CS)
        p.check_stability(2)
        with pytest.raises(ValueError):
            p.check_stability(3)


class TestLatticeMapping:
    def test_tau_relation(self):
        # nu = (tau - 1/2)/3  <=>  tau = 3 nu + 1/2
        p = FluidParams.lattice(2, nu=0.1)
        assert p.lb_tau == pytest.approx(0.8)

    def test_require_lattice_units_accepts(self):
        FluidParams.lattice(2, nu=0.05).require_lattice_units()

    def test_require_lattice_units_rejects(self):
        p = FluidParams(cs=0.5)
        with pytest.raises(ValueError, match="lattice"):
            p.require_lattice_units()

    def test_lattice_units_scaled_dx(self):
        # cs must track dx/dt
        p = FluidParams(dx=2.0, dt=1.0, cs=2.0 * LATTICE_CS)
        p.require_lattice_units()

    def test_lattice_constructor_gravity_dim(self):
        with pytest.raises(ValueError):
            FluidParams.lattice(3, gravity=(1e-5, 0.0))

    def test_acoustic_resolution_eq4(self):
        """Eq. 4: dx ~ cs * dt — lattice units satisfy it by design."""
        p = FluidParams.lattice(2)
        assert 0.1 < p.acoustic_cfl < 1.0
