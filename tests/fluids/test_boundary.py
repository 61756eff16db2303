"""Boundary conditions: boxes, no-slip, the wall density rule, openings."""

import numpy as np
import pytest

from repro.core import Decomposition, make_subregions
from repro.fluids import GlobalBox, PressureOutlet, VelocityInlet
from repro.fluids.boundary import (
    build_wall_aux,
    enforce_noslip,
    enforce_wall_density,
)


class TestGlobalBox:
    def test_validation(self):
        with pytest.raises(ValueError):
            GlobalBox((0, 0), (0, 4))
        with pytest.raises(ValueError):
            GlobalBox((0,), (2, 2))

    def test_local_mask_inside_block(self):
        d = Decomposition((16, 16), (2, 2))
        subs = make_subregions(d, 2, {"a": np.zeros((16, 16))})
        box = GlobalBox((2, 3), (5, 6))
        m = box.local_mask(subs[0])  # block (0,0), lo=(0,0)
        assert m.sum() == 9
        assert m[2 + 2, 3 + 2] and m[4 + 2, 5 + 2]

    def test_local_mask_in_other_block_via_ghosts(self):
        d = Decomposition((16, 16), (2, 2))
        subs = make_subregions(d, 2, {"a": np.zeros((16, 16))})
        # box fully in block (1,0); block (0,0) sees its ghost fringe
        box = GlobalBox((8, 0), (10, 16))
        rank0 = subs[0]
        m = box.local_mask(rank0)
        # padded x extent: block 0 covers global x in [-2, 10); the box
        # rows 8,9 are ghost rows 10, 11
        assert m[10].any() and m[11].any()
        assert m.sum() == 2 * (8 + 2)  # clipped to padded y extent

    def test_local_mask_outside(self):
        d = Decomposition((16, 16), (2, 2))
        subs = make_subregions(d, 2, {"a": np.zeros((16, 16))})
        box = GlobalBox((12, 12), (14, 14))
        assert not box.local_mask(subs[0]).any()

    def test_masks_partition_union(self):
        """Union of interior-restricted masks = the box."""
        d = Decomposition((16, 16), (2, 2))
        subs = make_subregions(d, 2, {"a": np.zeros((16, 16))})
        box = GlobalBox((3, 5), (12, 11))
        total = 0
        for sub in subs:
            m = box.local_mask(sub)[sub.interior]
            total += int(m.sum())
        assert total == 9 * 6


class TestVelocityInlet:
    def test_constant_velocity(self):
        inlet = VelocityInlet(GlobalBox((0, 0), (1, 4)), (0.1, 0.0))
        assert inlet.velocity_at(0) == (0.1, 0.0)
        assert inlet.velocity_at(100) == (0.1, 0.0)

    def test_callable_velocity(self):
        inlet = VelocityInlet(
            GlobalBox((0, 0), (1, 4)),
            lambda step: (0.01 * min(step, 10), 0.0),
        )
        assert inlet.velocity_at(5) == (0.05, 0.0)
        assert inlet.velocity_at(50) == (0.1, 0.0)


class TestWallRules:
    def _setup(self, solid, field):
        d = Decomposition(field.shape, (1, 1))
        sub = make_subregions(d, 3, {"rho": field, "u": field.copy(),
                                     "v": field.copy()}, solid)[0]
        build_wall_aux(sub, solid_rings=(0,), density_rings=(0,))
        return sub

    def test_noslip_zeroes_solid_only(self):
        solid = np.zeros((12, 12), dtype=bool)
        solid[:, 0] = True
        rng = np.random.default_rng(0)
        f = rng.random((12, 12)) + 1.0
        sub = self._setup(solid, f)
        enforce_noslip(sub, ("u", "v"), sub.interior)
        u = sub.interior_view("u")
        assert (u[:, 0] == 0).all()
        assert (u[:, 1:] > 0).all()

    def test_wall_density_mean_of_fluid_neighbors(self):
        solid = np.zeros((12, 12), dtype=bool)
        solid[5, 5] = True
        rho = np.ones((12, 12))
        rho[4, 5], rho[6, 5], rho[5, 4], rho[5, 6] = 1.1, 1.3, 1.2, 1.4
        sub = self._setup(solid, rho)
        enforce_wall_density(sub, sub.interior)
        got = sub.interior_view("rho")[5, 5]
        assert got == pytest.approx((1.1 + 1.3 + 1.2 + 1.4) / 4.0)

    def test_deep_solid_untouched(self):
        solid = np.zeros((12, 12), dtype=bool)
        solid[4:9, 4:9] = True
        rho = np.full((12, 12), 2.0)
        rho[6, 6] = 7.0  # deep interior of the wall
        sub = self._setup(solid, rho)
        enforce_wall_density(sub, sub.interior)
        assert sub.interior_view("rho")[6, 6] == 7.0

    def test_fluid_nodes_never_modified(self):
        solid = np.zeros((12, 12), dtype=bool)
        solid[0, :] = True
        rng = np.random.default_rng(1)
        rho = rng.random((12, 12)) + 1.0
        sub = self._setup(solid, rho)
        before = sub.interior_view("rho").copy()
        enforce_wall_density(sub, sub.interior)
        after = sub.interior_view("rho")
        np.testing.assert_array_equal(after[1:], before[1:])

    def test_zero_normal_gradient_at_plane_wall(self):
        """At a straight wall the rule copies the adjacent fluid value:
        discrete d(rho)/dn = 0."""
        solid = np.zeros((12, 12), dtype=bool)
        solid[:, 0] = True
        rng = np.random.default_rng(2)
        rho = rng.random((12, 12)) + 1.0
        sub = self._setup(solid, rho)
        enforce_wall_density(sub, sub.interior)
        r = sub.interior_view("rho")
        np.testing.assert_allclose(r[:, 0], r[:, 1])


class TestPressureOutlet:
    def test_fields(self):
        out = PressureOutlet(GlobalBox((0, 0), (2, 2)), rho=1.25)
        assert out.rho == 1.25
