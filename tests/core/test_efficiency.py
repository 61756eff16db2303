"""The §8 efficiency model: formulas, limits, and invariants."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import (
    EfficiencyModel,
    efficiency_eq17,
    efficiency_eq18,
    efficiency_eq20,
    efficiency_eq21,
    surface_nodes,
    t_calc,
    t_com_point_to_point,
    t_com_shared_bus,
    utilization,
)


class TestBuildingBlocks:
    def test_surface_2d(self):
        # eq. 15: N_c = m sqrt(N)
        assert surface_nodes(10000, 4, 2) == pytest.approx(400)

    def test_surface_3d(self):
        # eq. 16: N_c = m N^(2/3)
        assert surface_nodes(27000, 2, 3) == pytest.approx(1800)

    def test_surface_bad_ndim(self):
        with pytest.raises(ValueError):
            surface_nodes(100, 2, 4)

    def test_t_calc(self):
        # eq. 13
        assert t_calc(39132, 39132.0) == pytest.approx(1.0)

    def test_t_com_point_to_point(self):
        # eq. 14
        assert t_com_point_to_point(10000, 2, 2, 100.0) == pytest.approx(2.0)

    def test_t_com_shared_bus_scales_with_p(self):
        # eq. 19
        t2 = t_com_shared_bus(10000, 2, 2, 100.0, p=2)
        t5 = t_com_shared_bus(10000, 2, 2, 100.0, p=5)
        assert t5 == pytest.approx(4 * t2)

    def test_utilization_equals_efficiency_formula(self):
        # eqs. 8 and 12: f = g = (1 + T_com/T_calc)^-1
        assert utilization(1.0, 0.25) == pytest.approx(0.8)


class TestClosedForms:
    def test_eq17_known_value(self):
        # f = (1 + N^-1/2 m U/U')^-1
        f = efficiency_eq17(10000.0, 4.0, 2.0 / 3.0)
        assert f == pytest.approx(1.0 / (1.0 + 4.0 * (2.0 / 3.0) / 100.0))

    def test_eq20_reduces_to_eq17_at_p2(self):
        f20 = efficiency_eq20(14400.0, 2.0, 0.5, p=2)
        f17 = efficiency_eq17(14400.0, 2.0, 0.5)
        assert f20 == pytest.approx(float(f17))

    def test_eq21_five_sixths_factor(self):
        """3D computes half as fast and moves 5/3 the data: prefactor
        5/6 on the 2D constants."""
        n, m, p = 25.0**3, 2.0, 10
        f = efficiency_eq21(n, m, 2.0 / 3.0, p)
        expected = 1.0 / (
            1.0 + (5 / 6) * n ** (-1 / 3) * (p - 1) * m * (2 / 3)
        )
        assert f == pytest.approx(expected)

    @given(st.floats(1e2, 1e8), st.floats(0.5, 8.0), st.floats(0.05, 5.0))
    def test_eq17_in_unit_interval(self, n, m, ratio):
        f = float(efficiency_eq17(n, m, ratio))
        assert 0.0 < f < 1.0

    @given(
        st.floats(1e2, 1e8),
        st.floats(0.5, 8.0),
        st.floats(0.05, 5.0),
        st.integers(2, 64),
    )
    def test_eq20_monotone_in_grain(self, n, m, ratio, p):
        f1 = float(efficiency_eq20(n, m, ratio, p))
        f2 = float(efficiency_eq20(4 * n, m, ratio, p))
        assert f2 > f1

    @given(st.floats(1e3, 1e7), st.floats(0.5, 6.0), st.integers(2, 30))
    def test_eq20_decreases_with_p(self, n, m, p):
        f_lo = float(efficiency_eq20(n, m, 2 / 3, p))
        f_hi = float(efficiency_eq20(n, m, 2 / 3, p + 5))
        assert f_hi < f_lo

    def test_3d_needs_larger_grain_than_2d(self):
        """N^-1/3 vs N^-1/2: at equal node count and geometry, 3D
        efficiency is lower — why high 3D efficiency is so hard (§8)."""
        n = 14000.0
        f2 = float(efficiency_eq20(n, 2, 2 / 3, 10))
        f3 = float(efficiency_eq21(n, 2, 2 / 3, 10))
        assert f3 < f2


class TestEfficiencyModel:
    def test_paper_default_ratio(self):
        assert EfficiencyModel().ratio == pytest.approx(2 / 3)

    def test_speedup_is_fp(self):
        m = EfficiencyModel()
        f = float(m.efficiency(125.0**2, 2, 10, 2))
        assert float(m.speedup(125.0**2, 2, 10, 2)) == pytest.approx(10 * f)

    def test_point_to_point_variant(self):
        m = EfficiencyModel(shared_bus=False)
        f = float(m.efficiency(10000.0, 4, 20, 2))
        assert f == pytest.approx(float(efficiency_eq17(10000.0, 4, 2 / 3)))

    def test_bad_ndim(self):
        with pytest.raises(ValueError):
            EfficiencyModel().efficiency(100.0, 2, 4, ndim=4)

    @given(
        st.floats(0.2, 0.95),
        st.sampled_from([2.0, 3.0, 4.0]),
        st.integers(2, 20),
        st.sampled_from([2, 3]),
    )
    def test_grain_inversion(self, target, m, p, ndim):
        """grain_for_efficiency inverts the closed forms."""
        model = EfficiencyModel()
        n = model.grain_for_efficiency(target, m, p, ndim)
        assert float(model.efficiency(n, m, p, ndim)) == pytest.approx(
            target, rel=1e-6
        )

    def test_grain_bounds(self):
        with pytest.raises(ValueError):
            EfficiencyModel().grain_for_efficiency(1.5, 2, 4)

    def test_paper_2d_high_efficiency_grain(self):
        """§8: in 2D, high efficiency needs subregions larger than
        ~100^2 on the paper's cluster — and the 300^2 memory ceiling is
        comfortably above that."""
        model = EfficiencyModel()
        n80 = model.grain_for_efficiency(0.80, m=4, p=20, ndim=2)
        assert 50**2 < n80 < 300**2

    def test_paper_3d_memory_wall(self):
        """§8: in 3D, the ~40^3 per-workstation memory ceiling sits
        *below* the grain needed for high efficiency — why 3D needs a
        faster network."""
        model = EfficiencyModel()
        n80 = model.grain_for_efficiency(0.80, m=2, p=20, ndim=3)
        assert n80 > 40**3


class TestPaperFigures:
    """The closed-form curves of figs. 12 (eq. 20 vs grain) and 13
    (eqs. 20-21 vs processors), with U_calc/V_com = 2/3."""

    #: fig. 12's four curves, (P, m)
    FIG12 = ((4, 2.0), (9, 3.0), (16, 4.0), (20, 4.0))

    def test_fig12_curves(self):
        model = EfficiencyModel()
        sides = np.array([50.0, 100.0, 200.0])
        curves = {(p, m): model.efficiency(sides**2, m, p, ndim=2)
                  for p, m in self.FIG12}
        for f in curves.values():
            assert f.shape == (3,)
            assert np.all(np.diff(f) > 0)  # monotone in grain
        # more processors => lower efficiency at fixed grain
        assert curves[(20, 4.0)][1] < curves[(4, 2.0)][1]

    def test_fig12_paper_values(self):
        """At N = 100^2, P = 20, m = 4 eq. 20 gives
        f = 1/(1 + 19*4*(2/3)/100) ~ 0.664."""
        f = float(EfficiencyModel().efficiency(100.0**2, 4.0, 20, ndim=2))
        assert f == pytest.approx(1.0 / (1.0 + 19 * 4 * (2 / 3) / 100.0))

    def test_fig13_separation(self):
        """2D at N = 125^2 and 3D at N = 25^3, both m = 2: both fall
        with P and 3D stays below 2D."""
        model = EfficiencyModel()
        procs = np.arange(2, 21)
        f2 = model.efficiency(125.0**2, 2.0, procs, ndim=2)
        f3 = model.efficiency(25.0**3, 2.0, procs, ndim=3)
        assert f2.shape == f3.shape == (19,)
        assert np.all(f3 < f2)
        assert np.all(np.diff(f2) < 0)
        assert np.all(np.diff(f3) < 0)

    def test_fig13_paper_endpoint(self):
        """At P = 20 the 3D model sits near 0.54 (the fig. 13 curve)."""
        model = EfficiencyModel()
        assert float(model.efficiency(25.0**3, 2.0, 20, ndim=3)) \
            == pytest.approx(0.542, abs=0.01)
        assert float(model.efficiency(125.0**2, 2.0, 20, ndim=2)) \
            == pytest.approx(0.826, abs=0.01)


class TestOverheadModel:
    """The small-message extension §8 invites."""

    def _models(self):
        from repro.core import OverheadEfficiencyModel

        base = EfficiencyModel()
        ext = OverheadEfficiencyModel(t_msg=1.0e-3, messages=1)
        return base, ext

    def test_reduces_to_eq20_without_overhead(self):
        from repro.core import OverheadEfficiencyModel

        ext = OverheadEfficiencyModel(t_msg=0.0)
        base = EfficiencyModel()
        for n in (50.0**2, 200.0**2):
            assert float(ext.efficiency(n, 4, 20, 2)) == pytest.approx(
                float(base.efficiency(n, 4, 20, 2))
            )

    def test_overhead_bites_small_grains_only(self):
        base, ext = self._models()
        small_gap = float(base.efficiency(25.0**2, 4, 20, 2)) - float(
            ext.efficiency(25.0**2, 4, 20, 2)
        )
        large_gap = float(base.efficiency(300.0**2, 4, 20, 2)) - float(
            ext.efficiency(300.0**2, 4, 20, 2)
        )
        assert small_gap > 0.05
        assert large_gap < 0.02

    def test_fd_double_messages_hurt_more(self):
        from repro.core import OverheadEfficiencyModel

        lb = OverheadEfficiencyModel(messages=1)
        fd = OverheadEfficiencyModel(messages=2)
        n = 30.0**2
        assert float(fd.efficiency(n, 4, 20, 2)) < float(
            lb.efficiency(n, 4, 20, 2)
        )

    def test_tracks_simulated_small_grain_better_than_eq20(self):
        """The point of the extension: the simulated (measured) rolloff
        below 100^2 that eq. 20 over-predicts."""
        from repro.cluster import ClusterSimulation
        from repro.core import OverheadEfficiencyModel

        base = EfficiencyModel()
        ext = OverheadEfficiencyModel(t_msg=1.2e-3, messages=1)
        for side in (25, 50):
            sim = ClusterSimulation("lb", 2, (5, 4), side).run(20)
            f_sim = sim.efficiency
            err_base = abs(float(base.efficiency(side**2, 4, 20, 2)) - f_sim)
            err_ext = abs(float(ext.efficiency(side**2, 4, 20, 2)) - f_sim)
            assert err_ext < err_base, side

    def test_3d_variant(self):
        from repro.core import OverheadEfficiencyModel

        ext = OverheadEfficiencyModel()
        f = float(ext.efficiency(25.0**3, 2, 20, 3))
        assert 0.0 < f < float(ext.efficiency(40.0**3, 2, 20, 3))

    def test_bad_ndim(self):
        from repro.core import OverheadEfficiencyModel

        with pytest.raises(ValueError):
            OverheadEfficiencyModel().efficiency(100.0, 2, 4, ndim=1)
