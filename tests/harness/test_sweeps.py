"""Figure sweeps: structure and headline shape properties (small sizes;
the full-resolution versions live in benchmarks/)."""

import numpy as np
import pytest

from repro.harness import (
    model_fig12,
    model_fig13,
    sweep_2d_grain,
    sweep_3d_grain,
    sweep_processors,
)


class TestGrainSweeps:
    def test_2d_structure(self):
        data = sweep_2d_grain(
            decomps=((2, 2),), sides=(40, 80), steps=10
        )
        pts = data[(2, 2)]
        assert [p.side for p in pts] == [40, 80]
        assert pts[0].processors == 4
        assert pts[0].nodes == 1600

    def test_2d_efficiency_improves_with_grain(self):
        data = sweep_2d_grain(decomps=((3, 3),), sides=(30, 120), steps=10)
        pts = data[(3, 3)]
        assert pts[1].efficiency > pts[0].efficiency

    def test_3d_structure(self):
        data = sweep_3d_grain(
            decomps=((2, 2, 2),), sides=(10, 20), steps=8
        )
        pts = data[(2, 2, 2)]
        assert pts[0].nodes == 1000


class TestProcessorSweep:
    def test_fig9_shape(self):
        data = sweep_processors(processors=(2, 8, 16), steps=10)
        eff2 = [p.efficiency for p in data["2d"]]
        eff3 = [p.efficiency for p in data["3d"]]
        # 2D stays high, 3D collapses (fig. 9's triangles vs crosses)
        assert eff2[-1] > eff3[-1]
        assert eff3[0] > eff3[-1]


class TestModelFigures:
    def test_fig12_curves(self):
        sides = np.array([50.0, 100.0, 200.0])
        curves = model_fig12(sides)
        assert set(curves) == {(4, 2.0), (9, 3.0), (16, 4.0), (20, 4.0)}
        for (p, m), f in curves.items():
            assert f.shape == (3,)
            assert np.all(np.diff(f) > 0)  # monotone in grain
        # more processors => lower efficiency at fixed grain
        assert curves[(20, 4.0)][1] < curves[(4, 2.0)][1]

    def test_fig12_paper_values(self):
        """Eq. 20 with U/V = 2/3: at N = 100^2, P = 20, m = 4 the model
        gives f = 1/(1 + 19*4*(2/3)/100) ~ 0.664."""
        curves = model_fig12(np.array([100.0]))
        assert curves[(20, 4.0)][0] == pytest.approx(
            1.0 / (1.0 + 19 * 4 * (2 / 3) / 100.0)
        )

    def test_fig13_separation(self):
        data = model_fig13(np.arange(2, 21))
        assert data["2d"].shape == data["3d"].shape == (19,)
        assert np.all(data["3d"] < data["2d"])
        assert np.all(np.diff(data["2d"]) < 0)
        assert np.all(np.diff(data["3d"]) < 0)

    def test_fig13_paper_endpoint(self):
        """At P = 20 the 3D model sits near 0.54 (the fig. 13 curve)."""
        data = model_fig13(np.array([20]))
        assert data["3d"][0] == pytest.approx(0.542, abs=0.01)
        assert data["2d"][0] == pytest.approx(0.826, abs=0.01)
