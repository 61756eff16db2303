"""Figure 12: the theoretical efficiency model in 2D (eq. 20).

Efficiency vs N^(1/2) for (P, m) = (4, 2), (9, 3), (16, 4), (20, 4)
with U_calc / V_com = 2/3 — the paper's exact fitted curves.  Since
this is a closed form, the benchmark asserts point values, limits and
the comparison against the simulated fig. 5 measurements.
"""

import numpy as np
import pytest

from repro.core import EfficiencyModel
from repro.harness import format_series

from conftest import efficiency_sweep, run_once

SIDES = np.array([25.0, 50.0, 75.0, 100.0, 150.0, 200.0, 250.0, 300.0])


def test_fig12(benchmark, record_figure):
    model = EfficiencyModel()
    curves = run_once(benchmark, lambda: {
        (p, m): model.efficiency(SIDES**2, m, p, ndim=2)
        for p, m in ((4, 2.0), (9, 3.0), (16, 4.0), (20, 4.0))
    })
    text = "\n".join(
        format_series(f"P={p} m={m:g}", SIDES.tolist(),
                      np.asarray(f).tolist())
        for (p, m), f in sorted(curves.items())
    )
    record_figure(
        "fig12_model_2d",
        "Fig. 12 — eq. 20 model, U_calc/V_com = 2/3\n" + text,
    )

    # exact closed-form spot checks
    f = curves[(20, 4.0)]
    assert f[3] == pytest.approx(1 / (1 + (1 / 100) * 19 * 4 * (2 / 3)))
    f4 = curves[(4, 2.0)]
    assert f4[0] == pytest.approx(1 / (1 + (1 / 25) * 3 * 2 * (2 / 3)))

    # ordering and limits
    for (p, m), fc in curves.items():
        fc = np.asarray(fc)
        assert np.all(np.diff(fc) > 0)
        assert np.all((0 < fc) & (fc < 1))
    assert np.all(
        np.asarray(curves[(4, 2.0)]) > np.asarray(curves[(20, 4.0)])
    )

    # model vs the fig. 5 "measurements": good agreement above 100^2,
    # over-prediction below (the paper's own observation)
    sim = efficiency_sweep("lb", ((5, 4),), tuple(int(s) for s in SIDES),
                           steps=25)[(5, 4)]
    f20 = np.asarray(curves[(20, 4.0)])
    for i, side in enumerate(SIDES):
        if side >= 150:
            assert sim[i]["f"] == pytest.approx(f20[i], abs=0.12)
        if side <= 50:
            assert sim[i]["f"] < f20[i] - 0.1
