"""Figure 13: the model's efficiency vs processor count (eqs. 20-21).

2D at N = 125^2 and 3D at N = 25^3, both with m = 2 (left/right
neighbours only) and the 5/6 payload/speed factor in 3D.  Asserted
against both the closed form and the fig. 9 simulation.
"""

import numpy as np
import pytest

from repro.core import EfficiencyModel
from repro.harness import format_series

from conftest import processor_sweep, run_once

PROCS = np.arange(2, 21)


def test_fig13(benchmark, record_figure):
    model = EfficiencyModel()
    data = run_once(benchmark, lambda: {
        "P": PROCS.astype(float),
        "2d": model.efficiency(125.0**2, 2.0, PROCS, ndim=2),
        "3d": model.efficiency(25.0**3, 2.0, PROCS, ndim=3),
    })
    text = "\n".join(
        [
            format_series("2D (125^2, m=2)", data["P"].tolist(),
                          data["2d"].tolist()),
            format_series("3D (25^3,  m=2)", data["P"].tolist(),
                          data["3d"].tolist()),
        ]
    )
    record_figure(
        "fig13_model_vs_p",
        "Fig. 13 — eqs. 20-21 model, efficiency vs processors\n" + text,
    )

    # closed-form endpoints
    assert data["2d"][-1] == pytest.approx(
        1 / (1 + (1 / 125) * 19 * 2 * (2 / 3))
    )
    assert data["3d"][-1] == pytest.approx(
        1 / (1 + (5 / 6) * 25.0**-1 * 19 * 2 * (2 / 3))
    )

    # monotone decline, 3D always below 2D, widening gap
    assert np.all(np.diff(data["2d"]) < 0)
    assert np.all(np.diff(data["3d"]) < 0)
    gap = data["2d"] - data["3d"]
    assert np.all(gap > 0)
    assert gap[-1] > gap[0]

    # "good agreement" with the fig. 9 measurement (paper §8)
    sim = processor_sweep((4, 12, 20), steps=25)
    for i, p in enumerate((4, 12, 20)):
        j = int(np.where(PROCS == p)[0][0])
        assert sim["2d"][i]["f"] == pytest.approx(
            float(data["2d"][j]), abs=0.18
        )
        assert sim["3d"][i]["f"] == pytest.approx(
            float(data["3d"][j]), abs=0.18
        )
