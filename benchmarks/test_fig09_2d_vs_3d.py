"""Figure 9: the Ethernet performs well for 2D but poorly for 3D.

A scaled problem — fixed subregion per processor (120^2 in 2D, 25^3 in
3D, both ~14,500 fluid nodes) — decomposed as (P x 1) / (P x 1 x 1),
with P sweeping 2..20.  The central claim of the paper: 2D efficiency
remains high as processors are added while 3D efficiency collapses,
because 3D pushes 5/3 the data per node through the shared bus at half
the compute speed, and the bus traffic grows with P (eq. 19).

The eq. 20/21 model (fig. 13) is printed alongside; the simulated
points track the model curves.
"""

import numpy as np
import pytest

from repro.core import EfficiencyModel
from repro.harness import format_table

from conftest import processor_sweep, run_once

PROCS = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20)


def test_fig09(benchmark, record_figure, record_svg):
    data = run_once(
        benchmark, lambda: processor_sweep(PROCS, steps=30)
    )
    model = EfficiencyModel()
    record_svg(
        "fig09_2d_vs_3d",
        {
            "2D sim": (list(PROCS),
                       [p["f"] for p in data["2d"]]),
            "3D sim": (list(PROCS),
                       [p["f"] for p in data["3d"]]),
            "2D eq.20": (list(PROCS),
                         [float(model.efficiency(120.0**2, 2, p, 2))
                          for p in PROCS]),
            "3D eq.21": (list(PROCS),
                         [float(model.efficiency(25.0**3, 2, p, 3))
                          for p in PROCS]),
        },
        title="Fig. 9 - efficiency vs processors (2D vs 3D)",
        xlabel="P",
        ylabel="efficiency",
        ylim=(0.0, 1.0),
    )
    rows = []
    for i, p in enumerate(PROCS):
        pred2 = float(model.efficiency(120.0**2, 2, p, 2))
        pred3 = float(model.efficiency(25.0**3, 2, p, 3))
        rows.append(
            [
                p,
                f"{data['2d'][i]['f']:.3f}",
                f"{pred2:.3f}",
                f"{data['3d'][i]['f']:.3f}",
                f"{pred3:.3f}",
                data["3d"][i]["network_errors"],
            ]
        )
    record_figure(
        "fig09_2d_vs_3d",
        format_table(
            ["P", "f 2D (sim)", "f 2D (eq.20)", "f 3D (sim)",
             "f 3D (eq.21)", "3D net errors"],
            rows,
            title="Fig. 9 — efficiency vs processors: 2D (120^2/proc) "
                  "vs 3D (25^3/proc)",
        ),
    )

    e2 = [pt["f"] for pt in data["2d"]]
    e3 = [pt["f"] for pt in data["3d"]]

    # both decline with P; 3D declines much faster
    assert all(b <= a + 1e-9 for a, b in zip(e2, e2[1:]))
    assert all(b <= a + 1e-9 for a, b in zip(e3, e3[1:]))
    drop2 = e2[0] - e2[-1]
    drop3 = e3[0] - e3[-1]
    assert drop3 > 1.5 * drop2

    # 2D remains serviceable at 20 processors; 3D does not
    assert e2[-1] > 0.6
    assert e3[-1] < 0.55
    # separation at the big end (the fig. 9 gap)
    assert e2[-1] - e3[-1] > 0.15

    # the simulated points track the model curves
    for i, p in enumerate(PROCS):
        assert e2[i] == pytest.approx(
            float(model.efficiency(120.0**2, 2, p, 2)), abs=0.18
        )
        assert e3[i] == pytest.approx(
            float(model.efficiency(25.0**3, 2, p, 3)), abs=0.18
        )
