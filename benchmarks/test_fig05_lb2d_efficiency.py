"""Figure 5: parallel efficiency of 2D lattice Boltzmann simulations.

Efficiency vs subregion side (sqrt of grain N) for the paper's four
decompositions — (2x2) triangles, (3x3) crosses, (4x4) squares, (5x4)
circles — on the simulated 25-workstation cluster.

Shape claims asserted:
* efficiency rises monotonically with grain for every decomposition;
* good performance (f >~ 0.7) once the subregion exceeds ~100^2 nodes;
* fewer processors => higher efficiency at fixed grain;
* the eq. 20 model (fig. 12) matches the measurements at large grain
  and over-predicts below 100^2 (the small-message overhead the model
  omits, as the paper notes).
"""

import pytest

from repro.core import EfficiencyModel, paper_m_table
from repro.harness import format_table

from conftest import DECOMPS_2D, SIDES_2D, efficiency_sweep, run_once


def test_fig05(benchmark, record_figure, record_svg):
    data = run_once(
        benchmark,
        lambda: efficiency_sweep("lb", DECOMPS_2D, SIDES_2D, steps=30),
    )
    model = EfficiencyModel()
    m_table = paper_m_table()
    record_svg(
        "fig05_lb2d_efficiency",
        {
            f"{b[0]}x{b[1]}": (
                [p["side"] for p in pts], [p["f"] for p in pts]
            )
            for b, pts in data.items()
        },
        title="Fig. 5 - LB 2D efficiency vs subregion side",
        xlabel="sqrt(N)",
        ylabel="efficiency",
        ylim=(0.0, 1.0),
    )

    rows = []
    for blocks, pts in data.items():
        m = m_table[blocks]
        p = pts[0]["processors"]
        for pt in pts:
            pred = float(model.efficiency(pt["nodes"], m, p, 2))
            rows.append(
                [f"{blocks[0]}x{blocks[1]}", pt["side"], f"{pt['f']:.3f}",
                 f"{pred:.3f}"]
            )
    record_figure(
        "fig05_lb2d_efficiency",
        format_table(
            ["decomp", "side", "f (sim)", "f (eq.20)"],
            rows,
            title="Fig. 5 — LB 2D efficiency vs subregion side",
        ),
    )

    for blocks, pts in data.items():
        effs = [p["f"] for p in pts]
        # monotone in grain
        assert all(b >= a - 1e-9 for a, b in zip(effs, effs[1:])), blocks
        # high efficiency at large grain (paper: ~80% typical)
        assert effs[-1] > 0.7, blocks
        # a clear rolloff towards tiny grains
        assert effs[0] < effs[-1] - 0.2, blocks

    # good performance threshold near 100^2 (paper §7)
    at_100 = {b: [p for p in pts if p["side"] == 100][0]["f"]
              for b, pts in data.items()}
    assert at_100[(2, 2)] > 0.8
    assert at_100[(5, 4)] > 0.45

    # fewer processors => higher efficiency at fixed grain
    assert at_100[(2, 2)] > at_100[(3, 3)] > at_100[(5, 4)]

    # model vs measurement: agreement at 300^2, over-prediction at 25^2
    for blocks, pts in data.items():
        m, p = m_table[blocks], pts[0]["processors"]
        big = pts[-1]
        pred_big = float(model.efficiency(big["nodes"], m, p, 2))
        assert big["f"] == pytest.approx(pred_big, abs=0.15)
        small = pts[0]
        pred_small = float(model.efficiency(small["nodes"], m, p, 2))
        assert small["f"] < pred_small
