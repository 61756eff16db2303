"""Figure 6: parallel speedup of 2D lattice Boltzmann simulations.

Same sweep as fig. 5, reported as speedup S = T_1 / T_p.  Shape claims:
speedup approaches the processor count as the grain grows; at the
largest measured grain the 20-processor decomposition achieves the
paper's headline "typical simulations achieve 80% parallel efficiency
using 20 workstations" (S >~ 15).
"""

from repro.harness import format_table

from conftest import DECOMPS_2D, SIDES_2D, efficiency_sweep, run_once


def test_fig06(benchmark, record_figure):
    data = run_once(
        benchmark,
        lambda: efficiency_sweep("lb", DECOMPS_2D, SIDES_2D, steps=30),
    )
    rows = [
        [f"{b[0]}x{b[1]}", pt["side"], pt["processors"],
         f"{pt['speedup']:.2f}"]
        for b, pts in data.items()
        for pt in pts
    ]
    record_figure(
        "fig06_lb2d_speedup",
        format_table(
            ["decomp", "side", "P", "speedup"],
            rows,
            title="Fig. 6 — LB 2D speedup vs subregion side",
        ),
    )

    for blocks, pts in data.items():
        p = pts[0]["processors"]
        sp = [pt["speedup"] for pt in pts]
        # monotone in grain and bounded by P
        assert all(b >= a - 1e-9 for a, b in zip(sp, sp[1:])), blocks
        assert sp[-1] <= p + 1e-6, blocks

    # the headline: ~80% of 20 workstations at production grain
    best_20 = data[(5, 4)][-1]
    assert best_20["speedup"] > 0.72 * 20

    # more processors must actually buy more speed at large grain
    assert (
        data[(5, 4)][-1]["speedup"]
        > data[(4, 4)][-1]["speedup"]
        > data[(3, 3)][-1]["speedup"]
        > data[(2, 2)][-1]["speedup"]
    )
