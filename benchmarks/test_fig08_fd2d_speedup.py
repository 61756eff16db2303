"""Figure 8: parallel speedup of 2D finite-difference simulations."""

from repro.harness import format_table

from conftest import DECOMPS_2D, SIDES_2D, efficiency_sweep, run_once


def test_fig08(benchmark, record_figure):
    data = run_once(
        benchmark,
        lambda: efficiency_sweep("fd", DECOMPS_2D, SIDES_2D, steps=30),
    )
    rows = [
        [f"{b[0]}x{b[1]}", pt["side"], pt["processors"],
         f"{pt['speedup']:.2f}"]
        for b, pts in data.items()
        for pt in pts
    ]
    record_figure(
        "fig08_fd2d_speedup",
        format_table(
            ["decomp", "side", "P", "speedup"],
            rows,
            title="Fig. 8 — FD 2D speedup vs subregion side",
        ),
    )

    for blocks, pts in data.items():
        p = pts[0]["processors"]
        sp = [pt["speedup"] for pt in pts]
        assert all(b >= a - 1e-9 for a, b in zip(sp, sp[1:])), blocks
        assert sp[-1] <= p + 1e-6
        # FD still parallelizes usefully at production grain
        assert sp[-1] > 0.6 * p, blocks

    # speedup ordering by processor count at the largest grain
    finals = {b: pts[-1]["speedup"] for b, pts in data.items()}
    assert finals[(5, 4)] > finals[(4, 4)] > finals[(3, 3)] > finals[(2, 2)]
