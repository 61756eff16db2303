"""Figure 7: parallel efficiency of 2D finite-difference simulations.

Same sweep as fig. 5 with the FD method.  The §7 observation asserted
here: "the efficiency decreases more rapidly for FD than LB as the
subregion per processor decreases", for two calibrated reasons — FD
computes faster per step (T_calc smaller) and sends two messages per
step instead of one (T_com larger at small messages, eq. 6).
"""

from repro.harness import format_table

from conftest import DECOMPS_2D, SIDES_2D, efficiency_sweep, run_once


def test_fig07(benchmark, record_figure):
    def build():
        return (
            efficiency_sweep("fd", DECOMPS_2D, SIDES_2D, steps=30),
            efficiency_sweep("lb", DECOMPS_2D, SIDES_2D, steps=30),
        )

    fd, lb = run_once(benchmark, build)
    rows = [
        [f"{b[0]}x{b[1]}", pt["side"], f"{pt['f']:.3f}",
         f"{lb[b][i]['f']:.3f}"]
        for b, pts in fd.items()
        for i, pt in enumerate(pts)
    ]
    record_figure(
        "fig07_fd2d_efficiency",
        format_table(
            ["decomp", "side", "f (FD)", "f (LB)"],
            rows,
            title="Fig. 7 — FD 2D efficiency vs subregion side "
                  "(LB alongside for the §7 comparison)",
        ),
    )

    for blocks, pts in fd.items():
        effs = [p["f"] for p in pts]
        assert all(b >= a - 1e-9 for a, b in zip(effs, effs[1:])), blocks
        assert effs[-1] > 0.6, blocks

    # FD decays faster than LB towards small subregions: the FD/LB
    # efficiency ratio collapses as the grain shrinks ...
    for blocks in fd:
        small_ratio = fd[blocks][0]["f"] / lb[blocks][0]["f"]
        large_ratio = fd[blocks][-1]["f"] / lb[blocks][-1]["f"]
        assert small_ratio < large_ratio - 0.15, blocks
        assert large_ratio > 0.85, blocks
    # ... and at every small-to-mid grain FD is below LB
    for blocks in fd:
        for i, side in enumerate(SIDES_2D[:4]):
            assert fd[blocks][i]["f"] < lb[blocks][i]["f"]
