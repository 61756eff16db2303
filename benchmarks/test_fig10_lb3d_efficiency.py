"""Figure 10: parallel efficiency of 3D lattice Boltzmann simulations.

Efficiency vs subregion side for the 3D decompositions (2x2x2),
(3x2x2), ... — "we can see that the efficiency is rather poor" (§7):
even at the 40^3 memory ceiling of the paper's workstations the shared
bus caps 3D efficiency far below the 2D values of fig. 5.
"""

from repro.harness import format_table

from conftest import DECOMPS_3D, SIDES_3D, efficiency_sweep, run_once


def test_fig10(benchmark, record_figure):
    def build():
        d3 = efficiency_sweep("lb", DECOMPS_3D, SIDES_3D, steps=25)
        # the 2D point of comparable processor count and max grain
        d2 = efficiency_sweep("lb", ((4, 4),), (300,), steps=25)
        return d3, d2

    d3, d2 = run_once(benchmark, build)
    rows = [
        ["x".join(map(str, b)), pt["side"], pt["processors"],
         f"{pt['f']:.3f}", pt["network_errors"]]
        for b, pts in d3.items()
        for pt in pts
    ]
    record_figure(
        "fig10_lb3d_efficiency",
        format_table(
            ["decomp", "side", "P", "f (sim)", "net errors"],
            rows,
            title="Fig. 10 — LB 3D efficiency vs subregion side",
        ),
    )

    for blocks, pts in d3.items():
        effs = [p["f"] for p in pts]
        # still monotone in grain ...
        assert all(b >= a - 1e-9 for a, b in zip(effs, effs[1:])), blocks

    # "rather poor": at the 40^3 memory ceiling, 16-processor 3D runs
    # stay far below the 2D efficiency at the 300^2 ceiling
    e3_16 = [pts[-1]["f"] for b, pts in d3.items()
             if pts[0]["processors"] == 16][0]
    e2_16 = d2[(4, 4)][0]["f"]
    assert e3_16 < e2_16 - 0.15
    assert e3_16 < 0.72

    # more processors at fixed grain only makes 3D worse
    finals = {pts[0]["processors"]: pts[-1]["f"] for pts in d3.values()}
    ps = sorted(finals)
    assert all(finals[b] <= finals[a] + 1e-9
               for a, b in zip(ps, ps[1:]))


def test_fd_3d_even_worse(benchmark, record_figure):
    """§7: 'The parallel efficiency of the finite difference method in
    3D simulations is even worse than the lattice Boltzmann method, and
    is not shown here' — shown here."""
    def build():
        sides = (15, 25, 35)
        lb = efficiency_sweep("lb", ((2, 2, 2),), sides, steps=20)[(2, 2, 2)]
        fd = efficiency_sweep("fd", ((2, 2, 2),), sides, steps=20)[(2, 2, 2)]
        return [(a["side"], a["f"], b["f"]) for a, b in zip(lb, fd)]

    rows = run_once(benchmark, build)
    record_figure(
        "fd3d_worse_than_lb3d",
        format_table(
            ["side", "f LB 3D", "f FD 3D"],
            [[s, f"{l:.3f}", f"{f:.3f}"] for s, l, f in rows],
            title="§7 — FD 3D efficiency vs LB 3D (the figure the paper "
                  "declined to print)",
        ),
    )
    for side, lb, fd in rows:
        assert fd < lb, side
