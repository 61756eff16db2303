"""Figure 11: 3D lattice Boltzmann speedup vs total problem size.

The paper's damning 3D result: "the speedup does not improve when finer
decompositions are employed because the network is the bottleneck of
the computation."  We sweep the total problem size for each 3D
decomposition and assert the plateau: at equal total size, throwing
more processors at the problem buys little or nothing once the shared
bus saturates.
"""

import numpy as np

from repro.harness import format_table

from conftest import efficiency_sweep, run_once

DECOMPS = ((2, 2, 2), (4, 2, 2), (5, 2, 2))
TOTAL_NODES = (32_000, 64_000, 125_000, 216_000, 343_000, 512_000)


def test_fig11(benchmark, record_figure):
    def build():
        out = {}
        for blocks in DECOMPS:
            # the subregion side that gives each total problem size
            p = int(np.prod(blocks))
            sides = [max(int(round((total / p) ** (1.0 / 3.0))), 4)
                     for total in TOTAL_NODES]
            pts = efficiency_sweep("lb", (blocks,), sides, steps=25)[blocks]
            out[blocks] = [(total, pt["side"], pt["speedup"], pt["f"])
                           for total, pt in zip(TOTAL_NODES, pts)]
        return out

    data = run_once(benchmark, build)
    rows = [
        ["x".join(map(str, b)), int(np.prod(b)), total, side,
         f"{s:.2f}", f"{f:.3f}"]
        for b, pts in data.items()
        for total, side, s, f in pts
    ]
    record_figure(
        "fig11_lb3d_speedup",
        format_table(
            ["decomp", "P", "total nodes", "side", "speedup", "f"],
            rows,
            title="Fig. 11 — LB 3D speedup vs total problem size",
        ),
    )

    # speedup grows with problem size for every decomposition
    for blocks, pts in data.items():
        sp = [s for _, _, s, _ in pts]
        assert all(b >= a - 1e-9 for a, b in zip(sp, sp[1:])), blocks

    # the plateau: at the largest problem, 20 processors gain little
    # over 8 — nothing like the 2.5x a compute-bound problem would give
    s8 = data[(2, 2, 2)][-1][2]
    s20 = data[(5, 2, 2)][-1][2]
    assert s20 < 1.6 * s8
    # and the finest decomposition is badly inefficient
    assert data[(5, 2, 2)][-1][3] < 0.6
