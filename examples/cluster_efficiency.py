#!/usr/bin/env python
"""Parallel-efficiency study on the simulated 1994 cluster (§7-§8).

Sweeps the subregion grain and the processor count on the calibrated
discrete-event model of the paper's 25 HP workstations + 10 Mbps shared
Ethernet, printing the efficiency tables of figs. 5 and 9 side by side
with the eq. 20/21 theoretical model — the complete story of the paper
in two tables: 2D works, 3D needs a faster network.

Run:  python examples/cluster_efficiency.py [--steps 30]
"""

import argparse
import tempfile

import repro
from repro.core import EfficiencyModel, paper_m_table
from repro.distrib import RunSettings
from repro.harness import format_table
from repro.scenarios import get, run_sweep
from repro.trace import format_breakdown_table


def efficiency(**grid):
    """The simulated-cluster ``efficiency`` scenario over ``grid``: one
    flat dict per point (params, then f/speedup/time per step, then
    processors/nodes/network errors)."""
    points = run_sweep(get("efficiency"), grid, backend="simulated")
    return [{**p.params, **p.score["residuals"], **p.score["details"]}
            for p in points]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=30)
    args = ap.parse_args()

    model = EfficiencyModel()
    m_table = paper_m_table()

    print("sweeping grain (fig. 5)...")
    rows = []
    for pt in efficiency(blocks=["2x2", "5x4"], side=[50, 100, 150, 200, 300],
                         steps=[args.steps]):
        m = m_table[tuple(int(b) for b in pt["blocks"].split("x"))]
        pred = model.efficiency(pt["nodes"], m, pt["processors"], 2)
        rows.append([pt["blocks"], pt["side"], f"{pt['f']:.3f}",
                     f"{float(pred):.3f}"])
    print(format_table(
        ["decomp", "side", "f simulated", "f eq.20"], rows,
        title="\nLB 2D efficiency vs subregion grain (fig. 5 vs fig. 12)",
    ))

    print("\nsweeping processors (fig. 9)...")
    procs = (2, 4, 8, 12, 16, 20)
    # the scaled problem: 120^2 (2D) and 25^3 (3D) nodes per processor
    f2 = efficiency(blocks=[f"{p}x1" for p in procs], side=[120],
                    steps=[args.steps])
    f3 = efficiency(blocks=[f"{p}x1x1" for p in procs], side=[25],
                    steps=[args.steps])
    rows = []
    for p, pt2, pt3 in zip(procs, f2, f3):
        rows.append([
            p,
            f"{pt2['f']:.3f}",
            f"{float(model.efficiency(120.0**2, 2, p, 2)):.3f}",
            f"{pt3['f']:.3f}",
            f"{float(model.efficiency(25.0**3, 2, p, 3)):.3f}",
        ])
    print(format_table(
        ["P", "2D sim", "2D eq.20", "3D sim", "3D eq.21"], rows,
        title="\nEfficiency vs processors, fixed grain per processor "
              "(fig. 9 vs fig. 13)",
    ))

    # one sweep point in detail: the same simulated run through the
    # unified facade, with per-rank spans on the simulated clock
    print("\ntracing one point (LB 5x4, side 150) through repro.run...")
    spec = get("efficiency").case(blocks="5x4", side=150).spec
    with tempfile.TemporaryDirectory() as td:
        point = repro.run(spec, backend="simulated",
                          settings=RunSettings(steps=args.steps,
                                               trace=True),
                          workdir=td)
        print(format_breakdown_table(point.trace_summary))
    print(f"trace utilization f = {point.utilization:.3f}  vs  "
          f"simulator's eq. 8 f = "
          f"{point.sim.utilization:.3f}")

    n80 = model.grain_for_efficiency(0.80, m=4, p=20, ndim=2)
    n80_3d = model.grain_for_efficiency(0.80, m=2, p=20, ndim=3)
    print(f"\ngrain needed for 80% efficiency on 20 workstations:")
    print(f"  2D: {n80:.0f} nodes (~{n80 ** 0.5:.0f}^2) — fits the 300^2 "
          f"memory ceiling of a 32 MB workstation")
    print(f"  3D: {n80_3d:.0f} nodes (~{n80_3d ** (1 / 3):.0f}^3) — far "
          f"beyond the 40^3 ceiling: 3D needs a faster network "
          f"(the paper's conclusion)")


if __name__ == "__main__":
    main()
