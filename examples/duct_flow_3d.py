#!/usr/bin/env python
"""Three-dimensional duct flow — the problem class behind figs. 9-11.

The paper's 3D experiments integrate grids of 10^3..44^3 nodes per
workstation; 40^3 is the memory ceiling of a 32 MB machine.  This
example runs the registry's ``duct3d`` scenario (rectangular duct, 3D
Hagen-Poiseuille) with both methods through the ``repro.run`` facade,
scores the velocity profile against the exact Fourier-series solution,
and reports the measured nodes/second — the quantity whose ratio to
the network speed decides whether 3D is viable (it wasn't, on shared
10 Mbps Ethernet; see the fig. 9-11 benchmarks).

Run:  python examples/duct_flow_3d.py [--n 13] [--steps 2500]
"""

import argparse

import numpy as np

from repro.scenarios import get, run_case


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=13,
                    help="duct cross-section nodes")
    ap.add_argument("--steps", type=int, default=2500)
    ap.add_argument("--nu", type=float, default=0.08)
    ap.add_argument("--force", type=float, default=1e-6)
    args = ap.parse_args()

    scenario = get("duct3d")
    for method, name in (("fd", "finite differences"),
                         ("lb", "lattice Boltzmann")):
        overrides = {"method": method, "n": args.n, "nu": args.nu,
                     "g": args.force, "steps": args.steps}
        case = scenario.case(**overrides)
        result = run_case(case, backend="threaded")
        score = scenario.score(result, **overrides)

        shape = case.spec.grid_shape
        u = result.fields["u"][shape[0] // 2]
        n_nodes = int(np.prod(shape))
        speed = n_nodes * case.settings["steps"] / result.elapsed

        print(f"{name}:")
        print(f"  max velocity   {u.max():.3e}")
        print(f"  max rel error  {score.residuals['profile_err']:.2e} "
              f"(bound {score.bounds['profile_err']:g}; "
              f"{'pass' if score.passed else 'FAIL'})")
        for failure in score.failures:
            print(f"  failed: {failure}")
        print(f"  this machine   {speed:,.0f} nodes/s "
              f"(the 715/50 did ~"
              f"{20000 if method == 'lb' else 39000:,} in 3D)")
        mid = u[:, args.n // 2] / max(u.max(), 1e-30)
        print("  mid profile    " + " ".join(f"{v:.2f}" for v in mid))
        print()


if __name__ == "__main__":
    main()
