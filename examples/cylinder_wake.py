#!/usr/bin/env python
"""Flow past a cylinder: unsteady subsonic flow shedding vortices.

The flue pipe works because jets and obstacles in subsonic flow shed
periodic vorticity coupled to acoustic waves; the cylinder wake is the
canonical version of the same physics.  At Reynolds numbers beyond ~50
the wake destabilizes into the von Karman vortex street.

The problem lives in the scenario registry as ``cylinder_wake`` — this
script resolves it with your parameters, marches it through the
``repro.run`` facade, and scores the result: the scenario requires a
developed mean flow, transverse wake oscillations, and a vortex-street
wavelength in the physical 3-15 diameter range.  The non-dimensional
shedding frequency follows from the measured wavelength (vortices ride
the mean flow, so St = f D / U ~ D / wavelength), which sits near the
literature's ~0.2 over a wide range of Re.

Run:  python examples/cylinder_wake.py [--nx 160] [--steps 6000]
"""

import argparse

import numpy as np

from repro.fluids import vorticity_2d
from repro.scenarios import get, run_case


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nx", type=int, default=160)
    ap.add_argument("--steps", type=int, default=6000)
    ap.add_argument("--u", type=float, default=0.08,
                    help="driving speed (lattice units)")
    ap.add_argument("--re", type=int, default=120,
                    help="Reynolds number U*D/nu")
    args = ap.parse_args()

    scenario = get("cylinder_wake")
    overrides = {"nx": args.nx, "Re": args.re, "speed": args.u,
                 "steps": args.steps}
    case = scenario.case(**overrides)
    nx, ny = case.spec.grid_shape
    diameter = 2 * 0.08 * ny
    nu = case.spec.params["nu"]
    print(f"grid {nx}x{ny}, D = {diameter:.0f} nodes, Re = {args.re}, "
          f"nu = {nu:.4f} ({case.settings['steps']} steps)")

    result = run_case(case, backend="threaded")
    score = scenario.score(result, **overrides)

    d = score.details
    wavelength_d = d["street_wavelength_D"]
    strouhal = 1.0 / wavelength_d  # f = U/lambda  =>  St = D/lambda
    print(f"mean streamwise speed   {d['u_mean']:.4f}")
    print(f"wake |v| / u_mean       {d['wake_ratio']:.2f}")
    print(f"street wavelength       {wavelength_d:.1f} D")
    print(f"Strouhal estimate St    {strouhal:.3f}  (literature ~0.2)")
    print(f"scenario score          "
          f"{'pass' if score.passed else 'FAIL'} "
          f"{ {k: f'{v:.3g}' for k, v in score.residuals.items()} }")
    for failure in score.failures:
        print(f"  failed: {failure}")

    u, v = result.fields["u"], result.fields["v"]
    solid, _, _ = case.spec.build_geometry()
    w = vorticity_2d(u, v)
    w[solid] = 0.0
    print(f"wake vorticity extrema  {w.min():+.4f} / {w.max():+.4f}")
    np.savez_compressed("cylinder_wake.npz", u=u, v=v, vorticity=w,
                        solid=solid)
    print("fields written to cylinder_wake.npz")


if __name__ == "__main__":
    main()
