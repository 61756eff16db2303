#!/usr/bin/env python
"""Flue-pipe simulation: the paper's headline application (figs. 1-2).

A jet of air enters through an opening in the left wall, impinges the
sharp edge (labium) above the resonant pipe, and the jet oscillations
are reinforced by acoustic feedback — the sound-production mechanism of
the organ, the recorder and the flute.

The two geometries live in the scenario registry: ``flue_pipe`` is the
fig. 1 basic pipe, scored by diagnostics spectroscopy (the run must
produce a spectral line within a factor of the pipe's quarter-wave
estimate, well above the noise floor); ``flue_pipe_channel`` is the
fig. 2 channel variant whose solid lower-right quadrant idles whole
subregions of the decomposition.  This script runs either through the
``repro.run`` facade, prints the score, and writes:

* ``flue_pipe_<variant>.npz``  — final rho/u/v fields + vorticity,
* an ASCII rendering of the equi-vorticity pattern (the fig. 1 plot),
* ``flue_pipe_<variant>.ppm`` — the vorticity snapshot.

Run:  python examples/flue_pipe.py [--variant basic|channel]
      [--nx 200] [--steps 6000] [--jet 0.12]
"""

import argparse

import numpy as np

from repro.fluids import vorticity_2d
from repro.scenarios import get, run_case
from repro.viz import ascii_contours, field_to_ppm


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--variant", choices=("basic", "channel"),
                    default="basic")
    ap.add_argument("--nx", type=int, default=200,
                    help="grid width (paper: 800)")
    ap.add_argument("--steps", type=int, default=None,
                    help="time steps (default: the scenario's; the "
                        "basic tone needs several thousand)")
    ap.add_argument("--jet", type=float, default=0.12)
    ap.add_argument("--nu", type=float, default=0.02)
    args = ap.parse_args()

    scenario = get("flue_pipe" if args.variant == "basic"
                   else "flue_pipe_channel")
    overrides = {"nx": args.nx, "jet_speed": args.jet, "nu": args.nu}
    if args.steps is not None:
        overrides["steps"] = args.steps
    case = scenario.case(**overrides)
    spec = case.spec
    decomp = spec.build_decomposition()
    print(f"fig. {'1' if args.variant == 'basic' else '2'} geometry "
          f"{spec.grid_shape}, decomposition "
          f"{spec.blocks[0]}x{spec.blocks[1]} = {decomp.n_blocks} "
          f"subregions, {decomp.n_active} active "
          f"({case.settings['steps']} steps)")

    result = run_case(case, backend="threaded")
    score = scenario.score(result, **overrides)
    print(f"scenario score: {'pass' if score.passed else 'FAIL'} "
          f"{ {k: f'{v:.3g}' for k, v in score.residuals.items()} }")
    for failure in score.failures:
        print(f"  failed: {failure}")
    d = score.details
    if "frequency" in d:
        print(f"  tone at {d['frequency']:.2e} cycles/step "
              f"(quarter-wave estimate {d['quarter_wave']:.2e}, "
              f"SNR {d['snr']:.0f})")

    u, v = result.fields["u"], result.fields["v"]
    solid, _, _ = spec.build_geometry()
    w = vorticity_2d(u, v)
    w[solid] = 0.0

    out = f"flue_pipe_{args.variant}.npz"
    np.savez_compressed(out, rho=result.fields["rho"], u=u, v=v,
                        vorticity=w, solid=solid)
    image = field_to_ppm(w, f"flue_pipe_{args.variant}.ppm",
                         solid=solid)
    print(f"\nfields written to {out}; vorticity image to {image} "
          "(the fig. 1 snapshot)")
    print(f"peak |vorticity| = {np.abs(w).max():.4f}\n")
    print("equi-vorticity pattern (+/- contours, # = walls):\n")
    print(ascii_contours(w, solid))


if __name__ == "__main__":
    main()
