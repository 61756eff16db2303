#!/usr/bin/env python
"""Acoustic waves: the fast time scale that dictates explicit methods.

Subsonic flow carries two time scales — slow hydrodynamics and
fast-moving acoustic waves — and resolving the waves requires
``c_s dt ~ dx`` (eq. 4), which is exactly the step size explicit
methods want anyway.  This example runs the registry's
``acoustic_wave`` scenario (a standing wave on a periodic box,
initialized by the spec's ``standing_wave`` program) with both
methods through the ``repro.run`` facade: the score measures the
kinetic-energy oscillation frequency against the analytic
``omega = c_s k`` dispersion, then a second pass shows the damping
rate scaling with viscosity.

Run:  python examples/acoustic_resonance.py [--nx 64] [--mode 1]
"""

import argparse

from repro.scenarios import diag_series, get, run_case


def run_scored(scenario, **overrides):
    case = scenario.case(**overrides)
    result = run_case(case, backend="serial")
    return result, scenario.score(result, **overrides)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nx", type=int, default=64)
    ap.add_argument("--mode", type=int, default=1)
    ap.add_argument("--nu", type=float, default=1e-3)
    args = ap.parse_args()

    scenario = get("acoustic_wave")
    for method, name in (("fd", "finite differences"),
                         ("lb", "lattice Boltzmann")):
        _, score = run_scored(scenario, method=method, nx=args.nx,
                              mode=args.mode, nu=args.nu)
        d = score.details
        print(f"{name}:")
        print(f"  KE oscillation  {d['frequency']:.6f} cycles/step "
              f"(analytic {d['expected']:.6f})")
        print(f"  relative error  "
              f"{score.residuals['freq_rel_err'] * 100:.2f}%  "
              f"({'pass' if score.passed else 'FAIL'})")
        for failure in score.failures:
            print(f"  failed: {failure}")

    print("\nviscous damping check (LB, mode 1):")
    for nu in (5e-3, 2e-2):
        result, _ = run_scored(scenario, method="lb", nx=args.nx,
                               mode=1, nu=nu)
        ke = diag_series(result.diagnostics, "kinetic_energy")
        print(f"  nu = {nu:<6g} KE ratio over the run = "
              f"{ke[-1] / ke.max():.3f}")


if __name__ == "__main__":
    main()
