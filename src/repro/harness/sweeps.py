"""Parameter sweeps regenerating each figure of the paper (§7-§8).

One function per figure (or figure pair sharing a sweep), returning
plain data structures the benchmarks print and assert on.  Simulated
sweeps run the discrete-event cluster; model sweeps evaluate §8's
closed forms.  See DESIGN.md's per-experiment index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.efficiency import EfficiencyModel
from ..cluster.simulator import ClusterSimulation

__all__ = [
    "SweepPoint",
    "DEFAULT_2D_DECOMPS",
    "DEFAULT_3D_DECOMPS",
    "DEFAULT_2D_SIDES",
    "DEFAULT_3D_SIDES",
    "sweep_2d_grain",
    "sweep_3d_grain",
    "sweep_processors",
    "model_fig12",
    "model_fig13",
]

#: §7's 2D decompositions: (2x2), (3x3), (4x4), (5x4) with the paper's
#: m values 2, 3, 4, 4.
DEFAULT_2D_DECOMPS: tuple[tuple[int, int], ...] = (
    (2, 2),
    (3, 3),
    (4, 4),
    (5, 4),
)
#: §7's 3D decompositions ("(2x2x2), (3x2x2), etc.") within 25 hosts.
DEFAULT_3D_DECOMPS: tuple[tuple[int, int, int], ...] = (
    (2, 2, 2),
    (3, 2, 2),
    (4, 2, 2),
    (5, 2, 2),
)
#: Grain sweep in subregion side length: 100^2..300^2 is the paper's
#: measured range, extended downward to expose the small-message rolloff.
DEFAULT_2D_SIDES: tuple[int, ...] = (25, 50, 75, 100, 150, 200, 250, 300)
#: 3D grains 10^3..40^3 (40^3 is the §8 memory ceiling per workstation).
DEFAULT_3D_SIDES: tuple[int, ...] = (10, 15, 20, 25, 30, 35, 40)


@dataclass(frozen=True)
class SweepPoint:
    """One measured point of a figure series."""

    processors: int
    side: int
    nodes: int
    efficiency: float
    speedup: float
    time_per_step: float
    network_errors: int = 0


def _run_point(
    method: str,
    ndim: int,
    blocks: tuple[int, ...],
    side: int,
    steps: int,
) -> SweepPoint:
    res = ClusterSimulation(method, ndim, blocks, side).run(steps=steps)
    return SweepPoint(
        processors=res.processors,
        side=side,
        nodes=side**ndim,
        efficiency=res.efficiency,
        speedup=res.speedup,
        time_per_step=res.time_per_step,
        network_errors=res.bus.network_errors,
    )


def sweep_2d_grain(
    method: str = "lb",
    decomps: tuple[tuple[int, int], ...] = DEFAULT_2D_DECOMPS,
    sides: tuple[int, ...] = DEFAULT_2D_SIDES,
    steps: int = 30,
) -> dict[tuple[int, int], list[SweepPoint]]:
    """Figures 5-6 (LB) and 7-8 (FD): efficiency/speedup vs grain."""
    return {
        blocks: [
            _run_point(method, 2, blocks, side, steps)
            for side in sides
        ]
        for blocks in decomps
    }


def sweep_3d_grain(
    method: str = "lb",
    decomps: tuple[tuple[int, int, int], ...] = DEFAULT_3D_DECOMPS,
    sides: tuple[int, ...] = DEFAULT_3D_SIDES,
    steps: int = 30,
) -> dict[tuple[int, int, int], list[SweepPoint]]:
    """Figures 10-11: 3D efficiency vs grain / speedup vs problem size."""
    return {
        blocks: [
            _run_point(method, 3, blocks, side, steps)
            for side in sides
        ]
        for blocks in decomps
    }


def sweep_processors(
    side_2d: int = 120,
    side_3d: int = 25,
    processors: tuple[int, ...] = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20),
    method: str = "lb",
    steps: int = 30,
) -> dict[str, list[SweepPoint]]:
    """Figure 9: scaled problem, (P x 1) in 2D vs (P x 1 x 1) in 3D.

    The subregion per processor is held fixed (120^2 and 25^3 — about
    14,500 fluid nodes each, the paper's comparable sizes).
    """
    out: dict[str, list[SweepPoint]] = {"2d": [], "3d": []}
    for p in processors:
        out["2d"].append(_run_point(method, 2, (p, 1), side_2d, steps))
        out["3d"].append(_run_point(method, 3, (p, 1, 1), side_3d, steps))
    return out


def model_fig12(
    sides: np.ndarray | None = None,
) -> dict[tuple[int, float], np.ndarray]:
    """Figure 12: eq. 20 efficiency vs ``N^{1/2}``.

    Four curves for ``P = 4, 9, 16, 20`` with ``m = 2, 3, 4, 4`` and
    ``U_calc/V_com = 2/3``, keyed by ``(P, m)``.
    """
    if sides is None:
        sides = np.linspace(10, 300, 59)
    model = EfficiencyModel()
    return {
        (p, m): model.efficiency(sides**2, m, p, ndim=2)
        for p, m in ((4, 2.0), (9, 3.0), (16, 4.0), (20, 4.0))
    }


def model_fig13(
    processors: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Figure 13: eqs. 20-21 efficiency vs ``P``.

    2D at ``N = 125^2``, 3D at ``N = 25^3``, both with ``m = 2`` (each
    subregion communicates with its left and right neighbours only) and
    the 5/6 payload/speed factor folded into eq. 21.
    """
    if processors is None:
        processors = np.arange(2, 21)
    model = EfficiencyModel()
    return {
        "P": processors.astype(float),
        "2d": model.efficiency(125.0**2, 2.0, processors, ndim=2),
        "3d": model.efficiency(25.0**3, 2.0, processors, ndim=3),
    }
