"""Shared infrastructure for the per-figure benchmark harness.

Every benchmark regenerates one table or figure of the paper and

* prints the rows/series the figure reports (visible with ``-s``),
* writes the same text to ``benchmarks/results/<name>.txt``,
* asserts the *shape* claims of the paper (who wins, by roughly what
  factor, where the crossovers fall) — absolute 1994 numbers are not
  asserted, as the substrate is a calibrated simulator.

Run with ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: §7's 2D decompositions (2x2), (3x3), (4x4), (5x4), with the paper's
#: m values 2, 3, 4, 4
DECOMPS_2D = ((2, 2), (3, 3), (4, 4), (5, 4))
#: 2D grain in subregion side: 100^2..300^2 is the paper's measured
#: range, extended downward to expose the small-message rolloff
SIDES_2D = (25, 50, 75, 100, 150, 200, 250, 300)
#: §7's 3D decompositions ("(2x2x2), (3x2x2), etc.") within 25 hosts
DECOMPS_3D = ((2, 2, 2), (3, 2, 2), (4, 2, 2), (5, 2, 2))
#: 3D grains 10^3..40^3 (40^3 is the §8 memory ceiling per workstation)
SIDES_3D = (10, 15, 20, 25, 30, 35, 40)


@pytest.fixture
def record_figure():
    """Write a figure's textual twin and echo it to stdout."""

    def _record(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n=== {name} ===\n{text}\n")

    return _record


@pytest.fixture
def record_svg():
    """Render a figure's curves as an SVG file next to its text twin."""
    from repro.viz import svg_plot

    def _record(name: str, series, **kw) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        svg_plot(series, RESULTS_DIR / f"{name}.svg", **kw)

    return _record


def run_once(benchmark, fn):
    """Run a figure generator exactly once under pytest-benchmark.

    The interesting output of these benchmarks is the figure data, not
    the wall time of generating it; one round keeps the harness fast
    while still appearing in the benchmark table.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def efficiency_sweep(method, blocks, sides, steps):
    """One grid of figs. 5-13: the ``efficiency`` scenario over
    ``blocks`` x ``sides`` on the simulated cluster.

    Returns ``{blocks: [point, ...]}`` with the points in ``sides``
    order, each the scored sweep point read as one dict: its params
    (``side``), residuals (``f``, ``speedup``, ``time_per_step``) and
    details (``processors``, ``nodes``, ``network_errors``).
    """
    from repro.scenarios import get, run_sweep

    grid = {"method": [method],
            "blocks": ["x".join(map(str, b)) for b in blocks],
            "side": list(sides), "steps": [steps]}
    points = run_sweep(get("efficiency"), grid, backend="simulated")
    for pt in points:
        assert pt.passed, (pt.params, pt.score, pt.error)
    flat = [{**pt.params, **pt.score["residuals"], **pt.score["details"]}
            for pt in points]
    n = len(sides)
    return {b: flat[i * n:(i + 1) * n] for i, b in enumerate(blocks)}


def processor_sweep(procs, steps):
    """Fig. 9's scaled problem: ``(P x 1)`` at 120^2 and ``(P x 1 x 1)``
    at 25^3 per processor (about 14,500 fluid nodes each, the paper's
    comparable sizes), as ``{"2d": [point, ...], "3d": [...]}`` over
    ``procs``."""
    d2 = efficiency_sweep("lb", [(p, 1) for p in procs], (120,), steps)
    d3 = efficiency_sweep("lb", [(p, 1, 1) for p in procs], (25,), steps)
    return {"2d": [pts[0] for pts in d2.values()],
            "3d": [pts[0] for pts in d3.values()]}
