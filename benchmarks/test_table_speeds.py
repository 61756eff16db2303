"""§7 table of workstation speeds.

The paper defines a workstation's speed as fluid nodes integrated per
second (padded areas excluded) and tabulates it for LB/FD x 2D/3D,
normalized to 39132 nodes/s (LB 2D on the HP 715/50).

Two tables are produced:

* the *paper's* table, reproduced from the calibration constants the
  cluster simulator runs on (this is what figs. 5-11 are built from);
* the *measured* table on this machine's NumPy kernels, using the same
  protocol (average over 20 steps, best of 2 repeats, grids spanning
  the paper's 100^2..300^2 / 10^3..44^3 ranges scaled to test size).

The paper's key *relative* claims are asserted on the measured numbers:
FD integrates more nodes per second than LB at equal dimensionality,
and 3D is slower per node than 2D for LB (more populations to move).
"""

import numpy as np
import pytest

from repro.cluster import RELATIVE_SPEED, U_REF_NODES_PER_S, node_speed
from repro.cluster.calibration import host_node_speed
from repro.harness import format_table

from conftest import run_once


def test_paper_speed_table(benchmark, record_figure):
    def build():
        rows = []
        for (method, ndim), models in sorted(RELATIVE_SPEED.items()):
            rows.append(
                [
                    f"{method.upper()} {ndim}D",
                    f"{models['715/50']:.2f}",
                    f"{models['710']:.2f}",
                    f"{models['720']:.2f}",
                    f"{node_speed(method, ndim):.0f}",
                ]
            )
        return rows

    rows = run_once(benchmark, build)
    text = format_table(
        ["method", "715/50", "710", "720", "nodes/s (715/50)"],
        rows,
        title=f"§7 speed table (1.0 = {U_REF_NODES_PER_S:.0f} nodes/s)",
    )
    record_figure("table_speeds_paper", text)
    assert node_speed("lb", 2) == 39132.0
    # FD 2D is ~1.24x LB 2D; LB 3D is ~0.51x LB 2D (paper's table)
    assert node_speed("fd", 2) / node_speed("lb", 2) == pytest.approx(1.24)
    assert node_speed("lb", 3) / node_speed("lb", 2) == pytest.approx(0.51)


def test_measured_speed_table(benchmark, record_figure):
    """Same measurement on this machine's vectorized kernels."""

    def measure():
        out = {}
        for name in ("lb", "fd"):
            for ndim, sides in ((2, (64, 128)), (3, (16, 24))):
                speeds = [
                    host_node_speed(name, ndim, s, steps=10, repeats=2)
                    for s in sides
                ]
                out[(name, ndim)] = float(np.mean(speeds))
        return out

    speeds = run_once(benchmark, measure)
    ref = speeds[("lb", 2)]
    rows = [
        [f"{m.upper()} {d}D", f"{speeds[(m, d)]:.0f}",
         f"{speeds[(m, d)] / ref:.2f}"]
        for (m, d) in sorted(speeds)
    ]
    text = format_table(
        ["method", "nodes/s", "relative"],
        rows,
        title="measured on this machine (NumPy kernels, §7 protocol)",
    )
    record_figure("table_speeds_measured", text)
    # Shape claims that should survive any substrate:
    assert speeds[("fd", 2)] > speeds[("lb", 2)]  # FD cheaper per node
    assert speeds[("lb", 3)] < speeds[("lb", 2)]  # 3D LB slower per node
