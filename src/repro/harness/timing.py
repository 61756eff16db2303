"""Timing methodology of the paper (§7).

"We measure the times T_p and T_1 for integrating a problem by averaging
over 20 consecutive integration steps [...].  We use the UNIX system
call gettimeofday to obtain accurate timings.  To avoid situations where
the Ethernet network is overloaded [...] we repeat each measurement
twice, and select the best performance."

The same protocol — average over a window of steps, best of repeats —
is applied both to real kernel timings on this machine (the speed table
benchmark) and to simulated runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["StepTiming", "time_stepper", "measure_node_speed"]


@dataclass(frozen=True)
class StepTiming:
    """Result of one §7-style timing measurement.

    ``seconds_per_step`` keeps the paper's best-of-repeats selection.
    """

    seconds_per_step: float
    steps: int
    repeats: int
    all_runs: tuple[float, ...]

    @property
    def best(self) -> float:
        return self.seconds_per_step


def time_stepper(
    step: Callable[[int], None],
    steps: int = 20,
    repeats: int = 2,
    warmup: int = 2,
) -> StepTiming:
    """Time ``step(n)`` per the paper's protocol.

    ``step(n)`` advances the computation ``n`` integration steps.  The
    warm-up steps are excluded (cache warming, lazy allocations); each
    repeat times ``steps`` consecutive steps and the best repeat is
    reported.
    """
    if warmup > 0:
        step(warmup)
    runs = []
    for _ in range(max(repeats, 1)):
        t0 = time.perf_counter()
        step(steps)
        t1 = time.perf_counter()
        runs.append((t1 - t0) / steps)
    return StepTiming(
        seconds_per_step=min(runs),
        steps=steps,
        repeats=repeats,
        all_runs=tuple(runs),
    )


def measure_node_speed(
    sim,
    n_nodes: int,
    steps: int = 20,
    repeats: int = 2,
) -> float:
    """Fluid nodes integrated per second (§7's speed definition).

    "We define the speed of a workstation as the number of fluid nodes
    integrated per second, where the number of fluid nodes does not
    include the padded areas."  ``sim`` is anything with a
    ``step(n)`` method; ``n_nodes`` counts the unpadded nodes.
    """
    timing = time_stepper(sim.step, steps=steps, repeats=repeats)
    return n_nodes / timing.seconds_per_step
