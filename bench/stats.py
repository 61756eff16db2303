"""Order statistics the benchmark reports: medians, tails, quartile spread."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Percentiles a tail metric may be reported at, lowest first.
LADDER = (50, 75, 90, 95, 99)

#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def median(xs: Sequence[float]) -> float:
    return float(statistics.median(xs))


def faster_half(xs: Sequence[float]) -> float:
    """Mean of the faster half of these times (of the fastest one below
    two): what a call costs when the host leaves it alone.

    On a shared host a disturbance adds time and none takes any away, so
    the slow side of a run's samples is the neighbours'.  Like the median
    this ignores up to half the samples being disturbed; unlike it, it
    averages the other half, which matters with the six or seven calls a
    ``fd2d_tcp_2rank`` run holds: over ten-seed series its spread was
    4-8 % where the median's was 6-17 %.
    """
    ordered = sorted(xs)
    k = max(1, len(ordered) // 2)
    return float(sum(ordered[:k]) / k)


def percentile(xs: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with >= p% at or below."""
    ordered = sorted(xs)
    rank = max(1, math.ceil(p * len(ordered) / 100.0))
    return float(ordered[rank - 1])


def tail_percentile(n: int) -> int:
    """Highest ladder percentile with at least MIN_BEYOND of n samples beyond.

    Falls back to the median when even that is not supported, so a short
    (``--quick``) run still reports a number under the same name.
    """
    best = LADDER[0]
    for p in LADDER:
        if n - math.ceil(p * n / 100.0) >= MIN_BEYOND:
            best = p
    return best


def median_spread(xs: Sequence[float]) -> float:
    """How far the median of these samples is expected to move between runs.

    The interquartile range over the median, divided by sqrt(n): the
    quartile spread of a median of n such samples, up to a factor near 1.
    Quartiles are taken inside the data (``method="inclusive"``), so one
    slow first call among six does not set the spread.  0 below two
    samples.
    """
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    mid = statistics.median(xs)
    return abs(q3 - q1) / (abs(mid) * math.sqrt(len(xs))) if mid else 0.0


def faster_half_spread(xs: Sequence[float]) -> float:
    """``median_spread`` of the samples ``faster_half`` averages: a slow
    probe the statistic ignores must not make its pair ``unresolved``."""
    ordered = sorted(xs)
    return median_spread(ordered[: max(1, len(ordered) // 2)])
