"""The order statistics and the span arithmetic, on hand-built inputs."""

import pytest

from bench.spans import Recorder, Span, self_times, self_total
from bench.stats import (
    faster_half, median_spread, percentile, tail_percentile,
)


@pytest.mark.parametrize("n,expected", [
    (9, 50), (19, 50), (20, 50), (39, 50), (40, 75), (72, 75), (99, 75),
    (100, 90), (120, 90), (199, 90), (200, 95), (600, 95), (999, 95),
    (1000, 99),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_is_nearest_rank():
    xs = list(range(1, 121))            # 1..120
    assert percentile(xs, 90) == 108    # 12 samples beyond
    assert percentile(xs, 50) == 60
    assert percentile([5.0], 99) == 5.0


def test_faster_half_ignores_the_slow_side():
    quiet = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7]
    assert faster_half(quiet) == pytest.approx(1.15)       # four of eight
    disturbed = quiet[:4] + [x + 5.0 for x in quiet[4:]]
    assert faster_half(disturbed) == faster_half(quiet)
    assert faster_half([3.0, 2.0, 4.0]) == 2.0              # at least one
    assert faster_half([7.0]) == 7.0


def test_yardstick_correction_scales_with_the_host():
    from bench.workloads import YARDSTICK_S, at_yardstick_speed

    # a host twice as slow as the nominal one: half the wall time counts
    assert at_yardstick_speed(2.0, 2 * YARDSTICK_S, 2 * YARDSTICK_S) == (
        pytest.approx(1.0))
    # the two bracketing passes count equally
    assert at_yardstick_speed(1.0, 0.5 * YARDSTICK_S, 1.5 * YARDSTICK_S) == (
        pytest.approx(1.0))


def test_median_spread_scales_with_sample_count():
    xs = [1.0, 2.0, 3.0, 4.0, 5.0] * 4
    assert median_spread(xs[:5]) > median_spread(xs) > 0.0
    assert median_spread([3.0]) == 0.0
    assert median_spread([2.0, 2.0, 2.0]) == 0.0


def test_self_time_on_a_hand_built_tree():
    #  step [0, 10]
    #    compute [1, 4]   exchange [4, 6]   finalize [7, 9]
    #                       copy [4.5, 5.5]
    spans = [
        Span("step", 0.0, 10.0, -1, "r"),
        Span("compute", 1.0, 4.0, 0, "r"),
        Span("exchange", 4.0, 6.0, 0, "r"),
        Span("copy", 4.5, 5.5, 2, "r"),
        Span("finalize", 7.0, 9.0, 0, "r"),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 1.0, 1.0, 2.0])
    # children plus the parent's self time rebuild the parent exactly
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)
    assert self_total(spans, "step") == pytest.approx(3.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0, -1, "r"),
        Span("a", 1.0, 6.0, 0, "r"),
        Span("b", 4.0, 8.0, 0, "r"),     # overlaps a on [4, 6]
    ]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_recorder_wraps_an_instance_and_tracks_parents():
    class Thing:
        def outer(self):
            return self.inner(2) + 1

        def inner(self, x):
            return x * 2

    rec = Recorder("t")
    thing = Thing()
    rec.wrap(thing, "inner", lambda x: f"inner{x}")
    rec.wrap(thing, "outer", "outer")
    assert thing.outer() == 5
    assert [s.name for s in rec.spans] == ["outer", "inner2"]
    assert rec.spans[1].parent == 0 and rec.spans[0].parent == -1
    assert rec.counts == {"outer": 1, "inner2": 1}
    assert Thing().outer() == 5 and len(rec.spans) == 2   # class untouched
