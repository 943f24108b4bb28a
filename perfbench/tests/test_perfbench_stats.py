"""The ten-samples-beyond percentile rule and the self-time arithmetic."""

import pytest

from perlayer import timing
from stats import beyond, covered, percentile, self_time, tail_percentile


@pytest.mark.parametrize(
    "n, expected",
    [
        (10, None),  # the median of 10 has only 5 samples above it
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (1000, 99.0),
        (10_000, 99.9),
    ],
)
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert beyond(expected, n) >= 10


def test_tail_respects_ceiling():
    assert tail_percentile(10_000, ceiling=95) == 95.0
    assert tail_percentile(150, ceiling=95) == 90.0


def test_nearest_rank_percentile():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 95) == 95.0
    assert percentile(list(reversed(values)), 90) == 90.0


def test_timing_reports_fallback_percentile_and_count():
    few = [i / 1000 for i in range(1, 151)]  # 150 samples: p95 has 7 beyond
    m = timing(few, 95)
    assert (m.note, m.n, m.unit) == ("p90", 150, "ms")
    assert m.value == pytest.approx(135.0)
    assert timing([i / 1000 for i in range(1, 201)], 95).note == "p95"


def test_self_time_subtracts_union_of_children():
    parent = (0.0, 10.0)
    # overlapping children (two worker threads) count once; parts outside
    # the parent are clipped
    children = [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0), (9.0, 12.0), (-1.0, 0.5)]
    assert covered(parent, children) == pytest.approx(3.0 + 1.0 + 1.0 + 0.5)
    assert self_time(parent, children) == pytest.approx(10.0 - 5.5)


def test_self_time_nested_and_empty():
    assert self_time((0.0, 5.0), []) == 5.0
    assert self_time((0.0, 5.0), [(1.0, 4.0), (2.0, 3.0)]) == pytest.approx(2.0)
