"""Statistics helpers: percentiles with the ten-samples-beyond rule, and self time."""

from __future__ import annotations

import math

# Percentiles a tail may be reported at, highest first.
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def rank_index(q: float, n: int) -> int:
    """Nearest-rank index of the q-th percentile in n sorted samples."""
    # rounding first keeps float error (0.999 * 10000 = 9990.000000000002)
    # from moving the rank up by one
    return max(0, math.ceil(round(q * n / 100.0, 9)) - 1)


def beyond(q: float, n: int) -> int:
    """Samples strictly above the q-th percentile's nearest-rank position."""
    return n - 1 - rank_index(q, n)


def tail_percentile(n: int, ceiling: float = 100.0) -> float | None:
    """Highest LADDER percentile, at most ``ceiling``, with MIN_BEYOND samples beyond it.

    None when even the median has fewer than MIN_BEYOND samples above it.
    """
    for q in LADDER:
        if q <= ceiling and beyond(q, n) >= MIN_BEYOND:
            return q
    return None


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[rank_index(q, len(ordered))]


def covered(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children`` (clipped to it)."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (interval[1] - interval[0]) - covered(interval, children)
