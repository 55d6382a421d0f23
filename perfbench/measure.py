"""Summary statistics the benchmark reports: medians, spread and tails."""

from __future__ import annotations

import math
import statistics

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 80.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def rank(count: int, percentile: float) -> int:
    """Nearest-rank position (1-based) of ``percentile`` among ``count``."""
    return max(1, math.ceil(percentile / 100.0 * count))


def tail_percentile(count: int) -> float | None:
    """The highest ladder percentile with ``TAIL_BEYOND`` samples beyond it."""
    for percentile in TAIL_LADDER:
        if count - rank(count, percentile) >= TAIL_BEYOND:
            return percentile
    return None


def percentile_value(values, percentile: float) -> float:
    ordered = sorted(values)
    return ordered[rank(len(ordered), percentile) - 1]


def fastest_sum(series) -> float:
    """Sum, over positions, of the smallest value any series holds there.

    ``series`` are equally long per-item times from repeats of the same
    work, in the same item order; the result is that work's time with
    every item at its fastest.
    """
    return sum(min(times) for times in zip(*series, strict=True))


def group_medians(series, groups: int) -> list[list[float]]:
    """Each item's median time within each of ``groups`` groups of repeats.

    ``series`` are equally long per-item times from at least ``groups``
    repeats of the same work, in the same item order; repeat ``r`` goes
    to group ``r % groups``.
    """
    series = list(series)
    return [
        [statistics.median(times) for times in zip(*series[g::groups], strict=True)]
        for g in range(groups)
    ]


def spread(values) -> dict:
    """Median, quartiles and their distance over one run's repeats."""
    values = list(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}
