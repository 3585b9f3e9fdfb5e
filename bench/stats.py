"""Order statistics shared by the run, suite and compare commands."""

from __future__ import annotations

import statistics


def median(values: list[float]) -> float:
    return statistics.median(values)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it, and its value.

    None when there are fewer than eleven samples.
    """
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return int(100 * (n - 10) / n), ordered[n - 11]
