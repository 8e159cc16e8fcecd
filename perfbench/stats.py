"""Summary arithmetic shared by the benchmark and its spread checker."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

# A tail percentile is reported only where at least this many samples lie
# beyond it; with fewer samples the maximum is reported instead.
TAIL_BEYOND = 10


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """Highest nearest-rank percentile with at least ``TAIL_BEYOND`` samples
    above it.

    Returns ``(value, percentile, sample_count)``.  With n samples the rank
    is n - TAIL_BEYOND, so the percentile is 100 * (n - TAIL_BEYOND) / n.
    When n <= TAIL_BEYOND no percentile qualifies; the maximum is returned
    with percentile 100, so the caller can see from the count that the
    sample is too small for a true tail.
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail of an empty sample")
    ordered = sorted(values)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, n


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median, with the quartiles of ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        raise ValueError("spread needs at least two values")
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    if mid == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(mid)

