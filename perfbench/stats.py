"""Order statistics shared by the benchmark, its sweep and its tests."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile (0 < q <= 100); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


#: the highest percentile a tail is read at. Past it, on serve-hot's
#: sub-millisecond queries, the machine's stalls decide the value: in a
#: noisy phase they slowed over 1% of queries and moved p99 by 44%
#: between seeds, while p95 moves with the median.
TAIL_CAP = 95.0
#: a tail keeps at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(values: Sequence[float], cap: float = TAIL_CAP) -> dict:
    """The highest percentile, at most ``cap``, with ``TAIL_BEYOND`` or more samples above it.

    Returns the value, which percentile it is and the sample count. With
    too few samples for any such percentile the maximum is returned and
    ``percentile`` is 100.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        return {"value": 0.0, "percentile": 0.0, "samples": 0}
    if count <= TAIL_BEYOND:
        return {"value": float(ordered[-1]), "percentile": 100.0, "samples": count}
    index = min(count - 1 - TAIL_BEYOND, max(0, math.ceil(cap / 100.0 * count) - 1))
    return {
        "value": float(ordered[index]),
        "percentile": round(100.0 * (index + 1) / count, 2),
        "samples": count,
    }


def repeated_tail(runs: Sequence[Sequence[float]]) -> dict:
    """The capped tail of repeated runs of one workload.

    When every run has ten times ``TAIL_BEYOND`` samples, so that each
    has a tail of p90 or beyond, the upper median of the runs' own tails:
    one run's stall does not decide it. Otherwise the pooled samples' tail.
    """
    if runs and all(len(run) >= 10 * TAIL_BEYOND for run in runs):
        tails = sorted((tail(run) for run in runs), key=lambda t: t["value"])
        return {**tails[len(tails) // 2], "over": "upper median of the repetitions' tails"}
    return {**tail([v for run in runs for v in run]), "over": "pooled over the repetitions"}


def median(values: Sequence[float]) -> float:
    """The median; 0.0 when empty."""
    return float(statistics.median(values)) if values else 0.0


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
