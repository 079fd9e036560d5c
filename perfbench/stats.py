"""Summary statistics shared by the workloads and the steadiness mode."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence

#: A tail percentile is reported only where at least this many samples
#: lie beyond it, so one outlier cannot set it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError(f"geomean needs positive values, got {values}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(values: Sequence[float]) -> Dict[str, float]:
    """The highest whole percentile with ``TAIL_BEYOND`` samples beyond it.

    Nearest-rank: percentile ``p`` is the ``ceil(p * n / 100)``-th
    smallest sample, and the samples beyond it are those ranked after
    it.  The tail never reads below the median: with fewer than
    ``2 * TAIL_BEYOND`` samples no percentile at or above 50 has enough
    samples beyond it, and the median is reported as the tail.

    Returns ``{"value", "percentile", "samples", "beyond"}``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    best = 50
    for p in range(99, 50, -1):
        if n - math.ceil(p * n / 100) >= TAIL_BEYOND:
            best = p
            break
    if best == 50:
        return {"value": median(ordered), "percentile": 50,
                "samples": n, "beyond": n // 2}
    rank = math.ceil(best * n / 100)
    return {"value": float(ordered[rank - 1]), "percentile": best,
            "samples": n, "beyond": n - rank}


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median.

    Uses ``statistics.quantiles(values, n=4)`` (the exclusive method),
    the same quartiles the acceptance check takes.
    """
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0


def summary(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and spread of one metric over repeated runs."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": median(values), "q1": q1, "q3": q3,
            "spread": spread(values), "runs": len(values)}
