"""Sample statistics shared by ``run.py`` and ``compare.py``.

Kept free of NumPy and of the program, so ``compare.py`` runs anywhere
the result files are.
"""

from __future__ import annotations

import math
import statistics

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; with fewer, the slowest sample stands in for it.
TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives
    them (one sample: both are that sample)."""
    values = list(values)
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else math.inf


def tail(values, q: float = 0.9) -> tuple[str, float]:
    """The ``q`` percentile by nearest rank, labelled ``p90`` etc., when
    at least :data:`TAIL_BEYOND` samples lie beyond it; otherwise the
    maximum, labelled ``max``.

    Nearest rank keeps the value an observed sample: with 100 samples
    the p90 is the 90th smallest and exactly 10 lie beyond it.
    """
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    if len(ordered) - rank >= TAIL_BEYOND:
        return f"p{round(q * 100)}", float(ordered[rank - 1])
    return "max", float(ordered[-1])
