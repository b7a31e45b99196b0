"""Small statistics helpers.

Plain Python on purpose. These summaries land in canonical result
dicts whose SHA-256 digests the golden tests pin
(``tests/goldens/*.json``), so every float must come out bit for bit
the same on every run. Each helper is one sequential computation over
the input, and every ``stats`` call in a figure run together costs
well under a tenth of a second.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence."""
    n = len(values)
    if n == 0:
        return 0.0
    return sum(values) / n


def stdev(values: Sequence[float]) -> float:
    """Population standard deviation; 0.0 for fewer than two values."""
    n = len(values)
    if n < 2:
        return 0.0
    mu = mean(values)
    # Square by multiplication: ``** 2`` goes through ``pow``, which may
    # round differently in the last bit, and the goldens pin this form.
    return math.sqrt(sum((v - mu) * (v - mu) for v in values) / n)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    n = len(values)
    if n == 0:
        return 0.0
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    if n == 1:
        return ordered[0]
    rank = (q / 100.0) * (n - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    return _interpolate(ordered[low], ordered[high], rank - low)


def _interpolate(lo: float, hi: float, weight: float) -> float:
    """``lo*(1-w) + hi*w``, clamped to ``[lo, hi]``.

    The products can round outside the bracketing pair — subnormal
    inputs underflow to 0.0 (``5e-324 * 0.5``) — and a percentile must
    never leave the range of the two order statistics it interpolates.
    """
    value = lo * (1 - weight) + hi * weight
    return min(max(value, lo), hi)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def empirical_cdf(values: Sequence[float]) -> Tuple[List[float], List[float]]:
    """Return (xs, ys) of the empirical CDF, ys in (0, 1]."""
    n = len(values)
    if n == 0:
        return [], []
    xs = sorted(values)
    ys = [(i + 1) / n for i in range(n)]
    return xs, ys


def cdf_at(values: Sequence[float], x: float) -> float:
    """Fraction of values ≤ x."""
    n = len(values)
    if n == 0:
        return 0.0
    return sum(1 for v in values if v <= x) / n


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Mean / std / median / p90 / min / max in one dict."""
    if not len(values):
        return {"count": 0, "mean": 0.0, "std": 0.0, "median": 0.0,
                "p90": 0.0, "min": 0.0, "max": 0.0}
    return {
        "count": len(values),
        "mean": mean(values),
        "std": stdev(values),
        "median": median(values),
        "p90": percentile(values, 90),
        "min": min(values),
        "max": max(values),
    }
