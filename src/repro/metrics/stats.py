"""Small statistics helpers.

Numpy-backed where it pays, with a pure-python fallback — the API and
every returned float are identical either way. Bit-identity matters:
these summaries land in canonical result dicts, whose SHA-256 digests
the golden tests pin (``tests/goldens/*.json``), so the numpy paths
are restricted to operations that round exactly like the scalar code:

- sums use ``np.cumsum(...)[-1]`` (sequential adds, the same float
  operations in the same order as ``sum()``); ``np.sum`` itself uses
  pairwise summation and is *not* bit-compatible;
- elementwise ufuncs (subtract, multiply, divide, compare) round
  identically to the equivalent scalar float64 expressions;
- order statistics (sort, min, max) select elements, never compute.

Small inputs skip numpy entirely — array conversion overhead dwarfs
the work below ``_BATCH_MIN`` elements.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

try:  # numpy ships with the toolchain, but the core must not require it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None

#: Below this many values the pure-python path is faster than paying
#: list→ndarray conversion; identical results either way.
_BATCH_MIN = 64


def _seq_sum(array) -> float:
    """Sequential (left-to-right) sum of a 1-D float array.

    ``np.cumsum`` adds strictly sequentially, so its last element is
    bit-identical to ``sum()`` over the same floats — unlike
    ``np.sum``'s pairwise tree, which rounds differently.
    """
    return float(_np.cumsum(array)[-1])


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence."""
    n = len(values)
    if n == 0:
        return 0.0
    if _np is not None and n >= _BATCH_MIN:
        return _seq_sum(_np.asarray(values, dtype=float)) / n
    return sum(values) / n


def stdev(values: Sequence[float]) -> float:
    """Population standard deviation; 0.0 for fewer than two values."""
    n = len(values)
    if n < 2:
        return 0.0
    mu = mean(values)
    if _np is not None and n >= _BATCH_MIN:
        deltas = _np.asarray(values, dtype=float) - mu
        return math.sqrt(_seq_sum(deltas * deltas) / n)
    # Square by multiplication, as the numpy branch does: ``** 2`` goes
    # through ``pow``, which may round differently in the last bit.
    return math.sqrt(sum((v - mu) * (v - mu) for v in values) / n)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    n = len(values)
    if n == 0:
        return 0.0
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    if _np is not None and n >= _BATCH_MIN:
        ordered = _np.sort(_np.asarray(values, dtype=float))
        if n == 1:
            return float(ordered[0])
        rank = (q / 100.0) * (n - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return float(ordered[low])
        # Same expression (and operand order) as the scalar branch.
        return _interpolate(float(ordered[low]), float(ordered[high]), rank - low)
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
    if _np is not None and n >= _BATCH_MIN:
        xs = _np.sort(_np.asarray(values, dtype=float)).tolist()
        ys = (_np.arange(1, n + 1, dtype=float) / n).tolist()
        return xs, ys
    xs = sorted(values)
    ys = [(i + 1) / n for i in range(n)]
    return xs, ys


def cdf_at(values: Sequence[float], x: float) -> float:
    """Fraction of values ≤ x."""
    n = len(values)
    if n == 0:
        return 0.0
    if _np is not None and n >= _BATCH_MIN:
        return int(_np.count_nonzero(_np.asarray(values, dtype=float) <= x)) / n
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
