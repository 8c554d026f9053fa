"""One-dimensional optimal transport kernels.

In 1D the quadratic-cost optimal coupling matches sorted samples, so the
squared transport cost between equal-size empirical distributions is the mean
squared difference of their order statistics.
"""
from __future__ import annotations

import numpy as np

from .errors import ShapeError


def w2_squared_1d(a, b) -> float:
    """Squared quadratic transport cost between two equal-size 1D samples:
    (1/m) * sum_i (sort(a)_i - sort(b)_i)^2.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ShapeError(f"need equal-length 1D vectors, got {a.shape} and {b.shape}")
    if len(a) == 0:
        raise ShapeError("need at least one sample")
    d = np.sort(a) - np.sort(b)
    return float(d @ d) / len(a)

