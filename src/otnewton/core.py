"""Divergences and entropies of marginals; all arithmetic is 64-bit."""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError


def chi_sq_div(y, x):
    """Chi-square divergence sum(y_i^2 / x_i) - 1 of y from a positive x."""
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if y.shape != x.shape:
        raise DimensionError(f"length mismatch: {y.shape} vs {x.shape}")
    if np.any(x <= 0.0):
        raise DomainError("chi_sq_div requires strictly positive reference x")
    if np.any(y < 0.0):
        raise DomainError("chi_sq_div requires nonnegative y")
    return float(np.sum(y * y / x) - 1.0)


def shannon_entropy(p):
    """Shannon entropy -sum(p log p) of a probability vector, with 0 log 0 = 0."""
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < 0.0):
        raise DomainError("shannon_entropy requires nonnegative entries")
    pos = p[p > 0.0]
    return float(-np.sum(pos * np.log(pos)))
