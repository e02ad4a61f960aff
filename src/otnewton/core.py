"""Numerically stable dense reductions and divergences.

All arithmetic is 64-bit.  Log-domain matrices may contain ``-inf`` (treated
as ``exp(-inf) == 0``); ``+inf`` and ``NaN`` are never legal inputs.  Rows
that are entirely ``-inf`` reduce to ``-inf``, not ``NaN``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError


def lse_rows(X):
    """Row-wise log-sum-exp with per-row max subtraction.

    Exact for rows whose entries share a common large magnitude: the shift
    makes the largest exponent 0, so no overflow occurs for any finite input.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise DimensionError(f"lse_rows needs a nonempty 2-d matrix, got shape {X.shape}")
    m = np.max(X, axis=1)
    finite = np.isfinite(m)
    shift = np.where(finite, m, 0.0)
    with np.errstate(over="ignore"):
        s = np.sum(np.exp(X - shift[:, None]), axis=1)
    with np.errstate(divide="ignore"):
        out = shift + np.log(s)
    return np.where(finite, out, -np.inf)


def lse_cols(X):
    """Column-wise log-sum-exp; the transpose analogue of :func:`lse_rows`."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise DimensionError(f"lse_cols needs a nonempty 2-d matrix, got shape {X.shape}")
    return lse_rows(X.T)


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
