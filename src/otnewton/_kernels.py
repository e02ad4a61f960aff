"""Blocked dense kernels for the hot log-domain reductions.

Row tiles of ``BLOCK`` rows (8 MB at n=4096) stay cache-resident across the
add/max/exp/sum chain, and every operation writes into a small reusable
buffer, so no n-by-n temporaries are allocated.  Each row is still reduced
whole by numpy's pairwise summation, so results are bit-identical to the
unblocked expressions regardless of the tile size.
"""

from __future__ import annotations

import numpy as np

from . import opcount
from .errors import PlanOverflowError

BLOCK = 256

# exp() of anything above this overflows in float64.
LOG_OVERFLOW = 700.0


def log_plan_row_sums(K, u, v):
    """u + LSE over rows of (K + 1 v^T), where K is the log kernel.

    Handles rows whose entries are all -inf (they reduce to -inf).
    """
    opcount.add(4)
    n = K.shape[0]
    out = np.empty(n)
    buf = np.empty((min(BLOCK, n), K.shape[1]))
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        b = buf[: hi - lo]
        np.add(K[lo:hi], v[None, :], out=b)
        m = b.max(axis=1)
        finite = np.isfinite(m)
        shift = np.where(finite, m, 0.0)
        np.subtract(b, shift[:, None], out=b)
        np.exp(b, out=b)
        with np.errstate(divide="ignore"):
            s = shift + np.log(b.sum(axis=1))
        out[lo:hi] = np.where(finite, s, -np.inf)
    return u + out


def materialize_plan(K, u, v, out=None):
    """exp(u 1^T + 1 v^T + K), with entries that would overflow rejected."""
    opcount.add(4)
    n, m = K.shape
    if out is None:
        out = np.empty((n, m))
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        b = out[lo:hi]
        np.add(K[lo:hi], v[None, :], out=b)
        np.add(b, u[lo:hi, None], out=b)
        top = b.max()
        if top > LOG_OVERFLOW:
            raise PlanOverflowError(
                f"log-plan entry {top:.3g} would overflow exp(); warm start is broken")
        with np.errstate(under="ignore"):
            np.exp(b, out=b)
    return out


def square_matvec(P, w):
    """(P * P) @ w without materializing the squared matrix."""
    opcount.add(2)
    n = P.shape[0]
    out = np.empty(n)
    buf = np.empty((min(BLOCK, n), P.shape[1]))
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        b = buf[: hi - lo]
        np.multiply(P[lo:hi], P[lo:hi], out=b)
        out[lo:hi] = b @ w
    return out
