"""Dense kernels: blocked log-domain reductions and plan matrix-vector products.

Row tiles of ``BLOCK`` rows (8 MB at n=4096) stay cache-resident across the
add/max/exp/sum chain, and every operation writes into a small reusable
buffer, so no n-by-n temporaries are allocated.  Each row is still reduced
whole by numpy's pairwise summation, so results are bit-identical to the
unblocked expressions regardless of the tile size.

The kernels never exponentiate below ``EXP_FLOOR`` = -700.  Two slow
paths sit just below it: numpy's SIMD ``exp`` falls back to a scalar loop,
about 20x slower, for any vector holding an argument below about -707.7, and
BLAS products on subnormal operands run several times slower than on normal
ones.  So ``log_plan_row_sums`` clamps its shifted exponents at the floor
(each row sum is at least 1 after the shift, and the n * e^-700 the clamp can
add is far below half an ulp), and ``materialize_plan`` writes exactly 0 for
every entry whose log is below the floor (e^-700 ~ 9.9e-305 is a normal
number, so a plan never holds a subnormal).

``plan_matvec`` is the one matrix-vector product with a materialized plan,
used by the Newton system and by ``log_plan_matvec``, which serves row or
column log sums of a diagonally rescaled plan from one product instead of a
log-sum-exp pass.  With ``OTN_DETERMINISTIC=1`` (see ``fixed_order``) the
product is a fixed-order summation, bit-identical whatever the BLAS threading.
"""

from __future__ import annotations

import os

import numpy as np

from . import opcount
from .errors import PlanOverflowError

BLOCK = 256

# exp() of anything above this overflows in float64.
LOG_OVERFLOW = 700.0
# No kernel calls exp() below this; plan entries whose log is lower are 0.
EXP_FLOOR = -700.0


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
        np.maximum(b, EXP_FLOOR, out=b)
        np.exp(b, out=b)
        with np.errstate(divide="ignore"):
            s = shift + np.log(b.sum(axis=1))
        out[lo:hi] = np.where(finite, s, -np.inf)
    return u + out


def materialize_plan(K, u, v, out=None):
    """exp(u 1^T + 1 v^T + K), with entries that would overflow rejected.

    Entries whose log is below ``EXP_FLOOR`` come out as exactly 0.
    """
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
        low = b < EXP_FLOOR
        np.maximum(b, EXP_FLOOR, out=b)
        np.exp(b, out=b)
        np.copyto(b, 0.0, where=low)
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


def fixed_order():
    """Whether ``OTN_DETERMINISTIC=1`` asks for fixed-order products; callers
    read it once, when they take hold of a plan."""
    return os.environ.get("OTN_DETERMINISTIC", "") == "1"


def plan_matvec(P, x, fixed, transpose=False):
    """P @ x, or P.T @ x with ``transpose``; one pass.

    With ``fixed`` the product is numpy's summation of the elementwise
    products (pairwise along each row, in row order down the columns), whose
    order does not depend on BLAS threading.  It runs over row tiles in one
    ``BLOCK``-row buffer; down the columns, the running total is added into
    each tile's first row before the tile is reduced, so the order, and so
    every bit, is that of the untiled sum.
    """
    opcount.add(1)
    if not fixed:
        return P.T @ x if transpose else P @ x
    n = P.shape[0]
    out = None if transpose else np.empty(n)
    buf = np.empty((min(BLOCK, n), P.shape[1]))
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        b = buf[: hi - lo]
        if transpose:
            np.multiply(P[lo:hi], x[lo:hi, None], out=b)
            if out is not None:
                b[0] += out
            out = b.sum(axis=0)
        else:
            np.multiply(P[lo:hi], x[None, :], out=b)
            out[lo:hi] = b.sum(axis=1)
    return out


def log_plan_matvec(P, x, fixed, transpose=False):
    """log(P e^x) (log(P.T e^x) with ``transpose``) for a linear-domain plan.

    Computed as ``max x + log(P e^(x - max x))``, so no weight exceeds 1 and
    nothing overflows; one ``plan_matvec``.  A sum over entries that are all 0
    comes out as -inf.
    """
    m = x.max()
    with np.errstate(divide="ignore"):
        return m + np.log(plan_matvec(P, np.exp(x - m), fixed, transpose))
