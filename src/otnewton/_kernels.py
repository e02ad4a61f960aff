"""Dense kernels: blocked log-domain reductions and plan matrix-vector products.

The kernels work over row tiles of ``BLOCK * BLOCK`` entries (512 KiB, see
``tile_rows`` and ``row_tiles``), which stay in a core's L2 cache whatever n
is, and every operation writes into one such reusable tile or the output, so
no n-by-n temporaries are allocated.  The log-domain kernels form the log kernel
``-gamma C`` inside each tile from the cost (it is never stored), and a log
plan entry is always rounded as ``(-gamma C_ij + u_i) + v_j``.  Each row
is still reduced whole by numpy's pairwise summation, and each column in row
order, so results are bit-identical to the unblocked expressions over
``-gamma * C`` regardless of the tile size.

The kernels never exponentiate below ``EXP_FLOOR`` = -700.  Two slow
paths sit just below it: numpy's SIMD ``exp`` falls back to a scalar loop,
about 18x slower, for any vector holding an argument below about -707.7
(about 120x where its output is subnormal), and BLAS products on subnormal
operands run several times slower than on normal ones.  So
``materialize_plan`` and ``scale_plan`` write exactly 0 for every entry
below ``PLAN_FLOOR`` = e^-700 (a normal number, so a plan never holds a
subnormal).  A plan tile with no log entry below the floor is
exponentiated as it is, with no mask, clamp or flush, which would not
change it.  The square of an entry below 2^-511 is still subnormal, so
``square_matvec`` scales the entries by an exact power of two, chosen from
a bound on them, before it squares them, and scales the result back.

``materialize_plan`` is the one plan builder.  Given no column potential,
it anchors the plan at the column maxima ``m``, ``v = -m``, and a dense
anchor reads ``C`` once: ``log_plan_max``, which holds the only maxima
loop, writes the log plan ``-gamma C + u 1^T`` into the plan itself while it
reduces ``m``, and the plan pass adds ``-m`` in place and exponentiates.
In that rounding order each column's largest entry is exactly 1.

``plan_matvec`` is the one matrix-vector product with a materialized plan,
used by the Newton system (which applies a diagonally rescaled plan as the
product with the plan between two length-n scalings) and by
``log_plan_matvec``, which serves row or column log sums of a diagonally
rescaled plan from one product.  With ``OTN_DETERMINISTIC=1`` (see
``fixed_order``) it is a fixed-order summation, bit-identical whatever the
BLAS threading; ``plan_cost``, the final plan's cost, always is one.
``log_plan_max`` finds the row or column maxima of the log plan, where a
plan is anchored so that no entry of the summed lines exceeds 1.

A plan whose entries are mostly exact zeros can be materialized as a
``SparsePlan`` instead (``materialize_plan`` with ``max_nnz``): compressed
sparse rows, built tile by tile with no n-by-n array, plus the rows of its
transpose, so each product is one pass over its nonzeros (sparse scaling,
Schmitzer, SIAM J. Sci. Comput. 2019).  Only exact zeros are dropped, so
nothing is lost.  ``plan_matvec``, ``log_plan_matvec`` and
``square_matvec`` serve it in place of the dense plan; its products are
sequential sums in scipy's compiled CSR loop, in a fixed order whatever
``OTN_DETERMINISTIC`` says, with the input scaled by a power of two so
that no term is subnormal (``_csr_matvec``).  scipy is imported only when
a sparse plan is first built.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import opcount
from .errors import DimensionError, PlanOverflowError

BLOCK = 256

# exp() of anything above this overflows in float64.
LOG_OVERFLOW = 700.0
# No kernel calls exp() below this; plan entries whose log is lower are 0.
EXP_FLOOR = -700.0
# Smallest nonzero plan entry, e^EXP_FLOOR ~ 9.9e-305.
PLAN_FLOOR = math.exp(EXP_FLOOR)


def tile_rows(m):
    """Rows per tile of every n-by-n kernel: ``BLOCK * BLOCK`` entries of m columns."""
    return max(1, BLOCK * BLOCK // m)


def row_tiles(n, m, out=None):
    """``(lo, hi, tile)`` for each span of ``tile_rows(m)`` rows of an n-by-m
    matrix, ``tile`` those rows of ``out`` when given, else the first
    ``hi - lo`` rows of one reusable buffer."""
    rows = tile_rows(m)
    buf = np.empty((min(rows, n), m)) if out is None else None
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        yield lo, hi, out[lo:hi] if buf is None else buf[: hi - lo]


def log_plan_max(C, gamma, x, axis, out=None):
    """The largest log entry of each column (``axis`` 0) or row (``axis`` 1)
    of the plan at potentials ``(x, 0)`` or ``(0, x)``: max over i of
    ``x_i - gamma C_ij`` for each column j, or max over j of
    ``x_j - gamma C_ij`` for each row i.

    One pass over row tiles of ``C``, with no exp and no transposed cost.
    Given an n-by-m ``out``, the tiles are its rows, so the log plan
    ``-gamma C + x 1^T`` (``-gamma C + 1 x^T`` for rows) is left there and
    no tile is allocated.
    """
    opcount.add(1)
    n, m = C.shape
    top = np.full(m, -np.inf) if axis == 0 else np.empty(n)
    for lo, hi, b in row_tiles(n, m, out):
        np.multiply(C[lo:hi], -gamma, out=b)
        if axis == 0:
            np.add(b, x[lo:hi, None], out=b)
            np.maximum(top, b.max(axis=0), out=top)
        else:
            np.add(b, x[None, :], out=b)
            b.max(axis=1, out=top[lo:hi])
    return top


def _exp_tile(b):
    """exp of the log-plan tile ``b`` in place, entries below ``EXP_FLOOR``
    set to 0; returns the mask of those entries, or None when there are none.

    A tile with no entry below the floor skips the mask, the clamp and the
    flush, which would leave it as it is."""
    top = b.max()
    if top > LOG_OVERFLOW:
        raise PlanOverflowError(
            f"log-plan entry {top:.3g} would overflow exp(); warm start is broken")
    if not b.min() < EXP_FLOOR:
        np.exp(b, out=b)
        return None
    low = b < EXP_FLOOR
    np.maximum(b, EXP_FLOOR, out=b)
    np.exp(b, out=b)
    np.copyto(b, 0.0, where=low)
    return low


def _plan_tile(C, gamma, u, v, b):
    """Write exp((-gamma C + u 1^T) + 1 v^T) into the tile ``b`` (rows of ``C``
    and ``u`` alike), or with ``C`` None exp(b + 1 v^T), ``b`` holding the
    log plan ``-gamma C + u 1^T`` already; return ``_exp_tile``'s mask."""
    if C is not None:
        np.multiply(C, -gamma, out=b)
        np.add(b, u[:, None], out=b)
    np.add(b, v[None, :], out=b)
    return _exp_tile(b)


def _nonzeros(low, b):
    return b.size if low is None else low.size - np.count_nonzero(low)


def materialize_plan(C, gamma, u, v=None, out=None, max_nnz=None):
    """exp(u 1^T + 1 v^T - gamma C), with entries that would overflow rejected;
    returns ``(plan, v, nnz)``, nnz its count of nonzero entries.

    With ``v`` None the plan is anchored at the column maxima,
    ``v = -log_plan_max(C, gamma, u, 0)``, so each column's largest entry
    is exactly 1; counted as maxima 1 and plan 4.  A dense one is built
    from one read of ``C``: the maxima pass leaves the log plan
    ``-gamma C + u 1^T`` in the plan, and the plan pass adds ``v`` in place
    and exponentiates.

    ``-gamma C`` is formed tile by tile, never stored, and each log entry is
    rounded as ``(-gamma C_ij + u_i) + v_j``.  Entries whose log
    is below ``EXP_FLOOR`` come out as exactly 0.  The plan is dense
    (written into ``out`` when given) unless ``max_nnz`` is given: then it
    is a ``SparsePlan`` built tile by tile, with no n-by-n array, and the
    build stops with ``(None, v, nnz)`` once the count passes ``max_nnz``.
    Its entries are those of the dense plan, bit for bit.
    """
    opcount.add(4)
    n, m = C.shape
    if max_nnz is None:
        if out is None:
            out = np.empty((n, m))
        anchored = v is None
        if anchored:  # the maxima pass leaves the log plan in out
            v = -log_plan_max(C, gamma, u, 0, out)
        nnz = 0
        for lo, hi, b in row_tiles(n, m, out):
            nnz += _nonzeros(_plan_tile(None if anchored else C[lo:hi], gamma, u[lo:hi], v, b), b)
        return out, v, nnz
    if v is None:
        v = -log_plan_max(C, gamma, u, 0)
    rows = tile_rows(m)
    col = np.broadcast_to(np.arange(m, dtype=np.int32), (min(rows, n), m)).copy()
    indptr = np.zeros(n + 1, dtype=np.int32)
    data, indices, nnz = [], [], 0
    for lo, hi, b in row_tiles(n, m):
        low = _plan_tile(C[lo:hi], gamma, u[lo:hi], v, b)
        keep = np.ones(b.shape, dtype=bool) if low is None else np.logical_not(low, out=low)
        data.append(b[keep])
        nnz += len(data[-1])
        if nnz > max_nnz:
            return None, v, nnz
        indices.append(col[: hi - lo][keep])
        indptr[lo + 1:hi + 1] = np.count_nonzero(keep, axis=1)
    np.cumsum(indptr, out=indptr)
    return SparsePlan((n, m), indptr, np.concatenate(indices), np.concatenate(data)), v, nnz


class SparsePlan:
    """A plan held in compressed sparse row (CSR) form, with the CSR of its
    transpose built once.

    ``plan_matvec``, ``log_plan_matvec`` and ``square_matvec`` serve it in
    place of a dense plan, through ``_csr_matvec``.  ``rows`` and ``cols``
    are the CSR of the plan and of its transpose, as ``(rows, columns,
    indptr, indices, data)``; ``top`` is the largest entry.
    """

    def __init__(self, shape, indptr, indices, data):
        from scipy.sparse import _sparsetools

        n, m = self.shape = shape
        self.top = float(data.max()) if len(data) else 0.0
        self.rows = (n, m, indptr, indices, data)
        self.cols = (m, n, np.empty(m + 1, dtype=indptr.dtype), np.empty_like(indices),
                     np.empty_like(data))
        _sparsetools.csr_tocsc(*self.rows, *self.cols[2:])


# Binary exponent that the largest term of a scaled product stays below:
# a row sum of fewer than 2^31 such terms stays below 2^1022.
_SCALED_EXP = 990


def _csr_matvec(csr, top, x, shift=0):
    """A @ x, times 2^-shift, for ``csr`` = (rows, columns, indptr, indices,
    data) of a matrix whose entries are at most ``top``, in scipy's compiled
    CSR loop.

    The loop is called directly: the checks of a ``scipy.sparse`` array cost
    about 4 us a product, a third of one at n = 1024 and 1% density.  It has
    no fused multiply-add, so a product of an entry near e^-700 and an input
    entry near 1e-9 is rounded to a subnormal, and every such term costs
    several times a normal one.  So the input is scaled up by an exact power
    of two 2^k, chosen so that no term can exceed 2^_SCALED_EXP, and the
    result scaled back with the caller's ``shift`` in one step: wherever the
    unscaled product has no subnormal term or result, the two are equal bit
    for bit.  k >= 0 (nothing is scaled down), so the scaling cannot add a
    subnormal.
    """
    from scipy.sparse import _sparsetools

    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != (csr[1],):  # the compiled loop reads x without bounds checks
        raise DimensionError(f"sparse plan product needs a vector of {csr[1]}, got {x.shape}")
    x_max = float(np.abs(x).max()) if x.size else 0.0
    k = 0
    if x_max > 0.0 and top > 0.0:
        k = max(0, _SCALED_EXP - math.frexp(top)[1] - math.frexp(x_max)[1])
    y = np.zeros(csr[0])
    _sparsetools.csr_matvec(*csr, np.ldexp(x, k) if k else x, y)
    return np.ldexp(y, -(k + shift), out=y) if k + shift else y


def scale_plan(P, x, y):
    """P <- D(x) P D(y) in place, with entries below ``PLAN_FLOOR`` set to 0.

    One pass over row tiles; a scaling factor below 1 can take an entry near
    the floor below it (or to a subnormal), and the flush in the same pass
    keeps the plan free of both.
    """
    opcount.add(1)
    n = P.shape[0]
    rows = tile_rows(P.shape[1])
    for lo in range(0, n, rows):
        b = P[lo:lo + rows]
        np.multiply(b, x[lo:lo + rows, None], out=b)
        np.multiply(b, y[None, :], out=b)
        np.copyto(b, 0.0, where=b < PLAN_FLOOR)
    return P


def _square_exp(top, w):
    """The k that ``square_matvec`` scales the entries by, for entries at most
    ``top`` and weights ``w``: the largest with every square and every
    weighted term below 2^_SCALED_EXP, so the squares and the row sums stay
    finite whatever ``w`` is.  At most 1023, so that 2^k is finite."""
    if not top > 0.0:
        return 0
    w_max = float(np.abs(w).max()) if w.size else 0.0
    k = (_SCALED_EXP - 2 * math.frexp(top)[1] - max(0, math.frexp(w_max)[1])) // 2
    return min(k, 1023)


def square_matvec(P, w, top=None):
    """(P * P) @ w without materializing the squared matrix (for a
    ``SparsePlan``, the squared entries are one length-nnz array).

    The square of an entry below 2^-511 is subnormal, and so slow to form
    and to multiply.  So the entries are scaled by an exact power of two
    2^k before they are squared (``_square_exp``) and the result by 2^-2k
    in place: wherever the unscaled product has no subnormal square, term
    or result, the two are equal bit for bit.  With entries at most 1 and
    weights below 1, k = 494, so the squares of all entries above 2^-1005
    are normal.  k comes from ``top``, a bound on the entries: a
    ``SparsePlan``'s own ``top`` (the argument is ignored), else the given
    one, else the plan's largest entry (one more read).
    """
    opcount.add(2)
    if isinstance(P, SparsePlan):
        k = _square_exp(P.top, w)
        scale = math.ldexp(1.0, k)
        *shape, data = P.rows
        sq = np.multiply(data, scale)
        np.square(sq, out=sq)
        return _csr_matvec((*shape, sq), (P.top * scale) ** 2, w, 2 * k)
    k = _square_exp(float(P.max()) if top is None else top, w)
    scale = math.ldexp(1.0, k)
    out = np.empty(P.shape[0])
    for lo, hi, b in row_tiles(*P.shape):
        np.square(np.multiply(P[lo:hi], scale, out=b), out=b)
        out[lo:hi] = b @ w
    return np.ldexp(out, -2 * k, out=out)


def fixed_order():
    """Whether ``OTN_DETERMINISTIC=1`` asks for fixed-order products; callers
    read it once, when they take hold of a plan."""
    return os.environ.get("OTN_DETERMINISTIC", "") == "1"


def plan_matvec(P, x, fixed, transpose=False):
    """P @ x, or P.T @ x with ``transpose``; one pass (over the nonzeros of a
    ``SparsePlan``, which ignores ``fixed``: its order is always fixed).

    With ``fixed`` the product is numpy's summation of the elementwise
    products (pairwise along each row, in row order down the columns), whose
    order does not depend on BLAS threading.  It runs over row tiles in one
    reusable tile; down the columns, the running total is added into each
    tile's first row before the tile is reduced, so the order, and so every
    bit, is that of the untiled sum.
    """
    opcount.add(1)
    if isinstance(P, SparsePlan):
        return _csr_matvec(P.cols if transpose else P.rows, P.top, x)
    if not fixed:
        return P.T @ x if transpose else P @ x
    out = None if transpose else np.empty(P.shape[0])
    for lo, hi, b in row_tiles(*P.shape):
        if transpose:
            np.multiply(P[lo:hi], x[lo:hi, None], out=b)
            if out is not None:
                b[0] += out
            out = b.sum(axis=0)
        else:
            np.multiply(P[lo:hi], x[None, :], out=b)
            out[lo:hi] = b.sum(axis=1)
    return out


def plan_cost(P, C):
    """<P, C> for a dense plan, one pass: numpy's pairwise sums of each row's
    products and then of the row sums, over row tiles, so every bit is that
    of the untiled sum whatever the BLAS threading."""
    opcount.add(1)
    out = np.empty(P.shape[0])
    for lo, hi, b in row_tiles(*P.shape):
        np.multiply(P[lo:hi], C[lo:hi], out=b)
        b.sum(axis=1, out=out[lo:hi])
    return float(out.sum())


def log_plan_matvec(P, x, fixed, transpose=False):
    """log(P e^x) (log(P.T e^x) with ``transpose``) for a linear-domain plan.

    Computed as ``max x + log(P e^(x - max x))``, so no weight exceeds 1 and
    nothing overflows; one ``plan_matvec``.  A sum over entries that are all 0
    comes out as -inf.
    """
    m = x.max()
    with np.errstate(divide="ignore"):
        return m + np.log(plan_matvec(P, np.exp(x - m), fixed, transpose))
