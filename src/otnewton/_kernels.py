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
``materialize_plan`` writes exactly 0 for every entry whose log is below
``EXP_FLOOR``, and the linear-domain passes (``scale_plan``, ``round_plan``
and ``round_trip_matrix``) set every entry below ``PLAN_FLOOR`` = e^-700 (a
normal number) to 0 through one flush, ``_flush``, so a plan never holds a
subnormal.  A plan tile with no log entry below the floor is
exponentiated as it is, with no mask, clamp or flush, which would not
change it.  The square of an entry below 2^-511 is still subnormal, so
``square_matvec`` always scales the entries by an exact power of two, chosen
from a bound above them, before it squares them, and scales the result back;
``round_trip_matrix``, the Newton system's explicit ``D(e^a) P D(w) P^T
D(e^a)`` at small n, takes the same power of two.  Every flush below the
plan floor and every power-of-two scaling of the library is in one of
these kernels.

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
rescaled plan from one product.  A dense product is BLAS ``gemv``, whose
reduction order per output entry does not depend on the thread count;
``plan_cost``, the final plan's cost, is numpy's fixed-order summation
(its BLAS form, a dot over n^2 entries, would vary with the threads).
``log_plan_max`` finds the row or column maxima of the log plan, where a
plan is anchored so that no entry of the summed lines exceeds 1.

A plan whose entries are mostly negligible can be materialized as a
``SparsePlan`` instead (``materialize_plan`` with ``max_nnz``): compressed
sparse rows, built tile by tile with no n-by-n array, plus the rows of its
transpose, so each product is one pass over its nonzeros (sparse scaling
and kernel truncation, Schmitzer, SIAM J. Sci. Comput. 2019).  It holds
the entries whose log is at or above the caller's ``floor`` (at least
``EXP_FLOOR``), bit for bit, and drops the rest: ``dual.flush_floor`` sets
the floor from the targets, so that what is dropped stays below half an ulp
of every sum the plan serves.  The build compares each log tile with the
floor once and gathers, checks and exponentiates only the kept entries,
taking their columns and row counts from their flat indices.  A dense
build still flushes only below ``EXP_FLOOR``, and counts the entries at or
above the floor, so that the choice between the two reads one count.
``plan_matvec``, ``log_plan_matvec`` and ``square_matvec`` serve it in
place of the dense plan; its products are sequential sums in scipy's
compiled CSR loop, in a fixed order (``_csr_matvec``).  A product whose
terms are all normal, as the smallest stored entry times the smallest input
entry shows, is taken as it is; any other has its input scaled by a power
of two so that no term is subnormal.  scipy is imported only when a sparse
plan is first built.
"""

from __future__ import annotations

import math

import numpy as np

from . import opcount
from .errors import DegenerateInputError, DimensionError, DomainError, PlanOverflowError

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


def _check_overflow(top):
    """Reject a log plan whose largest entry ``top`` would overflow exp()."""
    if top > LOG_OVERFLOW:
        raise PlanOverflowError(
            f"log-plan entry {top:.3g} would overflow exp(); warm start is broken")


def _exp_tile(b, floor=EXP_FLOOR):
    """exp of the log-plan tile ``b`` in place, entries below ``EXP_FLOOR``
    set to 0; returns the count of log entries at or above ``floor`` (at
    least ``EXP_FLOOR``).

    A tile with no entry below ``floor`` counts whole, with no compare, and
    one with none below ``EXP_FLOOR`` skips the mask, the clamp and the
    flush, which would leave it as it is."""
    _check_overflow(b.max())
    low = b.min()
    nnz = b.size
    if low < floor and floor > EXP_FLOOR:
        nnz = np.count_nonzero(b >= floor)
    if not low < EXP_FLOOR:
        np.exp(b, out=b)
        return nnz
    flushed = b < EXP_FLOOR
    if floor == EXP_FLOOR:
        nnz -= np.count_nonzero(flushed)
    np.maximum(b, EXP_FLOOR, out=b)
    np.exp(b, out=b)
    np.copyto(b, 0.0, where=flushed)
    return nnz


def _log_tile(C, gamma, u, v, b):
    """Write the log plan (-gamma C + u 1^T) + 1 v^T into the tile ``b`` (rows
    of ``C`` and ``u`` alike), or with ``C`` None add 1 v^T to ``b``, which
    holds ``-gamma C + u 1^T`` already."""
    if C is not None:
        np.multiply(C, -gamma, out=b)
        np.add(b, u[:, None], out=b)
    np.add(b, v[None, :], out=b)


def materialize_plan(C, gamma, u, v=None, out=None, max_nnz=None, floor=EXP_FLOOR):
    """exp(u 1^T + 1 v^T - gamma C), with entries that would overflow rejected;
    returns ``(plan, v, nnz)``: nnz the count of log entries at or above the
    log ``floor`` (raised to ``EXP_FLOOR`` if below it).

    With ``v`` None the plan is anchored at the column maxima,
    ``v = -log_plan_max(C, gamma, u, 0)``, so each column's largest entry
    is exactly 1; counted as maxima 1 and plan 4.  A dense one is built
    from one read of ``C``: the maxima pass leaves the log plan
    ``-gamma C + u 1^T`` in the plan, and the plan pass adds ``v`` in place
    and exponentiates.

    ``-gamma C`` is formed tile by tile, never stored, and each log entry is
    rounded as ``(-gamma C_ij + u_i) + v_j``.  The plan is dense (written
    into ``out`` when given) unless ``max_nnz`` is given: then it is a
    ``SparsePlan`` built tile by tile, with no n-by-n array, from the log
    entries at or above ``floor``, which alone are checked for overflow and
    exponentiated; the build stops with ``(None, v, nnz)`` once the
    count passes ``max_nnz``.
    A dense plan's entries whose log is below ``EXP_FLOOR`` come out as
    exactly 0, whatever ``floor`` is; a sparse plan holds the dense plan's
    entries whose log is at or above ``floor``, bit for bit, and nothing
    else.
    """
    opcount.add(4)
    n, m = C.shape
    floor = max(floor, EXP_FLOOR)
    if max_nnz is None:
        if out is None:
            out = np.empty((n, m))
        anchored = v is None
        if anchored:  # the maxima pass leaves the log plan in out
            v = -log_plan_max(C, gamma, u, 0, out)
        nnz = 0
        for lo, hi, b in row_tiles(n, m, out):
            _log_tile(None if anchored else C[lo:hi], gamma, u[lo:hi], v, b)
            nnz += _exp_tile(b, floor)
        return out, v, nnz
    if v is None:
        v = -log_plan_max(C, gamma, u, 0)
    indptr = np.zeros(n + 1, dtype=np.int32)
    data, indices, nnz = [], [], 0
    for lo, hi, b in row_tiles(n, m):
        _log_tile(C[lo:hi], gamma, u[lo:hi], v, b)
        flat = np.flatnonzero(b >= floor)
        kept = b.ravel()[flat]
        _check_overflow(kept.max(initial=-math.inf))
        nnz += len(kept)
        if nnz > max_nnz:
            return None, v, nnz
        data.append(np.exp(kept, out=kept))
        row, col = np.divmod(flat, m)
        indices.append(col.astype(np.int32))
        indptr[lo + 1:hi + 1] = np.bincount(row, minlength=hi - lo)
    np.cumsum(indptr, out=indptr)
    return SparsePlan((n, m), indptr, np.concatenate(indices), np.concatenate(data)), v, nnz


class SparsePlan:
    """A plan held in compressed sparse row (CSR) form, with the CSR of its
    transpose built once.

    ``plan_matvec``, ``log_plan_matvec`` and ``square_matvec`` serve it in
    place of a dense plan, through ``_csr_matvec``.  ``rows`` and ``cols``
    are the CSR of the plan and of its transpose, as ``(rows, columns,
    indptr, indices, data)``; ``top`` and ``bottom`` are the largest and the
    smallest stored entry, the bounds that ``_csr_matvec`` reads.
    """

    def __init__(self, shape, indptr, indices, data):
        global _sparsetools
        from scipy.sparse import _sparsetools

        n, m = self.shape = shape
        self.top = float(data.max()) if len(data) else 0.0
        self.bottom = float(data.min()) if len(data) else 0.0
        self.rows = (n, m, indptr, indices, data)
        self.cols = (m, n, np.empty(m + 1, dtype=indptr.dtype), np.empty_like(indices),
                     np.empty_like(data))
        _sparsetools.csr_tocsc(*self.rows, *self.cols[2:])


# scipy's compiled CSR loops, bound when the first SparsePlan is built, so
# that importing the library does not load scipy.
_sparsetools = None
# Binary exponent that the largest term of a scaled product stays below:
# a row sum of fewer than 2^31 such terms stays below 2^1022.
_SCALED_EXP = 990
# A product whose rounded terms are all at least this in magnitude has no
# subnormal term: twice the smallest normal number, so that the exact term,
# not only its rounding, is normal.
_NORMAL_TERM = 2.0 ** -1021


def _csr_matvec(csr, top, bottom, x, shift=0):
    """A @ x, times 2^-shift, for ``csr`` = (rows, columns, indptr, indices,
    data) of a matrix whose stored entries lie in [``bottom``, ``top``], in
    scipy's compiled CSR loop.

    The loop is called directly: the checks of a ``scipy.sparse`` array cost
    about 4 us a product, a third of one at n = 1024 and 1% density.  It has
    no fused multiply-add, so a product of an entry near e^-700 and an input
    entry near 1e-9 is rounded to a subnormal, and every such term costs
    several times a normal one.  When ``bottom * min |x|`` is at least
    2^-1021, no term is subnormal, and an addition with a subnormal result
    is exact, so the product is taken as it is.  Otherwise (also for an
    input entry that is 0 or not finite) the input is scaled up by an exact
    power of two 2^k, chosen so that no term can exceed 2^_SCALED_EXP, and
    the result scaled back with the caller's ``shift`` in one step: wherever
    the unscaled product has no subnormal term or result, the two are equal
    bit for bit.  k >= 0 (nothing is scaled down), so the scaling cannot add
    a subnormal.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != (csr[1],):  # the compiled loop reads x without bounds checks
        raise DimensionError(f"sparse plan product needs a vector of {csr[1]}, got {x.shape}")
    x_abs = np.abs(x)
    x_max = float(x_abs.max()) if x.size else 0.0
    k = 0
    if x_max > 0.0 and top > 0.0 and not (
            x_max < math.inf and bottom * float(x_abs.min()) >= _NORMAL_TERM):
        k = max(0, _SCALED_EXP - math.frexp(top)[1] - math.frexp(x_max)[1])
    y = np.zeros(csr[0])
    _sparsetools.csr_matvec(*csr, np.ldexp(x, k) if k else x, y)
    return np.ldexp(y, -(k + shift), out=y) if k + shift else y


def _flush(b):
    """Set the entries of ``b`` below ``PLAN_FLOOR`` to 0 in place: the one
    linear-domain flush, after a pass that can take entries near the floor
    below it or to a subnormal.  Negative entries and -0.0 become 0 too, a
    NaN stays."""
    np.copyto(b, 0.0, where=b < PLAN_FLOOR)


def scale_plan(P, x, y):
    """P <- D(x) P D(y) in place, with entries below ``PLAN_FLOOR`` set to 0.

    One pass over row tiles; a scaling factor below 1 can take an entry near
    the floor below it (or to a subnormal), and the flush in the same pass
    keeps the plan free of both.
    """
    opcount.add(1)
    for lo, hi, b in row_tiles(*P.shape, P):
        np.multiply(b, x[lo:hi, None], out=b)
        np.multiply(b, y[None, :], out=b)
        _flush(b)
    return P


def round_plan(P, r, c, out=None):
    """Round a near-feasible nonnegative plan onto the exact polytope.

    Scales rows then columns down toward their targets and repairs the
    remaining (nonnegative) deficit with a rank-one correction; the output
    has row sums r and column sums c exactly up to roundoff.  Entries below
    ``PLAN_FLOOR`` are set to 0, so the plan holds no subnormals (the
    scalings can push entries near the floor below it).  By default the
    result is a copy of ``P``; with ``out=P`` (a float64 array) ``P`` is
    rounded in place, and no other ``out`` is accepted.  The repair and the
    flush run over row tiles, so no other n-by-n array is made.
    """
    P = np.asarray(P, dtype=np.float64)
    if out is not None and out is not P:
        raise DomainError("round_plan rounds into a copy or in place (out=P)")
    if P.min() < 0.0:
        raise DomainError("round_plan needs a nonnegative plan")
    if out is None:
        P = P.copy()
    rP = P.sum(axis=1)
    # The total mass, NaN when an entry is.
    if not rP.sum() > 0.0:
        raise DegenerateInputError("round_plan needs positive total mass")
    opcount.add(2)
    with np.errstate(divide="ignore", invalid="ignore"):
        row_scale = np.where(rP > 0.0, np.minimum(1.0, r / rP), 1.0)
    P *= row_scale[:, None]
    opcount.add(2)
    cP = P.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        col_scale = np.where(cP > 0.0, np.minimum(1.0, c / cP), 1.0)
    P *= col_scale[None, :]
    opcount.add(1)
    # The deficits are nonnegative in exact arithmetic; clamp the roundoff
    # below zero so the rank-one repair cannot make an entry negative.
    err_r = np.maximum(r - P.sum(axis=1), 0.0)
    err_c = np.maximum(c - P.sum(axis=0), 0.0)
    deficit = err_r.sum()
    if deficit > 0.0:
        opcount.add(1)
    for lo, hi, b in row_tiles(*P.shape):
        tile = P[lo:hi]
        if deficit > 0.0:
            np.multiply(err_r[lo:hi, None], err_c[None, :], out=b)
            b /= deficit
            tile += b
        _flush(tile)
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
    one, else the plan's largest entry (one more read).  The entries are
    scaled whatever they are (by 1 when k = 0); the one rule that skips a
    scaling, where no term can be subnormal, is ``_csr_matvec``'s.
    """
    opcount.add(2)
    if isinstance(P, SparsePlan):
        k = _square_exp(P.top, w)
        scale = math.ldexp(1.0, k)
        *shape, data = P.rows
        sq = np.multiply(data, scale)
        np.square(sq, out=sq)
        return _csr_matvec((*shape, sq), (P.top * scale) ** 2, (P.bottom * scale) ** 2, w,
                           2 * k)
    k = _square_exp(float(P.max()) if top is None else top, w)
    scale = math.ldexp(1.0, k)
    out = np.empty(P.shape[0])
    for lo, hi, b in row_tiles(*P.shape):
        np.square(np.multiply(P[lo:hi], scale, out=b), out=b)
        out[lo:hi] = b @ w
    return np.ldexp(out, -2 * k, out=out)


def round_trip_matrix(P, e_a, w, top):
    """K = D(e^a) P D(w) P^T D(e^a) for a dense plan ``P``, ``e_a`` the row
    scaling e^a (an n-vector or a scalar) and ``w`` the column weights; not
    counted, as its products count the passes of the ones they replace
    (``newton.DiscountedSystem``).

    K is one gemm of two row-major arrays, the plan and
    T = (P D(2^2k w))^T, the only n-by-n arrays made besides K.  The other
    forms vary with the thread count (OpenBLAS, at n = 100): numpy takes
    ``S @ S.T`` as syrk, and a product with a transposed view as a
    transposed gemm.  2^k is the power of two that ``square_matvec`` scales
    entries by (``_square_exp``), from ``top``, a bound on the plan's
    entries (the plan's largest entry when None), raised to at least 1, so
    every term of the product is finite, T too, and is normal where the
    scaled square would be.  The product is then scaled by e^a 2^-k on each
    side.  Entries of T and K below ``PLAN_FLOOR`` are set to 0, so no BLAS
    operand is subnormal.
    """
    top = float(P.max()) if top is None else top
    k = _square_exp(max(top, 1.0), w)
    T = np.ascontiguousarray(P.T)
    T *= np.ldexp(w, 2 * k)[:, None]
    _flush(T)
    K = P @ T
    del T  # a broadcast product takes an n-by-n buffer in numpy
    c = np.full(P.shape[0], np.ldexp(e_a, -k))  # e^a 2^-k, also for a scalar a
    K *= c[:, None]
    K *= c
    _flush(K)
    return K


def plan_matvec(P, x, transpose=False):
    """P @ x, or P.T @ x with ``transpose``; one pass (over the nonzeros of a
    ``SparsePlan``)."""
    opcount.add(1)
    if isinstance(P, SparsePlan):
        return _csr_matvec(P.cols if transpose else P.rows, P.top, P.bottom, x)
    return P.T @ x if transpose else P @ x


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


def log_plan_matvec(P, x, transpose=False):
    """log(P e^x) (log(P.T e^x) with ``transpose``) for a linear-domain plan.

    Computed as ``max x + log(P e^(x - max x))``, so no weight exceeds 1 and
    nothing overflows; one ``plan_matvec``.  A sum over entries that are all 0
    comes out as -inf.
    """
    m = x.max()
    with np.errstate(divide="ignore"):
        return m + np.log(plan_matvec(P, np.exp(x - m), transpose))
