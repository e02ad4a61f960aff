"""The discounted Newton/Bellman linear system and its annealed CG solver.

With plan P, row sums rP and column sums cP, the round-trip transition matrix
``P_rc = D(rP)^-1 P D(cP)^-1 P^T`` is row-stochastic with stationary
distribution rP, and the coefficient matrix of the reduced Newton system is

    F(rho) = D(rP) (I - rho * P_rc),        rho in [0, 1),

which is symmetric positive-definite.  Solving ``F(rho) d = -grad_u`` for a
sequence of discounts rho approaching 1 yields a direction whose
*undiscounted* residual satisfies the truncated-Newton forcing test.  The
system holds a materialized plan ``P0`` and offsets ``(a, b)`` and applies
the plan ``P = D(e^a) P0 D(e^b)`` by diagonal scaling, so a projection
materializes one plan per temperature (the state's anchored plan, see
``dual``), not one per Newton step.  ``P0`` is dense or, at late
temperatures where most of its entries are exact zeros, a
``_kernels.SparsePlan``; the kernels serve both.

A product with ``D(rP) P_rc`` is two ``_kernels.plan_matvec`` passes, and
``P_rc`` is never formed, except in a dense system of at most
``EXPLICIT_MAX_N`` rows.  Such a system forms the round-trip matrix
``K = S S^T = D(rP) P_rc``, ``S = D(e^a) P0 D(e^b / sqrt(cP))``, once, and
applies ``F(rho) = D(rP) - rho K``, formed once per rho, as one gemv: at
small n a CG iteration is bound by per-call dispatch, and one product costs
less than two.  Its products are counted as the passes of the products they
replace (see ``opcount``).

When annealing reaches ``RHO_CAP`` without meeting the forcing test,
``newton_solve`` accepts the direction under the relaxed forcing term
``ETA_MAX`` (any forcing term below 1 keeps inexact Newton convergent) and
flags it, or raises ``StagnationError`` when even that is missed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import opcount
from ._kernels import PLAN_FLOOR, _square_exp, plan_matvec, square_matvec
from .errors import ConditioningError, NonconvergenceError, StagnationError

# Annealing stops once 1 - rho falls below this: with the relaxed exit, or
# with an error.
RHO_CAP = 1e-12
# Upper clamp on the forcing parameter, and the relaxed forcing test of a
# direction at RHO_CAP; any eta <= ETA_MAX < 1 keeps inexact Newton
# convergent (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 1982).
ETA_MAX = 0.99
# Per-step discount decay: rho <- 1 - (1 - rho) / RHO_DECAY.
RHO_DECAY = 4.0
# Fraction of eta granted to each discounted CG solve.
CG_TOL_FRACTION = 0.25
# Recompute the true residual after this many CG recurrence updates.
TRUE_RESIDUAL_REFRESH = 50
# Largest n at which a dense system forms its round-trip matrix K.  A CG
# iteration then saves a call's dispatch and n^2 of its 2 n^2 multiply-adds,
# and forming K costs n^3, so a system breaks even after fewer iterations at
# small n.  Explicit over two-product time, min of 5 interleaved runs (2 vCPUs,
# 2 OpenBLAS threads): eight mixed instances to 2^18 (random costs, CG heavy)
# take 0.95 at n = 64, 0.86 at 100 and 0.90-0.92 at 128, but 0.97 at 144 and
# 0.94-1.23 over two sweeps at 196 and 256; six grid solves to 2^14 take
# 0.94-1.04 at every n from 64 to 256.
EXPLICIT_MAX_N = 128


@dataclass
class NewtonResult:
    """Outcome of one annealed truncated-Newton direction solve."""

    d_u: np.ndarray
    rho_final: float
    cg_iters: int
    undiscounted_residual_l1: float
    # The direction met only the relaxed forcing test at RHO_CAP.
    relaxed: bool = False
    # The column step -P_c d_u that goes with d_u, from the transposed
    # product the forcing test already made.
    d_v: np.ndarray | None = None


class DiscountedSystem:
    """Immutable plan snapshot realizing D(rP) P_rc, P_c and F(rho) as operators.

    The plan is ``D(e^a) P D(e^b)``, ``P`` a dense array or a
    ``_kernels.SparsePlan``; the offsets ``a`` and ``b`` default to 0, a
    system of the plan ``P`` itself.  Each product costs the passes of
    the unscaled one plus length-n multiplies.  ``top`` bounds the entries
    of a dense ``P`` for ``diag_prc``'s squared product, which scales by the
    power of two that bound gives (``_kernels.square_matvec``); left None,
    it is the plan's largest entry.  Row and column sums must be finite and
    positive (a NaN sum would leave CG to run out its iterations), else
    ``ConditioningError``.

    A dense system of at most ``EXPLICIT_MAX_N`` rows forms the round-trip
    matrix ``K`` when it is built (``_round_trip_matrix``): ``round_trip``
    is then ``K d``, ``apply_F`` one product with ``F(rho)``, and
    ``diag_prc`` reads ``diag(K) / rP``.
    """

    def __init__(self, P, rP, cP, a=0.0, b=0.0, top=None):
        self.P = P
        self._top = top
        self.rP = np.asarray(rP, dtype=np.float64)
        self.cP = np.asarray(cP, dtype=np.float64)
        # A NaN fails every test, as the min and max of an array holding one are NaN.
        if not (self.rP.min() > 0.0 and self.cP.min() > 0.0
                and self.rP.max() < math.inf and self.cP.max() < math.inf):
            raise ConditioningError("plan row/column sums must be finite and strictly positive")
        self.n = P.shape[0]
        e_b = np.exp(b)
        self._e_a = np.exp(a)
        # P^T d / cP = _pc_scale * P^T (e^a d); the round trip weighs by e^2b / cP.
        self._pc_scale = e_b / self.cP
        self._w = e_b * self._pc_scale
        self._mu = None
        self._K = None
        self._F = None  # (rho, F(rho)) of the last rho applied
        if isinstance(P, np.ndarray) and self.n <= EXPLICIT_MAX_N:
            self._K = self._round_trip_matrix()

    def _round_trip_matrix(self):
        """K = D(e^a) P D(w) P^T D(e^a), w = e^2b / cP; not counted, as its
        products count the passes of the ones they replace.

        K is one gemm of two row-major arrays, the plan and
        T = (P D(2^2k w))^T, the only n-by-n arrays made besides K.  The
        other forms vary with the thread count (OpenBLAS, at n = 100): numpy
        takes ``S @ S.T`` as syrk, and a product with a transposed view as a
        transposed gemm.  2^k is the power of two that
        ``_kernels.square_matvec`` scales entries by (``_square_exp``), from
        a bound of at least 1 on the plan's entries, so every term of the
        product is finite, T too, and is normal where the scaled square
        would be.  The product is then scaled by e^a 2^-k on each side.
        Entries of T and K below ``PLAN_FLOOR`` are set to 0, so no BLAS
        operand is subnormal.
        """
        top = float(self.P.max()) if self._top is None else self._top
        k = _square_exp(max(top, 1.0), self._w)
        T = np.ascontiguousarray(self.P.T)
        T *= np.ldexp(self._w, 2 * k)[:, None]
        np.putmask(T, T < PLAN_FLOOR, 0.0)
        K = self.P @ T
        del T  # a broadcast product takes an n-by-n buffer in numpy
        c = np.full(self.n, np.ldexp(self._e_a, -k))  # e^a 2^-k, also for a scalar a
        K *= c[:, None]
        K *= c
        np.putmask(K, K < PLAN_FLOOR, 0.0)
        return K

    @classmethod
    def from_state(cls, state):
        """The system at the state's potentials, served from its anchored plan
        by scaling (``DualState.anchored_plan``, which anchors at the column
        maxima when no anchor covers the state); sums come from the
        log-domain caches.

        The plan is the state's buffer: the system is valid until the state
        anchors again, which happens when a new temperature starts or a sum
        leaves the offsets the anchor serves (``DualState.serves``), never
        while the projection loop uses the system (a line search trial that
        re-anchors comes after it).

        The offsets must be served, as after a column rebalance, which leaves
        ``max b <= 0``: the projector builds the system only after one.  A
        new anchor at the column maxima returns its column offsets unchecked
        (``DualState.anchored_plan``), and the scalings ``e^b`` and ``e^2b``
        of offsets it does not serve lose the products' accuracy, so they
        raise ``ConditioningError`` naming the largest column offset and the
        anchor's budget.  A reused anchor was checked as it served the
        offsets, and has ``a != 0`` (a new one has ``a = 0``, as it is taken
        at the state's u), so only ``a = 0`` takes ``serves``' four
        reductions.
        """
        P0, a, b = state.anchored_plan()
        if not a.any() and not state.serves(a, b):
            raise ConditioningError(
                "the state's offsets leave what its anchored plan serves; "
                "rebalance the columns first",
                diagnostics={"max_col_offset": float(b.max()), "budget": state.budget})
        # Every anchor is taken at maxima, so its entries are at most 1
        # (up to rounding for a row anchor: all below 2, as the bound needs).
        return cls(P0, state.row_sums(), state.col_sums(), a, b, top=1.0)

    def transposed(self, d):
        """P0^T (e^a d), the unscaled half of ``round_trip`` and ``apply_pc``; one pass."""
        return plan_matvec(self.P, self._e_a * d, transpose=True)

    def round_trip(self, d, pt=None):
        """Q = P (P^T d / cP), the off-diagonal part of F(1) d; two passes,
        or one when the caller passes ``pt = transposed(d)``.  Without ``pt``
        an explicit system takes ``K d``, counted as the two passes."""
        if pt is None:
            if self._K is not None:
                opcount.add(2)
                return self._K.dot(d)
            pt = self.transposed(d)
        return self._e_a * plan_matvec(self.P, self._w * pt)

    def apply_pc(self, d, pt=None):
        """P_c @ d = D(cP)^-1 P^T d, so d_v = -apply_pc(d_u); one pass, or
        none when the caller passes ``pt = transposed(d)``."""
        if pt is None:
            pt = self.transposed(d)
        return self._pc_scale * pt

    def _column_step(self, d, pt):
        """d_v = -P_c d after the round trip of d: scaled from its transposed
        half ``pt``, or, after an explicit ``K d`` (``pt`` None), from a
        transposed product that ``K d``'s two passes already count."""
        if pt is None:
            pt = self.P.T @ (self._e_a * d)
        return -self._pc_scale * pt

    def apply_F(self, rho, d):
        """F(rho) @ d = rP * d - rho * round_trip(d); for an explicit system
        one product with F(rho), formed when rho changes, counted as the
        round trip's two passes."""
        if rho == 0.0:
            return self.rP * d
        if self._K is None:
            out = self.rP * d
            out -= rho * self.round_trip(d)
            return out
        if self._F is None or self._F[0] != rho:
            F = np.multiply(self._K, -rho, out=None if self._F is None else self._F[1])
            F.reshape(-1)[::self.n + 1] += self.rP
            self._F = (rho, F)
        opcount.add(2)
        return self._F[1].dot(d)

    def diag_prc(self):
        """mu = diag(P_rc); mu_i = sum_j P_ij^2 / (rP_i cP_j), each in (0, 1].
        For an explicit system diag(K) / rP, counted as the squared
        product's two passes."""
        if self._mu is None:
            if self._K is not None:
                opcount.add(2)
                self._mu = np.diagonal(self._K) / self.rP
            else:
                # square_matvec runs first, so no n-vector temporary sits beside its tile.
                self._mu = (square_matvec(self.P, self._w, self._top) * self._e_a ** 2
                            / self.rP)
        return self._mu


def pcg_solve(sys, rho, b, tol_l1, d0=None, max_iters=None, F_d0=None):
    """Diagonally preconditioned CG for ``F(rho) d = b``.

    Terminates when the L1 norm of the (unpreconditioned) recurrence residual
    drops to ``tol_l1``; the true residual is recomputed every
    ``TRUE_RESIDUAL_REFRESH`` iterations to bound drift.  A caller that
    already holds ``F(rho) @ d0`` passes it as ``F_d0`` to save the product.
    Returns ``(d, iterations)``.
    """
    if not 0.0 <= rho < 1.0:
        raise ConditioningError(f"pcg_solve needs rho in [0, 1), got {rho}")
    if not tol_l1 > 0.0:
        raise ConditioningError(f"tol_l1 must be positive, got {tol_l1}")
    if max_iters is None:
        max_iters = 10 * sys.n
    M = sys.rP * (1.0 - rho * sys.diag_prc())
    if not np.all(M > 0.0):
        raise ConditioningError("preconditioner has a nonpositive diagonal entry")

    # x and r share one buffer, and p and -q another, so one multiply-add
    # takes both CG updates: r + alpha (-q) is r - alpha q, bit for bit.
    # ndarray.dot and np.add.reduce are the dot and the sum of `@` and
    # ndarray.sum, bit for bit, with less dispatch per call.
    xr = np.empty((2, sys.n))
    x, r = xr
    if d0 is None:
        x.fill(0.0)
        r[:] = b
    else:
        x[:] = d0
        np.subtract(b, sys.apply_F(rho, x) if F_d0 is None else F_d0, out=r)
    if np.add.reduce(np.abs(r)) <= tol_l1:
        return x, 0
    pq = np.empty((2, sys.n))
    p, neg_q = pq
    z = np.divide(r, M)
    p[:] = z
    rz = float(r.dot(z))
    for k in range(1, max_iters + 1):
        q = sys.apply_F(rho, p)
        curvature = float(p.dot(q))
        if not curvature > 0.0:
            raise ConditioningError(
                f"CG breakdown: curvature {curvature:.3g} along search direction")
        np.negative(q, out=neg_q)
        xr += (rz / curvature) * pq
        if k % TRUE_RESIDUAL_REFRESH == 0:
            np.subtract(b, sys.apply_F(rho, x), out=r)
        if np.add.reduce(np.abs(r)) <= tol_l1:
            return x, k
        np.divide(r, M, out=z)
        rz_new = float(r.dot(z))
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise NonconvergenceError(
        f"CG did not reach tol {tol_l1:.3g} in {max_iters} iterations",
        best=x,
        diagnostics={"rho": rho, "residual_l1": float(np.add.reduce(np.abs(r)))},
    )


def newton_solve(grad_u, sys, eta, rho0=0.0):
    """Annealed discounted solve for the truncated Newton direction.

    Starts from the pure scaling direction ``-grad_u / rP`` and, while the
    undiscounted residual ``F(1) d + grad_u`` exceeds ``eta * ||grad_u||_1``,
    solves the rho-discounted system to a quarter of that tolerance and
    anneals ``1 - rho`` down by ``RHO_DECAY``.  The previous direction
    warm-starts each solve.  Once ``1 - rho`` is below ``RHO_CAP``, the
    direction is returned with ``relaxed`` set if its residual is at most
    ``ETA_MAX * ||grad_u||_1``, and ``StagnationError`` is raised otherwise.
    The result carries the column step ``d_v = -P_c d_u``, scaled from the
    transposed product of the last forcing test (an explicit system takes
    that product only on return).
    """
    if not eta > 0.0:
        raise ConditioningError(f"eta must be positive, got {eta}")
    if not 0.0 <= rho0 < 1.0:
        raise ConditioningError(f"rho0 must be in [0, 1), got {rho0}")
    grad_norm = float(np.abs(grad_u).sum())
    if grad_norm == 0.0:
        return NewtonResult(np.zeros(sys.n), rho0, 0, 0.0, d_v=np.zeros(sys.n))
    d = -grad_u / sys.rP
    rho = rho0
    rho_used = rho0
    total_cg = 0
    cg_tol = CG_TOL_FRACTION * eta * grad_norm
    while True:
        # F(rho) d = rP d - rho Q: one Q serves the residual and the warm
        # start, and its transposed half gives the returned d_v (taken on
        # return only, after an explicit system's K d).
        pt = None if sys._K is not None else sys.transposed(d)
        Q = sys.round_trip(d, pt)
        res_norm = float(np.abs((sys.rP * d - Q) + grad_u).sum())
        if res_norm <= eta * grad_norm:
            return NewtonResult(d, rho_used, total_cg, res_norm, d_v=sys._column_step(d, pt))
        if 1.0 - rho < RHO_CAP:
            if res_norm <= ETA_MAX * grad_norm:
                return NewtonResult(d, rho_used, total_cg, res_norm, relaxed=True,
                                    d_v=sys._column_step(d, pt))
            raise StagnationError(
                f"discount reached {rho} without meeting the forcing test "
                f"(residual {res_norm:.3g} > {eta * grad_norm:.3g})",
                diagnostics={"rho": rho, "residual_l1": res_norm,
                             "target_l1": eta * grad_norm})
        d, iters = pcg_solve(sys, rho, -grad_u, cg_tol, d0=d,
                             F_d0=sys.rP * d - rho * Q)
        total_cg += iters
        rho_used = rho
        rho = 1.0 - (1.0 - rho) / RHO_DECAY


def next_rho0(rho_old):
    """Warm-start discount for the next solve: one annealing step back."""
    if not 0.0 <= rho_old < 1.0:
        raise ConditioningError(f"rho_old must be in [0, 1), got {rho_old}")
    return max(0.0, 1.0 - (1.0 - rho_old) * RHO_DECAY)
