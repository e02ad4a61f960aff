"""The discounted Newton/Bellman linear system and its annealed CG solver.

With plan P, row sums rP and column sums cP, the round-trip transition matrix
``P_rc = D(rP)^-1 P D(cP)^-1 P^T`` is row-stochastic with stationary
distribution rP, and the coefficient matrix of the reduced Newton system is

    F(rho) = D(rP) (I - rho * P_rc),        rho in [0, 1),

which is symmetric positive-definite.  Solving ``F(rho) d = -grad_u`` for a
sequence of discounts rho approaching 1 yields a direction whose
*undiscounted* residual satisfies the truncated-Newton forcing test.  All
products are evaluated as two ``_kernels.plan_matvec`` passes; P_rc is never
formed.  The system holds a materialized plan ``P0`` and offsets ``(a, b)``
and applies the plan ``P = D(e^a) P0 D(e^b)`` by diagonal scaling, so a
projection materializes one plan per temperature (the state's anchored plan,
see ``dual``), not one per Newton step.  ``P0`` is dense or, at late
temperatures where most of its entries are exact zeros, a
``_kernels.SparsePlan``; the kernels serve both, so the system is the same
code either way.

When annealing reaches ``RHO_CAP`` without meeting the forcing test,
``newton_solve`` accepts the direction under the relaxed forcing term
``ETA_MAX`` (any forcing term below 1 keeps inexact Newton convergent) and
flags it, or raises ``StagnationError`` when even that is missed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import plan_matvec, square_matvec
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
    of a dense ``P`` for ``diag_prc``'s squared product; left None, it is
    the plan's largest entry.  ``log_low``, when given, bounds the log of
    every nonzero entry of ``P`` from below, so that the squared product
    can skip its scaling (``_kernels.square_matvec``).
    """

    def __init__(self, P, rP, cP, a=0.0, b=0.0, top=None, log_low=None):
        self.P = P
        self._top = top
        self._log_low = log_low
        self.rP = np.asarray(rP, dtype=np.float64)
        self.cP = np.asarray(cP, dtype=np.float64)
        if np.any(self.rP <= 0.0) or np.any(self.cP <= 0.0):
            raise ConditioningError("plan row/column sums must be strictly positive")
        self.n = P.shape[0]
        e_b = np.exp(b)
        self._e_a = np.exp(a)
        # P^T d / cP = _pc_scale * P^T (e^a d); the round trip weighs by e^2b / cP.
        self._pc_scale = e_b / self.cP
        self._w = e_b * self._pc_scale
        self._mu = None

    @classmethod
    def from_state(cls, state):
        """The system at the state's potentials, served from its anchored plan
        by scaling (``DualState.anchored_plan``, which anchors at the column
        maxima when no anchor covers the state); sums come from the
        log-domain caches.

        The plan is the state's buffer: the system is valid until the state
        anchors again, which happens when a new temperature starts or a sum
        leaves the offsets the anchor serves (``DualState._serves``), never
        while the projection loop uses the system (a line search trial that
        re-anchors comes after it).

        Precondition: the state's column offsets at its column maxima are
        served, as after a column rebalance, which leaves ``max b <= 0``
        (``DualState.anchored_plan``).  The projector builds the system
        only after one.
        """
        P0, a, b = state.anchored_plan()
        # Every anchor is taken at maxima, so its entries are at most 1
        # (up to rounding for a row anchor: all below 2, as the bound needs).
        return cls(P0, state.row_sums(), state.col_sums(), a, b, top=1.0,
                   log_low=state.anchor_log_low)

    def transposed(self, d):
        """P0^T (e^a d), the unscaled half of ``round_trip`` and ``apply_pc``; one pass."""
        return plan_matvec(self.P, self._e_a * d, transpose=True)

    def round_trip(self, d, pt=None):
        """Q = P (P^T d / cP), the off-diagonal part of F(1) d; two passes,
        or one when the caller passes ``pt = transposed(d)``."""
        if pt is None:
            pt = self.transposed(d)
        return self._e_a * plan_matvec(self.P, self._w * pt)

    def apply_pc(self, d, pt=None):
        """P_c @ d = D(cP)^-1 P^T d, so d_v = -apply_pc(d_u); one pass, or
        none when the caller passes ``pt = transposed(d)``."""
        if pt is None:
            pt = self.transposed(d)
        return self._pc_scale * pt

    def apply_F(self, rho, d):
        """F(rho) @ d = rP * d - rho * round_trip(d)."""
        out = self.rP * d
        if rho != 0.0:
            out -= rho * self.round_trip(d)
        return out

    def diag_prc(self):
        """mu = diag(P_rc); mu_i = sum_j P_ij^2 / (rP_i cP_j), each in (0, 1]."""
        if self._mu is None:
            # square_matvec runs first, so no n-vector temporary sits beside its tile.
            self._mu = (square_matvec(self.P, self._w, self._top, self._log_low)
                        * self._e_a ** 2 / self.rP)
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
    if tol_l1 <= 0.0:
        raise ConditioningError("tol_l1 must be positive")
    if max_iters is None:
        max_iters = 10 * sys.n
    M = sys.rP * (1.0 - rho * sys.diag_prc())
    if np.any(M <= 0.0):
        raise ConditioningError("preconditioner has a nonpositive diagonal entry")

    if d0 is None:
        x = np.zeros(sys.n)
        r = b.copy()
    else:
        x = np.array(d0, dtype=np.float64, copy=True)
        r = b - (sys.apply_F(rho, x) if F_d0 is None else F_d0)
    if np.abs(r).sum() <= tol_l1:
        return x, 0
    z = r / M
    p = z.copy()
    rz = float(r @ z)
    for k in range(1, max_iters + 1):
        q = sys.apply_F(rho, p)
        pq = float(p @ q)
        if pq <= 0.0:
            raise ConditioningError(f"CG breakdown: curvature {pq:.3g} along search direction")
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        if k % TRUE_RESIDUAL_REFRESH == 0:
            r = b - sys.apply_F(rho, x)
        if np.abs(r).sum() <= tol_l1:
            return x, k
        z = r / M
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NonconvergenceError(
        f"CG did not reach tol {tol_l1:.3g} in {max_iters} iterations",
        best=x,
        diagnostics={"rho": rho, "residual_l1": float(np.abs(r).sum())},
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
    transposed product of the last forcing test.
    """
    if eta <= 0.0:
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
        # start, and its transposed half gives the returned d_v.
        pt = sys.transposed(d)
        Q = sys.round_trip(d, pt)
        res_norm = float(np.abs((sys.rP * d - Q) + grad_u).sum())
        if res_norm <= eta * grad_norm:
            return NewtonResult(d, rho_used, total_cg, res_norm, d_v=-sys.apply_pc(d, pt))
        if 1.0 - rho < RHO_CAP:
            if res_norm <= ETA_MAX * grad_norm:
                return NewtonResult(d, rho_used, total_cg, res_norm, relaxed=True,
                                    d_v=-sys.apply_pc(d, pt))
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
