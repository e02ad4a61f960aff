"""The discounted Newton/Bellman linear system and its annealed CG solver.

With plan P, row sums rP and column sums cP, the round-trip transition matrix
``P_rc = D(rP)^-1 P D(cP)^-1 P^T`` is row-stochastic with stationary
distribution rP, and the coefficient matrix of the reduced Newton system is

    F(rho) = D(rP) (I - rho * P_rc),        rho in [0, 1),

which is symmetric positive-definite.  Solving ``F(rho) d = -grad_u`` for a
sequence of discounts rho approaching 1 yields a direction whose
*undiscounted* residual satisfies the truncated-Newton forcing test.  All
products are evaluated as two matrix-vector passes; P_rc is never formed.
``OTN_DETERMINISTIC=1``, read when a system is built, makes its products
fixed-order summations, bit-identical regardless of BLAS threading.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import opcount
from ._kernels import square_matvec
from .errors import (
    ConditioningError,
    NonconvergenceError,
    RefusalError,
    StagnationError,
)

# Annealing stops (with an error) once 1 - rho falls below this.
RHO_CAP = 1e-12
# Per-step discount decay: rho <- 1 - (1 - rho) / RHO_DECAY.
RHO_DECAY = 4.0
# Fraction of eta granted to each discounted CG solve.
CG_TOL_FRACTION = 0.25
# Recompute the true residual after this many CG recurrence updates.
TRUE_RESIDUAL_REFRESH = 50

LAMBDA2_MAX_N = 2048


@dataclass
class NewtonResult:
    """Outcome of one annealed truncated-Newton direction solve."""

    d_u: np.ndarray
    rho_final: float
    cg_iters: int
    undiscounted_residual_l1: float


class DiscountedSystem:
    """Immutable plan snapshot realizing P_rc, P_c and F(rho) as operators."""

    def __init__(self, P, rP, cP):
        self.P = P
        self.rP = np.asarray(rP, dtype=np.float64)
        self.cP = np.asarray(cP, dtype=np.float64)
        if np.any(self.rP <= 0.0) or np.any(self.cP <= 0.0):
            raise ConditioningError("plan row/column sums must be strictly positive")
        self.n = P.shape[0]
        self._mu = None
        self._fixed_order = os.environ.get("OTN_DETERMINISTIC", "") == "1"

    @classmethod
    def from_state(cls, state):
        """Snapshot the current plan; sums come from the log-domain caches.

        The plan shares the state's scratch buffer: the system is valid until
        the same state materializes again, which in the projection loop means
        one system per Newton step, never two alive at once.
        """
        return cls(state.materialize_plan(reuse_buffer=True),
                   state.row_sums(), state.col_sums())

    def _matvec(self, x):
        """P @ x; a fixed-order summation in deterministic mode."""
        return (self.P * x[None, :]).sum(axis=1) if self._fixed_order else self.P @ x

    def _rmatvec(self, x):
        """P.T @ x; a fixed-order summation in deterministic mode."""
        return (self.P * x[:, None]).sum(axis=0) if self._fixed_order else self.P.T @ x

    def apply_prc(self, d):
        """P_rc @ d via two matrix-vector products."""
        opcount.add(2)
        return self._matvec(self._rmatvec(d) / self.cP) / self.rP

    def apply_pc(self, d):
        """P_c @ d = D(cP)^-1 P^T d; gives d_v = -apply_pc(d_u) for free."""
        opcount.add(1)
        return self._rmatvec(d) / self.cP

    def apply_F(self, rho, d):
        """F(rho) @ d = rP * d - rho * P (P^T d / cP)."""
        out = self.rP * d
        if rho != 0.0:
            opcount.add(2)
            out -= rho * self._matvec(self._rmatvec(d) / self.cP)
        return out

    def diag_prc(self):
        """mu = diag(P_rc); mu_i = sum_j P_ij^2 / (rP_i cP_j), each in (0, 1]."""
        if self._mu is None:
            self._mu = square_matvec(self.P, 1.0 / self.cP) / self.rP
        return self._mu

    # Dense realizations for small-n validation and diagnostics.

    def dense_prc(self):
        return (self.P / self.rP[:, None]) @ (self.P.T / self.cP[:, None])

    def dense_F(self, rho):
        return np.diag(self.rP) @ (np.eye(self.n) - rho * self.dense_prc())


def pcg_solve(sys, rho, b, tol_l1, d0=None, max_iters=None):
    """Diagonally preconditioned CG for ``F(rho) d = b``.

    Terminates when the L1 norm of the (unpreconditioned) recurrence residual
    drops to ``tol_l1``; the true residual is recomputed every
    ``TRUE_RESIDUAL_REFRESH`` iterations to bound drift.  Returns
    ``(d, iterations)``.
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
        r = b - sys.apply_F(rho, x)
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


def newton_solve(grad_u, sys, eta, rho0=0.0, zero_init=False):
    """Annealed discounted solve for the truncated Newton direction.

    Starts from the pure scaling direction ``-grad_u / rP`` and, while the
    undiscounted residual ``F(1) d + grad_u`` exceeds ``eta * ||grad_u||_1``,
    solves the rho-discounted system to a quarter of that tolerance and
    anneals ``1 - rho`` down by ``RHO_DECAY``.  With ``zero_init`` each CG
    starts from zero (the theoretical setting); otherwise the previous
    direction warm-starts the next solve.
    """
    if eta <= 0.0:
        raise ConditioningError(f"eta must be positive, got {eta}")
    if not 0.0 <= rho0 < 1.0:
        raise ConditioningError(f"rho0 must be in [0, 1), got {rho0}")
    grad_norm = float(np.abs(grad_u).sum())
    if grad_norm == 0.0:
        return NewtonResult(np.zeros(sys.n), rho0, 0, 0.0)
    d = -grad_u / sys.rP
    rho = rho0
    rho_used = rho0
    total_cg = 0
    cg_tol = CG_TOL_FRACTION * eta * grad_norm
    while True:
        residual = sys.apply_F(1.0, d) + grad_u
        res_norm = float(np.abs(residual).sum())
        if res_norm <= eta * grad_norm:
            return NewtonResult(d, rho_used, total_cg, res_norm)
        if 1.0 - rho < RHO_CAP:
            raise StagnationError(
                f"discount reached {rho} without meeting the forcing test "
                f"(residual {res_norm:.3g} > {eta * grad_norm:.3g})")
        d0 = None if zero_init else d
        d, iters = pcg_solve(sys, rho, -grad_u, cg_tol, d0=d0)
        total_cg += iters
        rho_used = rho
        rho = 1.0 - (1.0 - rho) / RHO_DECAY


def next_rho0(rho_old):
    """Warm-start discount for the next solve: one annealing step back."""
    if not 0.0 <= rho_old < 1.0:
        raise ConditioningError(f"rho_old must be in [0, 1), got {rho_old}")
    return max(0.0, 1.0 - (1.0 - rho_old) * RHO_DECAY)


def lambda2(sys):
    """Second-largest eigenvalue of P_rc via its symmetric similar form.

    Dense eigensolve of ``D(rP)^1/2 P_rc D(rP)^-1/2``; guarded to small n.
    The leading eigenvalue is checked against 1 (row-stochasticity).
    """
    if sys.n > LAMBDA2_MAX_N:
        raise RefusalError(f"lambda2 needs a dense eigensolve; n={sys.n} exceeds {LAMBDA2_MAX_N}")
    G = sys.P / (np.sqrt(sys.rP)[:, None] * np.sqrt(sys.cP)[None, :])
    S = G @ G.T
    evals = scipy.linalg.eigh(S, eigvals_only=True)
    lead = float(evals[-1])
    if abs(lead - 1.0) > 1e-8:
        raise ConditioningError(f"leading eigenvalue of P_rc is {lead}, expected 1")
    if sys.n == 1:
        return 0.0
    return float(min(evals[-2], 1.0 - 1e-16))
