"""Dual potentials, log-domain plan, gradient, and dual objective value.

The plan implied by potentials ``(u, v)`` at inverse temperature ``gamma``
is ``P_ij = exp(u_i + v_j - gamma * C_ij)``.  Row and column sums of P are
always taken from log-domain log-sum-exp reductions, never from the (possibly
underflowed) linear matrix, and are cached alongside the potentials.
``u``, ``v`` and ``gamma`` are read-only: change them through
``set_potentials``, ``set_gamma`` or the exact scaling updates, which all
install the potentials and their sums together in ``_set``.
"""

from __future__ import annotations

import numpy as np

from . import opcount
from ._kernels import log_plan_row_sums, materialize_plan
from .errors import DomainError


class DualState:
    """Single-owner mutable state of the dual problem at one temperature.

    ``r`` and ``c`` are the marginals currently being projected onto (the
    annealing driver swaps in smoothed marginals each outer iteration); they
    default to the problem's own marginals.
    """

    def __init__(self, problem, gamma, u=None, v=None, r=None, c=None):
        self._C_symmetric = None
        self._plan_buf = None
        self.problem = problem
        n = problem.n
        self.set_potentials(np.zeros(n) if u is None else u,
                            np.zeros(n) if v is None else v)
        self.set_gamma(gamma)
        self.r = problem.r if r is None else np.asarray(r, dtype=np.float64)
        self.c = problem.c if c is None else np.asarray(c, dtype=np.float64)

    @property
    def n(self):
        return self.problem.n

    @property
    def u(self):
        return self._u

    @property
    def v(self):
        return self._v

    @property
    def gamma(self):
        return self._gamma

    @property
    def cache_valid(self):
        return self._log_rP is not None and self._log_cP is not None

    def _set(self, u, v, log_rP=None, log_cP=None):
        """The one writer of the potentials and their cached log sums; a sum
        left as ``None`` is recomputed (with the other) on first read."""
        self._u = u
        self._v = v
        self._log_rP = log_rP
        self._log_cP = log_cP

    def set_potentials(self, u, v):
        """Install copies of new potentials; the sums are recomputed on first read."""
        self._set(np.array(u, dtype=np.float64), np.array(v, dtype=np.float64))

    def set_gamma(self, gamma):
        """Move to a new temperature: drops the log kernels and the cached sums."""
        if not np.isfinite(gamma) or gamma <= 0.0:
            raise DomainError(f"gamma must be positive and finite, got {gamma}")
        self._gamma = float(gamma)
        # Drop the old -gamma C before the next read builds the new one, so
        # two n-by-n kernels are never alive at once.
        self._K = None
        self._KT = None
        self._set(self.u, self.v)

    def set_targets(self, r, c):
        """Swap the target marginals (does not touch the plan caches)."""
        self.r = np.asarray(r, dtype=np.float64)
        self.c = np.asarray(c, dtype=np.float64)

    # -- log-domain kernels ------------------------------------------------

    def _neg_gamma_C(self):
        if self._K is None:
            opcount.add(1)
            self._K = -self.gamma * self.problem.C
        return self._K

    def _neg_gamma_C_T(self):
        """Transposed log kernel, contiguous; aliases K for symmetric costs."""
        if self._KT is None:
            if self._C_symmetric is None:
                C = self.problem.C
                self._C_symmetric = bool((C == C.T).all())
            K = self._neg_gamma_C()
            if self._C_symmetric:
                self._KT = K
            else:
                opcount.add(1)
                self._KT = np.ascontiguousarray(K.T)
        return self._KT

    def refresh(self):
        """Recompute the cached log row/column sums of the implied plan."""
        u, v = self.u, self.v
        self._set(u, v, log_plan_row_sums(self._neg_gamma_C(), u, v),
                  log_plan_row_sums(self._neg_gamma_C_T(), v, u))

    @property
    def log_rP(self):
        if self._log_rP is None:
            self.refresh()
        return self._log_rP

    @property
    def log_cP(self):
        if self._log_cP is None:
            self.refresh()
        return self._log_cP

    def row_sums(self):
        return np.exp(self.log_rP)

    def col_sums(self):
        return np.exp(self.log_cP)

    # -- derived quantities --------------------------------------------------

    def gradient(self):
        """(grad_u, grad_v) = (r(P) - r, c(P) - c) against the current targets."""
        return self.row_sums() - self.r, self.col_sums() - self.c

    def grad_norm_l1(self):
        gu, gv = self.gradient()
        return float(np.abs(gu).sum() + np.abs(gv).sum())

    def dual_value(self):
        """Dual objective sum(P) - 1 - <u, r> - <v, c>."""
        mass = float(np.exp(self.log_rP).sum())
        return mass - 1.0 - float(self.u @ self.r) - float(self.v @ self.c)

    def materialize_plan(self, reuse_buffer=False):
        """Linear-domain plan; entries below e^-700 (``EXP_FLOOR``) become 0.

        With ``reuse_buffer`` the returned array is a state-owned scratch
        matrix that the next ``reuse_buffer`` call overwrites; callers must
        be done with it by then (the Newton loop snapshots one plan at a
        time, so it qualifies).
        """
        out = None
        if reuse_buffer:
            if self._plan_buf is None:
                self._plan_buf = np.empty_like(self.problem.C)
            out = self._plan_buf
        return materialize_plan(self._neg_gamma_C(), self.u, self.v, out=out)

    def trial_log_col_sums(self, d_u, d_v, alpha):
        """Log column sums at (u + alpha d_u, v + alpha d_v) without mutating state."""
        return log_plan_row_sums(self._neg_gamma_C_T(),
                                 self.v + alpha * d_v, self.u + alpha * d_u)

    # -- exact scaling updates that keep the caches coherent -----------------

    def rebalance_columns(self):
        """Set v so the column sums equal c exactly, then refresh the row cache."""
        v = np.log(self.c) - log_plan_row_sums(self._neg_gamma_C_T(), 0.0, self.u)
        self.refresh_rows_only(self.u, v, np.log(self.c))

    def scale_rows_to_target(self):
        """One exact row Sinkhorn step: u += log r - log r(P); refresh the column cache."""
        log_r = np.log(self.r)
        u = self.u + log_r - self.log_rP
        self._set(u, self.v, log_r,
                  log_plan_row_sums(self._neg_gamma_C_T(), self.v, u))

    def scale_cols_to_target(self):
        """One exact column Sinkhorn step: v += log c - log c(P); refresh the row cache."""
        log_c = np.log(self.c)
        self.refresh_rows_only(self.u, self.v + log_c - self.log_cP, log_c)

    def refresh_rows_only(self, u, v, log_cP):
        """Install (u, v) whose log column sums ``log_cP`` are already known,
        recomputing only the log row sums."""
        self._set(u, v, log_plan_row_sums(self._neg_gamma_C(), u, v), log_cP)

    # -- stacked potentials for the annealing driver -------------------------

    @property
    def z(self):
        return np.concatenate([self.u, self.v])

    def set_z(self, z):
        n = self.n
        self.set_potentials(z[:n], z[n:])
