"""Dual potentials, log-domain plan, gradient, and dual objective value.

The plan implied by potentials ``(u, v)`` at inverse temperature ``gamma``
is ``P_ij = exp(u_i + v_j - gamma * C_ij)``.  Its row and column sums are
kept in log form and cached alongside the potentials.  Every one comes
from the *anchored plan* ``P0``, materialized at potentials ``(u0, v0)``:
the plan at ``(u0 + a, v0 + b)`` is ``D(e^a) P0 D(e^b)``, so its column sums
are ``b + log(P0^T e^(a - max a)) + max a`` (rows alike), one matrix-vector
product, and ``newton.DiscountedSystem`` applies it by the same two
diagonal scalings.  An anchor serves the state while the offsets stay
within ``PLAN_OFFSET_MAX``, which bounds what its entries flushed to 0
could add.

Every anchor is taken by one rule (``_serving_anchor``): a sum at
potentials no anchor covers anchors at the maxima of the axis it sums,
found without exp: column sums at ``(u, -m)``, ``m`` the column
maxima of ``u 1^T - gamma C``, row sums at ``(-m', v)``, ``m'`` the row
maxima of ``1 v^T - gamma C``.  Each summed line's largest entry is then 1
(exactly 1 for column sums, up to rounding for row sums, as the kernels
add u before v), so nothing overflows whatever the potentials; the summed
side's offset is 0 and the other side's stays outside the log, so the sum
is log-sum-exp's own computation, with entries below e^-700 dropped, at any
offset size.  Every anchor is one ``_kernels.materialize_plan`` call
(``_anchor_plan``), which takes the column maxima itself; only a row
anchor takes its maxima here.  ``anchored_plan``, which serves the Newton system and the
Sinkhorn projector's gradient checks (``oracles.sinkhorn_project``),
anchors as the column sums do.  The one exact column scaling,
``rebalance_columns``, at a Newton projection's entry takes v from the
anchor serving the column sums and one transposed product,
``v = v0 + log c - log(P0^T e^a)``: ``-m + log c - log(P0^T 1)`` once per
temperature, when it has just anchored.  After a row scaling
(``sinkhorn_sweep``) or an accepted Newton step it takes the column sums
that step computed.  Only ``release_plan`` materializes a plan at the
potentials themselves.  ``set_gamma`` drops the anchor (the buffer is kept
for the next one).  Every anchor is taken at maxima, so a dense anchor's
entries are at most 1 (exactly for a column anchor, up to rounding for a
row anchor), the bound ``newton.DiscountedSystem`` gives its squared
product.

The state keeps the last transposed product taken from the anchor,
``log(P0^T e^a)``, with the row offsets ``a = u - u0`` it was taken at: two
n-vectors, dropped with the anchor (``set_gamma``, a new anchor,
``release_plan``).  Only ``base_log_col_sums`` reads it, when its offsets
are those bit for bit.  So a line search's alpha = 0 sums after an accepted
step, a chi-square sweep or the entry rebalance cost no pass, and come from
the same evaluation path as a new product would.

As gamma grows, most anchored entries fall below e^-700 and are stored as
exact zeros.  An anchor is then built as a ``_kernels.SparsePlan`` (CSR),
which replaces the dense buffer and never sits beside it, and every sum and
Newton product at that temperature runs over its nonzeros.  The rule reads
only the input (``sparse_anchor``): the plan spans more than one tile
(n > ``BLOCK``; below that dense wins), and the previous anchor of the solve
had at most n^2 / 4 nonzeros, since a plan's count is known only after its
pass; a sparse build falls back to dense once its count passes n^2 / 8
(``sparse_limit``).  ``plan_density`` reports the anchor's nnz / n^2.

At the end of a solve, ``release_plan`` scales a dense anchored plan in
place to the plan at the current potentials, or drops a sparse one and
materializes the plan, and hands the buffer over, so a solve holds one
n-by-n plan.  ``u``, ``v`` and ``gamma``
are read-only: change them through ``set_potentials``, ``set_gamma`` or the
exact scalings, which all install the potentials and their sums together in
``_set``.
"""

from __future__ import annotations

import math

import numpy as np

from ._kernels import (BLOCK, EXP_FLOOR, SparsePlan, fixed_order, log_plan_matvec,
                       log_plan_max, materialize_plan, scale_plan)
from .errors import DomainError

# Largest offset |u - u0|_inf + |v - v0|_inf at which the anchored plan serves
# sums; beyond it a sum anchors anew at the maxima of its summed axis.  A plan
# entry flushed to 0 had log below EXP_FLOOR, and the offsets scale it by at
# most e^B, so with B = -EXP_FLOOR - 600 each dropped term stays below
# e^-600 ~ 2.7e-261 and the n <= 2^20 of one sum below 3e-255: far below half
# an ulp of any target above 1e-230.  The smallest smoothed target,
# w_c * eps_d / n, is about 1e-11 on an n = 64 batch instance at
# gamma = 2^18.  The weights e^(a - max a) stay above e^(-2B) = e^-200, and
# the Newton system's scalings e^a and e^2b within e^(+-2B), normal numbers.
# The entry anchor at (u, -m) puts its column offset b = log c - log(P0^T 1)
# in [log c - log n, log c] (each column sum of P0 lies in [1, n]), inside B
# unless a target is below e^-100 / n; then the row sums at the rebalanced
# state anchor anew at the row maxima.  A sum at such a new anchor needs no
# bound on the other side's offset, which stays outside the log: the summed
# side's is 0, and each dropped term is below e^-700 against a sum of at
# least 1.
PLAN_OFFSET_MAX = -EXP_FLOOR - 600.0


def _within_guard(a, b):
    return bool(np.abs(a).max() + np.abs(b).max() <= PLAN_OFFSET_MAX)


def sparse_anchor(n, prev_nnz):
    """Whether to build an anchor as a ``SparsePlan``: the plan spans more
    than one tile, and the previous anchor of the solve, ``prev_nnz``
    nonzeros or None, had at most a quarter of its entries nonzero.  The
    build falls back to dense past an eighth (``sparse_limit``).

    A product and its transpose at density 1/8 take 20 us dense against
    41 us sparse at n = 256, 130 against 88 us at n = 512 and 354 against
    289 us at n = 1024 (2-vCPU host, 2 OpenBLAS threads)."""
    return n > BLOCK and prev_nnz is not None and prev_nnz <= n * n // 4


def sparse_limit(n):
    """Most nonzeros a sparse anchor may have before it falls back to dense."""
    return n * n // 8


class DualState:
    """Single-owner mutable state of the dual problem at one temperature.

    ``r`` and ``c`` are the marginals currently being projected onto (the
    annealing driver swaps in smoothed marginals each outer iteration); they
    default to the problem's own marginals.
    """

    def __init__(self, problem, gamma, u=None, v=None, r=None, c=None):
        self._plan = None  # the anchored plan, or the dense buffer kept for the next
        self._anchor = None  # (u0, v0) that _plan is the plan of
        self._anchor_nnz = None  # nonzeros of the last anchored plan
        self._col_product = None  # (a, log(P0^T e^a)) last taken from the anchor
        self._fixed_order = False
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
        """Move to a new temperature: drops the anchored plan and the cached sums."""
        if not np.isfinite(gamma) or gamma <= 0.0:
            raise DomainError(f"gamma must be positive and finite, got {gamma}")
        self._gamma = float(gamma)
        self._drop_anchor()
        self._set(self.u, self.v)

    def set_targets(self, r, c):
        """Swap the target marginals (does not touch the plan caches)."""
        self.r = np.asarray(r, dtype=np.float64)
        self.c = np.asarray(c, dtype=np.float64)

    # -- the anchored plan ---------------------------------------------------

    def _drop_anchor(self):
        """Forget the anchor and the column product kept from it."""
        self._anchor = None
        self._col_product = None

    def _buffer(self):
        """The state's dense plan buffer, made if the state holds none; the
        anchor is dropped first, as its plan is about to be overwritten."""
        self._drop_anchor()  # not a valid plan if materialization raises
        if not isinstance(self._plan, np.ndarray):
            self._plan = None  # a sparse plan is let go before the buffer is made
            self._plan = np.empty_like(self.problem.C)
        return self._plan

    def _anchor_plan(self, u, v=None):
        """Materialize the plan at potentials (u, v) and make it the anchor;
        with ``v`` None, at the column maxima, ``v = -m``.  One
        ``materialize_plan`` call per representation: a ``SparsePlan`` when
        ``sparse_anchor`` says so and it has at most ``sparse_limit``
        nonzeros, else the state's dense buffer, built at the ``v`` that a
        sparse build past the limit returned."""
        n, C, gamma = self.n, self.problem.C, self.gamma
        plan = None
        if sparse_anchor(n, self._anchor_nnz):
            self._drop_anchor()
            self._plan = None  # the CSR replaces the dense buffer, never sits beside it
            plan, v, nnz = materialize_plan(C, gamma, u, v, max_nnz=sparse_limit(n))
        if plan is None:
            plan, v, nnz = materialize_plan(C, gamma, u, v, out=self._buffer())
        self._plan, self._anchor_nnz = plan, nnz
        self._anchor = (u, v)
        self._fixed_order = fixed_order()

    @property
    def plan_density(self):
        """nnz / n^2 of the anchored plan; nan when the state holds none."""
        if self._anchor is None:
            return math.nan
        return self._anchor_nnz / self.n ** 2

    def _plan_offsets(self, u, v):
        """(u - u0, v - v0) when the anchored plan serves sums at (u, v), else None."""
        if self._anchor is None:
            return None
        u0, v0 = self._anchor
        a, b = u - u0, v - v0
        return (a, b) if _within_guard(a, b) else None

    def _serving_anchor(self, u, v, axis):
        """The anchor ``(u0, v0)`` that serves the sums over ``axis`` (0:
        columns, 1: rows) at (u, v): the current one when it covers (u, v),
        else a new one at that axis's maxima, ``(u, -m)`` with ``m`` the
        column maxima of ``u 1^T - gamma C``, or ``(-m', v)`` with ``m'`` the
        row maxima of ``1 v^T - gamma C``.  Each summed line of a new anchor
        has largest entry 1, so nothing overflows whatever the potentials,
        and no entry exceeds 1 (up to rounding at the row maxima, as u is
        added before v); the maxima take no exp.  ``materialize_plan`` takes
        the column maxima itself, a dense anchor from the log plan it writes
        into its buffer (``_anchor_plan``)."""
        if self._plan_offsets(u, v) is None:
            if axis == 0:
                self._anchor_plan(u)
            else:
                self._anchor_plan(-log_plan_max(self.problem.C, self.gamma, v, 1), v)
        return self._anchor

    def anchored_plan(self):
        """``(P0, a, b)``: the anchored plan and the offsets of the current
        potentials from its anchor, so the current plan is ``D(e^a) P0 D(e^b)``.

        Anchors at the column maxima first when no anchor covers the state,
        as the column sums do.  ``P0`` is the state's buffer or a
        ``SparsePlan``: it stays valid until the state anchors again, which
        in the projection loop happens at most once per temperature while
        the offsets stay within ``PLAN_OFFSET_MAX``.
        """
        u0, v0 = self._serving_anchor(self.u, self.v, 0)
        return self._plan, self.u - u0, self.v - v0

    def release_plan(self):
        """The plan at the current potentials, in the state's own plan buffer,
        which the state then gives up, so it keeps no n-by-n array but the
        problem's cost.

        When the anchor covers the state and is dense, the anchored plan is
        scaled in place to ``D(e^a) P0 D(e^b)`` (one pass, entries below
        e^-700 set to 0); otherwise the plan is materialized into a buffer,
        after a sparse anchor is let go.  The cached log sums stay valid;
        the next anchor allocates a new buffer.
        """
        off = self._plan_offsets(self.u, self.v)
        if off is None or isinstance(self._plan, SparsePlan):
            P = materialize_plan(self.problem.C, self.gamma, self.u, self.v,
                                 out=self._buffer())[0]
        else:
            P = scale_plan(self._plan, np.exp(off[0]), np.exp(off[1]))
        self._plan = None
        self._drop_anchor()
        return P

    # -- log row/column sums: one product with the anchored plan -------------

    def _log_row_sums(self, u, v):
        u0, v0 = self._serving_anchor(u, v, 1)
        return (u - u0) + log_plan_matvec(self._plan, v - v0, self._fixed_order)

    def _log_col_sums(self, u, v):
        u0, v0 = self._serving_anchor(u, v, 0)
        return (v - v0) + self._log_col_product(u - u0)

    def _log_col_product(self, a):
        """log(P0^T e^a), one transposed product with the anchored plan, kept
        with ``a`` for ``base_log_col_sums``; neither array is written to."""
        log_cols = log_plan_matvec(self._plan, a, self._fixed_order, transpose=True)
        self._col_product = (a, log_cols)
        return log_cols

    def refresh(self):
        """Recompute the cached log row/column sums of the implied plan."""
        u, v = self.u, self.v
        self._set(u, v, self._log_row_sums(u, v), self._log_col_sums(u, v))

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

    def trial_log_col_sums(self, d_u, d_v, alpha):
        """Log column sums at (u + alpha d_u, v + alpha d_v); the potentials
        and their sums are left as they are.

        When the anchor covers both ends of the full step, it covers (the
        offsets being convex in alpha) every alpha in [0, 1], so a line
        search, with its ``base_log_col_sums``, is served by one plan.
        Otherwise a trial the anchor does not cover re-anchors at its column
        maxima.
        """
        return self._log_col_sums(self.u + alpha * d_u, self.v + alpha * d_v)

    def base_log_col_sums(self, d_u, d_v):
        """Log column sums at alpha = 0 for a line search along (d_u, d_v):
        from the anchored plan when it covers the full step, else the cache.

        On the plan, the last transposed product taken from the anchor serves
        them when it was taken at these row offsets, bit for bit, as after an
        accepted step or a chi-square sweep: the same evaluation path with no
        pass.  Otherwise they take one product."""
        if not self._step_on_plan(d_u, d_v):
            return self.log_cP
        u0, v0 = self._anchor
        a = self.u - u0
        kept = self._col_product
        if kept is not None and np.array_equal(kept[0].view(np.int64), a.view(np.int64)):
            return (self.v - v0) + kept[1]
        return (self.v - v0) + self._log_col_product(a)

    def _step_on_plan(self, d_u, d_v):
        off = self._plan_offsets(self.u, self.v)
        return off is not None and _within_guard(off[0] + d_u, off[1] + d_v)

    # -- exact scaling updates that keep the caches coherent -----------------

    def rebalance_columns(self, u=None, v=None, log_cols=None):
        """Set v so the column sums equal c exactly, then refresh the row sums.

        With no arguments, takes v from the anchor serving the column sums
        (at the column maxima unless one covers the state) and one
        transposed product: ``v = v0 + (log c - log(P0^T e^a))``, kept out
        of the sums as in log-sum-exp.  Given potentials and their log
        column sums (all three, or a ``TypeError``), installs
        ``(u, v + (log c - log_cols))`` with no column product.  Should the
        offset leave ``PLAN_OFFSET_MAX``, v is still exact (no scaling
        enters it); the row sums then re-anchor at the row maxima.
        """
        if sum(x is None for x in (u, v, log_cols)) not in (0, 3):
            raise TypeError("rebalance_columns takes u, v and log_cols together or none of them")
        log_c = np.log(self.c)
        if log_cols is None:
            u = self.u
            u0, v = self._serving_anchor(u, self.v, 0)
            log_cols = self._log_col_product(u - u0)
        v = v + (log_c - log_cols)
        self._set(u, v, self._log_row_sums(u, v), log_c)

    def scale_rows_to_target(self):
        """One exact row Sinkhorn step: u += log r - log r(P); refresh the column sums."""
        log_r = np.log(self.r)
        u = self.u + log_r - self.log_rP
        self._set(u, self.v, log_r, self._log_col_sums(u, self.v))

    def sinkhorn_sweep(self):
        """One exact Sinkhorn sweep, two products: scale the rows onto r,
        then rebalance the columns from the column sums that step computed."""
        self.scale_rows_to_target()
        self.rebalance_columns(self.u, self.v, self.log_cP)
