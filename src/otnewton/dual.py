"""Dual potentials, log-domain plan, gradient, and dual objective value.

The plan implied by potentials ``(u, v)`` at inverse temperature ``gamma``
is ``P_ij = exp(u_i + v_j - gamma * C_ij)``.  Its row and column sums are
kept in log form and cached alongside the potentials.  Every one comes
from the *anchored plan* ``P0``, materialized at potentials ``(u0, v0)``:
the plan at ``(u0 + a, v0 + b)`` is ``D(e^a) P0 D(e^b)``, so its column sums
are ``b + log(P0^T e^(a - max a)) + max a`` (rows alike), one matrix-vector
product, and ``newton.DiscountedSystem`` applies it by the same two
diagonal scalings.  An anchor serves offsets ``(a, b)`` under one rule
(``DualState.serves``): ``max a + max b`` stays within a budget that the
floor it flushed at leaves, which bounds what its entries flushed to 0
could add, and each offset within ``OFFSET_RANGE``, which keeps the
scalings normal.

Every anchor is taken by one rule (``_serving_anchor``): a sum at
potentials no anchor covers anchors at the maxima of the axis it sums,
found without exp: column sums at ``(u, -m)``, ``m`` the column
maxima of ``u 1^T - gamma C``, row sums at ``(-m', v)``, ``m'`` the row
maxima of ``1 v^T - gamma C``.  Each summed line's largest entry is then 1
(exactly 1 for column sums, up to rounding for row sums, as the kernels
add u before v), so nothing overflows whatever the potentials; the summed
side's offset is 0 and the other side's stays outside the log, so the sum
is log-sum-exp's own computation, with entries below e^-700 dropped (below
the floor, for a sparse anchor), at any offset size.  Every anchor is one
``_kernels.materialize_plan`` call (``_anchor_plan``), which takes the
column maxima itself; only a row anchor takes its maxima here.
``anchored_plan``, which serves the Newton system and the Sinkhorn
projector's sweeps (``scaling_sweeps``), anchors as the column sums do.
The one exact column scaling, ``rebalance_columns``, at a Newton
projection's entry takes v from the anchor serving the column sums and
one transposed product,
``v = v0 + log c - log(P0^T e^a)``: ``-m + log c - log(P0^T 1)`` once per
temperature, when it has just anchored.  After a row scaling
(``sinkhorn_sweep``) or an accepted Newton step it takes the column sums
that step computed.  The Sinkhorn baseline's sweeps (``scaling_sweeps``)
run as scalings ``e^a``, ``e^b`` of the anchored plan, one product each,
and fold them into the potentials when they leave what the anchor serves
or the loop ends.  Only ``release_plan`` materializes a plan at the
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

As gamma grows, most anchored entries become too small to change any sum
the anchor serves.  An anchor is then built as a ``_kernels.SparsePlan``
(CSR) of its entries at or above e^F, ``F = flush_floor(n, r, c)`` from the
current targets, which the projectors install before a temperature's first
anchor.  It replaces the dense buffer and never sits beside it, and every
sum and Newton product at that temperature runs over its nonzeros.  A
dropped entry enters them scaled by e^(a_i + b_j), and the anchor serves
only offsets with ``max a + max b`` within its budget, ``SPARSE_SCALE_MAX``
at that floor, so the n that one sum or product drops stay below half an
ulp of the smallest target (kernel truncation, Schmitzer, SIAM J. Sci.
Comput. 2019, with the threshold set by rounding).  The switch reads only
the input (``sparse_anchor``): the plan spans more than one tile (n > ``BLOCK``;
below that dense wins), and the previous anchor of the solve had at most
n^2 / 4 entries at or above its floor, since a plan's count is known only
after its pass; a sparse build falls back to dense once its count passes
n^2 / 8 (``sparse_limit``).  A dense anchor flushes only below e^-700 but
counts at the floor.  ``plan_density`` reports the anchor's count / n^2.

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

from ._kernels import (BLOCK, EXP_FLOOR, SparsePlan, log_plan_matvec, log_plan_max,
                       materialize_plan, plan_matvec, scale_plan)
from .errors import DomainError

# The serving rule (DualState.serves).  An anchor flushed to 0 each entry
# whose log lies below its floor F: flush_floor(n, r, c) for a sparse
# anchor, EXP_FLOOR for the dense buffer.  At offsets (a, b) a dropped entry
# enters a sum or a Newton product scaled by e^(a_i + b_j), at most
# e^(max a + max b), so the n that one line drops stay below
# n e^(F + max a + max b).  Kept at or below 2^-54 t_min, half an ulp of the
# smallest target t_min, they move no sum of at least t_min by more than
# half an ulp (kernel truncation, Schmitzer, SIAM J. Sci. Comput. 2019, with
# the threshold set by rounding).  So an anchor serves offsets with
#     max a + max b <= budget = max(S, log t_min - 54 log 2 - log n - F),
# S = SPARSE_SCALE_MAX, the budget taken with the anchor (_anchor_plan).
# Negative offsets scale dropped entries down, so only the largest enter.
# flush_floor picks F so that a sparse anchor's budget is S (up to the
# rounding of F, 7e-15 on the benchmark); a dense anchor's is 634 to 653 on
# the benchmark's anchors (n = 64 to 4096).  The floor S keeps every anchor
# at maxima serving its own entry state (a = 0, and max b <= 0 after the
# entry rebalance, each column sum of P0 being at least 1) even at a zero
# target, whose budget would be -inf.  At S = 0 an anchor would refuse its
# own state once a column's largest entry exceeds 1, and re-anchor on every
# use; S = 16 leaves room for Newton steps and line searches (the sparse
# offsets served on the 32x32 l2sq grid solves, n = 1024, gamma to 2^18,
# reach max a + max b = 10.1, three quarters of them 0 or below), at a
# floor 16 below the one S = 0 gives.  The bound is absolute: a line whose
# sum is at least t_min loses at most half an ulp relative, while one that
# offsets of wide spread take far below t_min keeps only the absolute bound.
#
# Each offset also stays within R = OFFSET_RANGE, max(|a|_inf, |b|_inf) <= R,
# which keeps normal what the offsets scale: a sum's weights e^(a - max a)
# are at least e^-2R, and the Newton system's scalings e^a, e^2a and e^2b
# (newton.DiscountedSystem) lie within e^(+-2R).  The normal numbers span
# (e^-708.4, e^709.8), so 2R = -EXP_FLOOR = 700 is the round bound inside.
#
# A sum at a new anchor needs neither check: its summed side's offset is 0,
# the other side's stays outside the log, and each dropped term is below e^F
# against a sum of at least 1.  The entry anchor at (u, -m) puts its column
# offset b = log c - log(P0^T 1) in [log c - log n, log c]: within the budget,
# and within R unless a target is below e^-R / n; then the row sums at the
# rebalanced state anchor anew at the row maxima.  Both checks are convex in
# a line search's step size (maxima of offsets affine in it, and minima
# negated), so an anchor that serves both ends of a step serves all of it.
OFFSET_RANGE = -EXP_FLOOR / 2.0
SPARSE_SCALE_MAX = 16.0


def _log_drop_share(n, r, c):
    """log(2^-54 t_min / n), ``t_min`` the smallest target: the most each of
    the n terms one line drops may add (see above), in log; -inf for a zero
    target."""
    t_min = min(float(np.min(r)), float(np.min(c)))
    return math.log(t_min) - 54.0 * math.log(2.0) - math.log(n) if t_min > 0.0 else -math.inf


def sparse_anchor(n, prev_nnz):
    """Whether to build an anchor as a ``SparsePlan``: the plan spans more
    than one tile, and the previous anchor of the solve, ``prev_nnz``
    entries at or above its floor or None, had at most a quarter of its
    entries there.  The build falls back to dense past an eighth
    (``sparse_limit``).

    On the anchors of a 32x32 l2sq grid solve (n = 1024), a product and
    its transpose take about 240 us dense, and 85, 170 and 300 us in CSR at
    densities 0.080, 0.154 and 0.282 (2-vCPU host, 2 OpenBLAS threads).
    The crossover thus lies near a density of 1/4, above the eighth at
    which a build falls back to dense; the thresholds stay where they are,
    since moving them moves results.  At ``flush_floor`` that solve keeps
    0.147 of its entries at 2^10.5, a dense anchor, and anchors CSR from
    2^11.5 on, at 0.076 there, 0.039 at 2^12.5 and 0.004 at 2^18."""
    return n > BLOCK and prev_nnz is not None and prev_nnz <= n * n // 4


def sparse_limit(n):
    """Most entries a sparse anchor may keep before it falls back to dense."""
    return n * n // 8


def flush_floor(n, r, c):
    """The log floor F below which a sparse anchor drops entries, from the
    targets ``r`` and ``c``: ``log t_min - 54 log 2 - log n - SPARSE_SCALE_MAX``,
    ``t_min`` the smallest target, and at least ``EXP_FLOOR``.

    Its anchor's budget is then ``SPARSE_SCALE_MAX`` (see the serving rule
    above): offsets with ``max a + max b`` within it scale a dropped entry
    by at most e^SPARSE_SCALE_MAX, so the n that one sum or product drops
    stay below n e^(F + SPARSE_SCALE_MAX) = 2^-54 t_min, half an ulp of
    every target.  On the 32x32 l2sq grid (n = 1024) F is about -79 late in
    a solve.  ``EXP_FLOOR`` for a plan of one tile (n <= ``BLOCK``), which
    is never sparse, and for a zero target or one below about 1e-280.
    """
    if n <= BLOCK:
        return EXP_FLOOR
    return max(EXP_FLOOR, _log_drop_share(n, r, c) - SPARSE_SCALE_MAX)


class DualState:
    """Single-owner mutable state of the dual problem at one temperature.

    ``r`` and ``c`` are the marginals currently being projected onto (the
    annealing driver swaps in smoothed marginals each outer iteration); they
    default to the problem's own marginals.
    """

    def __init__(self, problem, gamma, u=None, v=None, r=None, c=None):
        self._plan = None  # the anchored plan, or the dense buffer kept for the next
        self._anchor = None  # (u0, v0) that _plan is the plan of
        self._anchor_nnz = None  # entries of the last anchored plan at or above its floor
        self.budget = None  # the largest max a + max b the anchor serves
        self._col_product = None  # (a, log(P0^T e^a)) last taken from the anchor
        self.problem = problem
        n = problem.n
        self.set_potentials(np.zeros(n) if u is None else u,
                            np.zeros(n) if v is None else v)
        self.set_gamma(gamma)
        self.set_targets(problem.r if r is None else r, problem.c if c is None else c)

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
        """Swap the target marginals, and keep their logs ``log_r`` and
        ``log_c`` (-inf at a zero target) for the exact scalings (does not
        touch the plan caches)."""
        self.r = np.asarray(r, dtype=np.float64)
        self.c = np.asarray(c, dtype=np.float64)
        with np.errstate(divide="ignore"):
            self.log_r = np.log(self.r)
            self.log_c = np.log(self.c)

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
        ``materialize_plan`` call per representation: a ``SparsePlan`` of
        the entries at or above ``flush_floor`` when ``sparse_anchor`` says
        so and there are at most ``sparse_limit`` of them, else the state's
        dense buffer, built at the ``v`` that a sparse build past the limit
        returned.  Either build counts the entries at or above the floor.
        The anchor keeps the budget of the floor it flushed at, the dense
        buffer's being ``EXP_FLOOR`` (see the serving rule above)."""
        n, C, gamma = self.n, self.problem.C, self.gamma
        floor = flush_floor(n, self.r, self.c)
        plan = None
        if sparse_anchor(n, self._anchor_nnz):
            self._drop_anchor()
            self._plan = None  # the CSR replaces the dense buffer, never sits beside it
            plan, v, nnz = materialize_plan(C, gamma, u, v, max_nnz=sparse_limit(n),
                                            floor=floor)
        if plan is None:
            plan, v, nnz = materialize_plan(C, gamma, u, v, out=self._buffer(), floor=floor)
            floor = EXP_FLOOR  # what the dense buffer flushes below
        self._plan, self._anchor_nnz = plan, nnz
        self.budget = max(SPARSE_SCALE_MAX, _log_drop_share(n, self.r, self.c) - floor)
        self._anchor = (u, v)

    @property
    def plan_density(self):
        """The share of the anchored plan's entries at or above its floor
        (``flush_floor``), nnz / n^2; nan when the state holds none."""
        if self._anchor is None:
            return math.nan
        return self._anchor_nnz / self.n ** 2

    def serves(self, a, b):
        """Whether the anchor serves sums at offsets (a, b): ``max a + max b``
        within its budget, and each offset within ``OFFSET_RANGE`` (the
        serving rule above).  Four reductions; a NaN offset is not served."""
        return self._serves_extremes(a.max(), a.min(), b.max(), b.min())

    def _serves_extremes(self, top_a, low_a, top_b, low_b):
        """``serves`` on the largest and smallest entry of each offset."""
        return bool(top_a + top_b <= self.budget and top_a <= OFFSET_RANGE
                    and top_b <= OFFSET_RANGE and low_a >= -OFFSET_RANGE
                    and low_b >= -OFFSET_RANGE)

    def _plan_offsets(self, u, v):
        """(u - u0, v - v0) when the anchored plan serves sums at (u, v), else None."""
        if self._anchor is None:
            return None
        u0, v0 = self._anchor
        a, b = u - u0, v - v0
        return (a, b) if self.serves(a, b) else None

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
        the anchor serves the offsets (``serves``).

        Precondition: the state's column offsets at its column maxima are
        served, as after a column rebalance, which leaves ``max b <= 0``.  A
        new anchor at the column maxima has ``a = 0`` and is returned with
        its column offsets ``b`` unchecked, since they stay outside the
        column sums; the Newton system, which scales by ``e^b``, needs them
        served and checks them (``newton.DiscountedSystem.from_state``).
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
        return (u - u0) + log_plan_matvec(self._plan, v - v0)

    def _log_col_sums(self, u, v):
        u0, v0 = self._serving_anchor(u, v, 0)
        return (v - v0) + self._log_col_product(u - u0)

    def _log_col_product(self, a):
        """log(P0^T e^a), one transposed product with the anchored plan, kept
        with ``a`` for ``base_log_col_sums``; neither array is written to."""
        log_cols = log_plan_matvec(self._plan, a, transpose=True)
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

        When the anchor covers both ends of the full step, it covers (its
        checks, on maxima and minima of offsets affine in alpha, being convex
        in alpha) every alpha in [0, 1], so a line search, with its
        ``base_log_col_sums``, is served by one plan.
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
        off = self._plan_offsets(self.u, self.v)
        if off is None or not self.serves(off[0] + d_u, off[1] + d_v):
            return self.log_cP
        a, b = off
        kept = self._col_product
        if kept is not None and np.array_equal(kept[0].view(np.int64), a.view(np.int64)):
            return b + kept[1]
        return b + self._log_col_product(a)

    # -- exact scaling updates that keep the caches coherent -----------------

    def rebalance_columns(self, u=None, v=None, log_cols=None):
        """Set v so the column sums equal c exactly, then refresh the row sums.

        With no arguments, takes v from the anchor serving the column sums
        (at the column maxima unless one covers the state) and one
        transposed product: ``v = v0 + (log c - log(P0^T e^a))``, kept out
        of the sums as in log-sum-exp.  Given potentials and their log
        column sums (all three, or a ``TypeError``), installs
        ``(u, v + (log c - log_cols))`` with no column product.  Should the
        offsets leave what the anchor serves (``serves``), v is still exact
        (no scaling enters it); the row sums then re-anchor at the row
        maxima.
        """
        if sum(x is None for x in (u, v, log_cols)) not in (0, 3):
            raise TypeError("rebalance_columns takes u, v and log_cols together or none of them")
        log_c = self.log_c
        if log_cols is None:
            u = self.u
            u0, v = self._serving_anchor(u, self.v, 0)
            log_cols = self._log_col_product(u - u0)
        v = v + (log_c - log_cols)
        self._set(u, v, self._log_row_sums(u, v), log_c)

    def scale_rows_to_target(self):
        """One exact row Sinkhorn step: u += log r - log r(P); refresh the column sums."""
        self._install_row_scaled(self.u + self.log_r - self.log_rP, self.v)

    def sinkhorn_sweep(self):
        """One exact Sinkhorn sweep, two products: scale the rows onto r,
        then rebalance the columns from the column sums that step computed."""
        self.scale_rows_to_target()
        self.rebalance_columns(self.u, self.v, self.log_cP)

    def _install_row_scaled(self, u, v):
        """Install potentials (u, v) just scaled onto the row target, whose
        row sums are r, with their column sums (one product)."""
        self._set(u, v, self.log_r, self._log_col_sums(u, v))

    def scaling_sweeps(self, stop):
        """Exact Sinkhorn sweeps in the scaling domain at the anchor, until
        ``stop(rows, sweeps)``, given the row sums after each sweep and the
        sweeps made, is true; returns the sweeps made.

        With ``alpha = e^a`` and ``beta = e^b`` at the anchor's offsets,
        each sweep is ``alpha = r / (P0 beta)``, then
        ``beta = c / (P0^T alpha)``, one ``plan_matvec`` each; the row
        sums ``alpha * (P0 beta)`` come from the product the next row
        scaling divides by.  The first row scaling at an anchor is taken in
        log form from the installed row sums, as ``scale_rows_to_target``
        takes it.  Before each product the loop checks the offsets the
        scalings stand for under the serving rule (``serves``, on the logs
        of the scalings' extremes).  Where it refuses, it installs the
        potentials ``(u0 + log alpha, v0 + log beta)`` and finishes the
        sweep in the log domain as ``sinkhorn_sweep`` does, which anchors
        anew at the maxima of the axis it sums; the next sweep starts at the
        anchor that serves the column sums (``anchored_plan``).  On exit,
        also when ``stop`` raises, it installs the potentials with their log
        sums, ``log rows`` and ``log c``, in one ``_set``.  So the iterates are those of
        ``sinkhorn_sweep`` up to rounding, with its anchors and its passes,
        two per sweep, but a fraction of its vector work.  The column sums
        after a sweep are c, so the column half of the gradient is the same
        after every sweep.
        """
        r, c, log_c = self.r, self.c, self.log_c
        sweeps, held = 0, False  # held: the potentials are the scalings at the anchor
        with np.errstate(divide="ignore"):  # a zero sum is refused, as in log_plan_matvec
            while True:
                if held:
                    alpha = r / prod
                    top_a, low_a = _log_extremes(alpha)
                else:
                    P0, _, b = self.anchored_plan()
                    u0, v0 = self._anchor
                    u, v = self.u + self.log_r - self.log_rP, self.v
                    a = u - u0
                    top_a, low_a, top_b, low_b = a.max(), a.min(), b.max(), b.min()
                if not self._serves_extremes(top_a, low_a, top_b, low_b):
                    if held:
                        u, v = u0 + np.log(alpha), v0 + np.log(beta)
                    self._install_row_scaled(u, v)
                    self.rebalance_columns(u, v, self.log_cP)
                    held = False
                else:
                    if not held:
                        alpha = np.exp(a)
                    beta = c / plan_matvec(P0, alpha, transpose=True)
                    top_b, low_b = _log_extremes(beta)
                    held = self._serves_extremes(top_a, low_a, top_b, low_b)
                    if held:
                        prod = plan_matvec(P0, beta)
                        rows = alpha * prod
                    else:
                        u, v = u0 + np.log(alpha), v0 + np.log(beta)
                        self._set(u, v, self._log_row_sums(u, v), log_c)
                sweeps += 1
                done = True  # a test that raises leaves the state at this sweep
                try:
                    done = stop(rows if held else self.row_sums(), sweeps)
                finally:
                    if done and held:
                        self._set(u0 + np.log(alpha), v0 + np.log(beta), np.log(rows), log_c)
                if done:
                    return sweeps


def _log_extremes(x):
    """The logs of the largest and the smallest entry of scalings ``x``, the
    extremes of the offsets they stand for: -inf for a 0, and for a NaN,
    which makes both extremes NaN, so that the range refuses it."""
    top, low = float(x.max()), float(x.min())
    return (math.log(top) if top > 0.0 else -math.inf,
            math.log(low) if low > 0.0 else -math.inf)
