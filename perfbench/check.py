"""Output checks made apart from the solver: nothing here trusts its reports.

Each check returns the list of the names of the checks that missed; an
empty list means the solve passed.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

# Marginal error allowed for roundoff in the rounded plan, in L1 norm.
FEAS_TOL = 1e-12
# Entries may sit this far below zero (roundoff of the rank-one repair).
NEG_TOL = 1e-15
COST_RTOL = 1e-12
# Slack for the LP optimum, which HiGHS finds to its feasibility tolerances.
LP_TOL = 1e-10
LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def check_plan(P, C, r, c, primal):
    """Feasibility and cost of a returned plan against the problem itself."""
    missed = []
    if not np.all(np.isfinite(P)):
        return ["plan_finite"]
    if np.abs(P.sum(axis=1) - r).sum() > FEAS_TOL:
        missed.append("row_sums")
    if np.abs(P.sum(axis=0) - c).sum() > FEAS_TOL:
        missed.append("col_sums")
    if P.min() < -NEG_TOL:
        missed.append("nonnegative")
    cost = float(np.vdot(P, C))
    if abs(cost - primal) > COST_RTOL * max(1.0, abs(cost)):
        missed.append("primal_cost")
    return missed


def lp_optimum(C, r, c):
    """Exact optimal transport cost from the HiGHS transportation LP."""
    n, m = C.shape
    rows = sp.kron(sp.eye(n), np.ones((1, m)))
    cols = sp.kron(np.ones((1, n)), sp.eye(m))
    res = linprog(C.ravel(), A_eq=sp.vstack([rows, cols]).tocsr(),
                  b_eq=np.concatenate([r, c]), bounds=(0, None),
                  method="highs", options=LP_OPTIONS)
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def check_lp_gap(primal, bound, lp):
    """0 <= primal - LP <= error_bound, each side with the LP's slack."""
    gap = primal - lp
    if gap < -LP_TOL:
        return ["below_lp_optimum"]
    if gap > bound + LP_TOL:
        return ["lp_gap_over_bound"]
    return []


def ctransform_lower_bound(C, r, c, u, gamma):
    """Weak-duality bound f.r + g.c with f = u / gamma and g the c-transform of f.

    ``g_j = min_i (C_ij - f_i)`` makes ``f_i + g_j <= C_ij`` hold exactly, so
    the bound is below the optimal cost whatever ``u`` is.
    """
    f = np.asarray(u, dtype=np.float64) / gamma
    g = (C - f[:, None]).min(axis=0)
    return float(f @ r + g @ c)


def check_certificate(primal, bound, lower):
    """LB <= primal (up to roundoff in the sums) and primal - LB <= error_bound."""
    if lower > primal + 1e-12:
        return ["lower_bound_above_primal"]
    if primal - lower > bound:
        return ["certificate_gap_over_bound"]
    return []
