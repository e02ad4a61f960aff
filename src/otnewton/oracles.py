"""Reference solvers: the exact LP optimum and plain Sinkhorn projection.

``exact_ot_small`` is the ground truth the CLI ``bench`` command and the
tests measure the solver's gap against; ``sinkhorn_project`` is the
baseline projector ``mdot`` runs with ``projector="sinkhorn"``, served from
the anchored plan as the Newton projector is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import opcount
from .errors import DimensionError, DomainError, NonconvergenceError, RefusalError
from .problems import SIMPLEX_TOL

EXACT_MAX_N = 256
# HiGHS primal and dual feasibility tolerances for the exact LP.
LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


@dataclass
class ExactSolution:
    """Optimal vertex of the transportation polytope and its cost."""

    P_star: np.ndarray
    cost: float


def exact_ot_small(C, r, c):
    """Exact optimal transport from the HiGHS transportation LP.

    Guarded to n <= 256 (the LP has n^2 variables; n = 256 takes about a
    second).  HiGHS returns a basic solution, so ``P_star`` is a vertex of
    the polytope; among tied optima, which vertex it returns is unspecified.
    """
    C = np.asarray(C, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise DimensionError(f"cost matrix must be square, got {C.shape}")
    n = C.shape[0]
    if r.shape != (n,) or c.shape != (n,):
        raise DimensionError("marginal lengths must match the cost matrix")
    if n > EXACT_MAX_N:
        raise RefusalError(f"exact LP is guarded to n <= {EXACT_MAX_N}, got {n}")
    if not np.isfinite(C).all():
        raise DomainError("cost matrix must be finite")
    if np.any(r < 0.0) or np.any(c < 0.0):
        raise DomainError("marginals must be nonnegative")
    if not abs(r.sum() - c.sum()) <= SIMPLEX_TOL:  # NaN fails too
        raise DomainError(f"marginal sums differ: {r.sum():.17g} vs {c.sum():.17g}")

    # Imported here: scipy.optimize would add a quarter second to importing
    # the solver, which does not need it.
    import scipy.sparse as sp
    from scipy.optimize import linprog

    rows = sp.kron(sp.eye(n), np.ones((1, n)))
    cols = sp.kron(np.ones((1, n)), sp.eye(n))
    res = linprog(C.ravel(), A_eq=sp.vstack([rows, cols]).tocsr(),
                  b_eq=np.concatenate([r, c]), bounds=(0, None),
                  method="highs", options=LP_OPTIONS)
    if res.status != 0:
        raise NonconvergenceError(f"exact LP found no optimum: {res.message}",
                                  diagnostics={"status": int(res.status), "n": n})
    return ExactSolution(P_star=res.x.reshape(n, n), cost=float(res.fun))


def sinkhorn_project(state, r, c, eps_d, sweep_budget=10 ** 6):
    """Sinkhorn scaling until the full gradient norm is below eps_d.

    Serves both as the single-temperature baseline inside the annealing
    driver and, at extreme tolerances, as a fixed-point oracle for the
    Newton projector.  Returns ``(state, sweeps)``.

    Stabilized by absorption (Schmitzer, SIAM J. Sci. Comput. 2019): unless
    the state's anchored plan covers the potentials,
    ``DualState.anchored_plan`` anchors it at the column maxima before the
    first gradient check, and ``DualState.scaling_sweeps`` then runs the
    sweeps as scalings ``alpha = e^a``, ``beta = e^b`` of that plan, one
    product each, with the gradient checked after each sweep.  The iterates
    are those of log-domain Sinkhorn (``DualState.sinkhorn_sweep``) up to
    rounding.  A scaling whose step leaves the offsets the anchor serves
    (``dual.DualState.serves``: ``max a + max b`` within the budget of the
    anchor's floor, each offset within ``dual.OFFSET_RANGE``) is folded
    into the potentials, and its sweep finished in the log domain, which
    anchors anew at the maxima of the axis it sums.  After a sweep the
    column sums are c, so the column half of the gradient is taken once.
    """
    if np.min(r) <= 0.0 or np.min(c) <= 0.0:
        raise DomainError("sinkhorn_project requires strictly positive marginals")
    state.set_targets(r, c)

    def converged(grad_norm, sweeps):
        if grad_norm <= eps_d:
            return True
        if sweeps >= sweep_budget:
            raise NonconvergenceError(
                f"Sinkhorn still at gradient norm {grad_norm:.3g} "
                f"> {eps_d:.3g} after {sweeps} sweeps",
                diagnostics={"gamma": state.gamma, "eps_d": eps_d},
            )
        return False

    sweeps = 0
    with opcount.category("sinkhorn"):
        state.anchored_plan()
        if not converged(state.grad_norm_l1(), 0):
            col_half = np.abs(np.exp(state.log_c) - state.c).sum()
            sweeps = state.scaling_sweeps(
                lambda rows, k: converged(np.abs(rows - state.r).sum() + col_half, k))
    return state, sweeps
