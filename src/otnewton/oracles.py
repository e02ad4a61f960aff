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

    Stabilized by absorption (Schmitzer, SIAM J. Sci. Comput. 2019): before
    each gradient check, unless the state's anchored plan covers the
    potentials, ``DualState.anchored_plan`` anchors it at the column maxima,
    so each sweep's two exact scalings (``DualState.sinkhorn_sweep``) take
    their sums from one product with that plan each.  The iterates are
    those of log-domain Sinkhorn.  A scaling whose step leaves the offsets
    the anchor serves (``dual.DualState.serves``: ``max a + max b`` within
    the budget of the anchor's floor, each offset within
    ``dual.OFFSET_RANGE``) re-anchors at the maxima of the axis it sums, and
    that anchor serves the later sums and checks while it covers them.
    """
    if np.min(r) <= 0.0 or np.min(c) <= 0.0:
        raise DomainError("sinkhorn_project requires strictly positive marginals")
    state.set_targets(r, c)
    steps = 0
    with opcount.category("sinkhorn"):
        while True:
            state.anchored_plan()
            grad_norm = state.grad_norm_l1()
            if grad_norm <= eps_d:
                break
            if steps >= sweep_budget:
                raise NonconvergenceError(
                    f"Sinkhorn still at gradient norm {grad_norm:.3g} "
                    f"> {eps_d:.3g} after {steps} sweeps",
                    diagnostics={"gamma": state.gamma, "eps_d": eps_d},
                )
            state.sinkhorn_sweep()
            steps += 1
    return state, steps
