"""Dense, log-sum-exp and finite-difference references the tests check the
solver against."""

import numpy as np
from scipy.special import logsumexp

from otnewton._kernels import materialize_plan
from otnewton.dual import DualState


def plan_at(state):
    """The plan at the state's potentials in a fresh array, entries below
    e^-700 set to 0."""
    return materialize_plan(state.problem.C, state.gamma, state.u, state.v)[0]


def log_plan(C, gamma, u, v):
    """The log plan at (u, v), untiled, rounded as the kernels round it:
    ``(-gamma C + u 1^T) + 1 v^T``."""
    return (-gamma * C + u[:, None]) + v[None, :]


def long_double_sums(C, gamma, u, v):
    """Log row and column sums of the plan at (u, v), in np.longdouble."""
    ld = np.longdouble
    E = np.exp(u.astype(ld)[:, None] + v.astype(ld)[None, :] - ld(gamma) * C.astype(ld))
    return np.log(E.sum(axis=1)), np.log(E.sum(axis=0))


def assert_no_less_accurate_than_lse(C, gamma, u, v, rows=None, cols=None):
    """The log row and column sums ``rows`` and ``cols`` (either may be None)
    of the plan at (u, v) meet ``TestAnchoredPlanSums``' criterion: over
    all of them, their largest and median errors against long double do not
    exceed those of scipy's log-sum-exp, each side's potential kept outside
    it (``u + logsumexp(1 v^T - gamma C)`` over rows, columns alike), up to
    two ulps and one ulp of the log sums."""
    ref_rows, ref_cols = long_double_sums(C, gamma, u, v)
    K = -gamma * C
    got, err, lse_err = [], [], []
    for sums, ref, x, y, axis in ((rows, ref_rows, u, v[None, :], 1),
                                  (cols, ref_cols, v, u[:, None], 0)):
        if sums is not None:
            got.append(sums)
            err.append(np.abs(sums - ref).astype(float))
            lse_err.append(np.abs(x + logsumexp(K + y, axis=axis) - ref).astype(float))
    err, lse_err = np.concatenate(err), np.concatenate(lse_err)
    ulp = np.spacing(np.abs(np.concatenate(got)).max())
    assert err.max() <= lse_err.max() + 2.0 * ulp
    assert np.median(err) <= np.median(lse_err) + ulp


def dense_plan(sys):
    """The plan a system applies, D(e^a) P0 D(e^b), from its anchored plan
    ``sys.P`` and the scalings it keeps (``_pc_scale`` is e^b / cP)."""
    e_a = np.broadcast_to(sys._e_a, (sys.n,))
    return e_a[:, None] * sys.P * (sys._pc_scale * sys.cP)[None, :]


def dense_prc(sys):
    """The round-trip matrix P_rc = D(rP)^-1 P D(cP)^-1 P^T of a system."""
    P = dense_plan(sys)
    return (P / sys.rP[:, None]) @ (P.T / sys.cP[:, None])


def dense_F(sys, rho):
    """The coefficient matrix F(rho) = D(rP) (I - rho P_rc) of a system."""
    return np.diag(sys.rP) @ (np.eye(sys.n) - rho * dense_prc(sys))


def finite_diff_grad(state, h=1e-6):
    """Central-difference gradient of the dual objective, one coordinate at a time."""
    n = state.n

    def value(u, v):
        probe = DualState(state.problem, state.gamma, u=u, v=v, r=state.r, c=state.c)
        return probe.dual_value()

    gu = np.empty(n)
    gv = np.empty(n)
    for i in range(n):
        up, um = state.u.copy(), state.u.copy()
        up[i] += h
        um[i] -= h
        gu[i] = (value(up, state.v) - value(um, state.v)) / (2.0 * h)
        vp, vm = state.v.copy(), state.v.copy()
        vp[i] += h
        vm[i] -= h
        gv[i] = (value(state.u, vp) - value(state.u, vm)) / (2.0 * h)
    return gu, gv
