"""Dense and finite-difference references the tests check the solver against."""

import numpy as np

from otnewton.dual import DualState


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
