"""Poke at the discounted Bellman system behind each Newton step.

The reduced Newton system has coefficient matrix D(rP)(I - rho * P_rc),
where P_rc transports a row distribution forward through the plan and back.
This script checks its textbook structure numerically: stochasticity,
stationarity, reversibility, the spectrum bounds before and after diagonal
preconditioning, and the forcing test satisfied by the annealed solve.
Each printed identity and bound is asserted, so a wrong number fails the run.
"""

import numpy as np

import otnewton as ot
from otnewton.dual import DualState
from otnewton.newton import DiscountedSystem, newton_solve

n = 64
rng = np.random.default_rng(8)
problem = ot.Problem(
    C=ot.grid_points_cost(n, "l1"),
    r=ot.gen_marginal(n, "smooth-random", seed=8),
    c=ot.gen_marginal(n, "smooth-random", seed=1008),
)
state = DualState(problem, gamma=16.0,
                  u=np.log(problem.r) + 0.3 * rng.standard_normal(n),
                  v=np.log(problem.c) + 0.3 * rng.standard_normal(n))
state.rebalance_columns()
grad_u = state.row_sums() - state.r
# The plan at the state's potentials (the state's anchored plan is scaled to it).
P = state.release_plan()
sys = DiscountedSystem(P, P.sum(axis=1), P.sum(axis=0))

# The round-trip matrix P_rc = D(rP)^-1 P D(cP)^-1 P^T, formed densely.
dense = (sys.P / sys.rP[:, None]) @ (sys.P.T / sys.cP[:, None])


def identity(name, err):
    print(f"{name + ' error:':<26}{err:.2e}")
    assert err < 1e-12, name


identity("row-stochasticity", np.abs(dense @ np.ones(n) - 1).max())
identity("stationarity", np.abs(dense.T @ sys.rP - sys.rP).max())
bal = np.diag(sys.rP) @ dense
identity("reversibility", np.abs(bal - bal.T).max())
# Its spectrum, from the symmetric similar form D(rP)^1/2 P_rc D(rP)^-1/2 = G G^T.
G = sys.P / (np.sqrt(sys.rP)[:, None] * np.sqrt(sys.cP)[None, :])
evals = np.linalg.eigvalsh(G @ G.T)
print(f"second eigenvalue:        {evals[-2]:.6f}")
assert abs(evals[-1] - 1.0) < 1e-12 and 0.0 <= evals[-2] < 1.0

rho = 0.9
F = np.diag(sys.rP) @ (np.eye(n) - rho * dense)
evals = np.linalg.eigvalsh(F)
lo, hi = (1 - rho) * sys.rP.min(), (1 + rho) * sys.rP.max()
print(f"\nF(rho={rho}) spectrum [{evals.min():.3e}, {evals.max():.3e}] inside "
      f"[{lo:.3e}, {hi:.3e}]")
assert lo <= evals.min() and evals.max() <= hi
M = sys.rP * (1.0 - rho * sys.diag_prc())
ev = np.linalg.eigvalsh(F / np.sqrt(M)[:, None] / np.sqrt(M)[None, :])
print(f"preconditioned spectrum   [{ev.min():.4f}, {ev.max():.4f}] around 1")
assert 0.0 < ev.min() <= 1.0 <= ev.max() < 2.0

eta = 0.1
res = newton_solve(grad_u, sys, eta=eta)
resid = np.abs(sys.apply_F(1.0, res.d_u) + grad_u).sum()
print(f"\nannealed solve: discount {res.rho_final:.4f}, {res.cg_iters} CG iterations")
print(f"undiscounted residual {resid:.3e} <= eta * ||grad||_1 = "
      f"{eta * np.abs(grad_u).sum():.3e}")
assert resid <= eta * np.abs(grad_u).sum()
