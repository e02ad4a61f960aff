"""Race the truncated Newton projector against Sinkhorn scaling.

Both solve the same dual problem at a single low temperature.  Sinkhorn
pays one matrix pass per digit of accuracy per mixing time; the Newton
projector spends its passes inside conjugate gradient where each iteration
compounds, so its advantage grows with the target precision.  Sinkhorn
here is the stabilized baseline: each sweep's sums come from a plan
anchored at the column maxima, 2 passes a sweep while the anchor covers the
potentials, and both solvers are priced by the passes they make.
"""

import numpy as np

import otnewton as ot
from otnewton import opcount
from otnewton.driver import eps_rule, smooth_marginals
from otnewton.dual import DualState
from otnewton.errors import NonconvergenceError
from otnewton.oracles import sinkhorn_project

n = 1024
gamma_f = 2.0 ** 12
problem = ot.Problem(
    C=ot.grid_points_cost(n, "l2sq"),
    r=ot.gen_marginal(n, "smooth-random", seed=3),
    c=ot.gen_marginal(n, "smooth-random", seed=1003),
    label="demo-race",
)

opcount.reset()
sol = ot.mdot(problem, gamma_i=2.0 ** 5, gamma_f=gamma_f, p=1.5, q_init=2.0)
ops_newton = sol.report.ops["total"]
print(f"annealed Newton: {ops_newton} matrix passes, "
      f"cost {sol.primal_cost:.9f}, gradient norm {sol.report.grad_norm_final:.2e}")

# Single-temperature Sinkhorn at the same final tolerance, with as many sweeps
# as 20x the Newton solver's passes pay for at 2 passes a sweep, the fewest a
# sweep makes.
eps_d = eps_rule(gamma_f, 1.5, problem.r, problem.c)
r_s, c_s = smooth_marginals(problem.r, problem.c, eps_d)
state = DualState(problem, gamma_f, u=np.log(r_s), v=np.log(c_s))
opcount.reset()
budget = 20 * ops_newton // 2
try:
    _, sweeps = sinkhorn_project(state, r_s, c_s, eps_d / 2.0, sweep_budget=budget)
    outcome = f"converged after {sweeps} sweeps"
except NonconvergenceError:
    outcome = (f"still at gradient norm {state.grad_norm_l1():.2e} "
               f"(target {eps_d / 2:.2e}) after {budget} sweeps")
print(f"Sinkhorn: {outcome}, {opcount.total()} matrix passes "
      f"({opcount.total() / ops_newton:.1f}x the Newton solver's)")
