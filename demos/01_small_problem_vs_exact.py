"""Solve a small problem and compare against the exact LP oracle.

Up to n = 256 the HiGHS transportation LP gives the exact optimum, so we can
measure the true optimality gap of the annealed solver and watch it shrink as
the final inverse temperature grows.
"""

import numpy as np

import otnewton as ot

n = 4
C = ot.grid_points_cost(n, "l1")
r = ot.gen_marginal(n, "smooth-random", seed=7)
c = ot.gen_marginal(n, "smooth-random", seed=1007)
problem = ot.Problem(C=C, r=r, c=c, label="demo-4pt")

exact = ot.exact_ot_small(C, r, c)
print(f"exact optimum: {exact.cost:.12f}")
print(f"optimal support: {np.argwhere(exact.P_star > 0).tolist()}")

print(f"\n{'gamma_f':>10} {'rounded cost':>16} {'true gap':>12} {'guarantee':>12}")
for k in (6, 8, 10, 12, 14, 16):
    sol = ot.mdot(problem, gamma_i=2.0 ** 5, gamma_f=2.0 ** k)
    gap = sol.primal_cost - exact.cost
    print(f"{2 ** k:>10} {sol.primal_cost:>16.12f} {gap:>12.3e} {sol.error_bound:>12.3e}")

print("\nThe measured gap always sits below the guarantee 2 min(H(r), H(c)) / gamma_f.")
