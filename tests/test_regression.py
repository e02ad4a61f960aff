"""Results pinned across commits.

The values below were recorded with ``OTN_DETERMINISTIC=1`` (fixed-order
matrix-vector products, so BLAS threading cannot change them).  A change that
moves an op count or an iteration count is a change in results and must say
so; the primal cost is pinned to 1e-14 relative, so a last-bit change in the
rounding step does not fail the test.
"""

import numpy as np
import pytest

import otnewton as ot


def l1_grid():
    return ot.Problem(C=ot.grid_points_cost(64, "l1"),
                      r=ot.gen_marginal(64, "smooth-random", 0),
                      c=ot.gen_marginal(64, "smooth-random", 1))


def uniform_nonsymmetric():
    C = np.random.default_rng(7).uniform(size=(64, 64))
    C /= C.max()
    return ot.Problem(C=C, r=ot.gen_marginal(64, "spiky-random", 2),
                      c=ot.gen_marginal(64, "smooth-random", 3))


# (problem, gamma_f, projector, ops, primal, per outer iteration:
#  (newton_steps, cg_iters, sinkhorn_steps, backtracks)); gamma_i = 2^5.
PINNED = {
    "l1-grid": (
        l1_grid, 2.0 ** 14, "newton",
        {"mirror_descent": 112, "chi_sinkhorn": 10, "newton_solve": 1268, "total": 1390},
        0.16362403999542485,
        [(3, 15, 5, 0), (4, 74, 0, 0), (2, 29, 0, 0), (1, 11, 0, 0), (1, 48, 0, 0),
         (2, 64, 0, 0), (1, 13, 0, 0), (2, 83, 0, 0), (1, 17, 0, 0), (2, 82, 0, 0),
         (1, 27, 0, 0), (1, 14, 0, 0), (1, 44, 0, 0)],
    ),
    "uniform-nonsymmetric": (
        uniform_nonsymmetric, 2.0 ** 14, "newton",
        {"mirror_descent": 120, "chi_sinkhorn": 2, "newton_solve": 3664, "line_search": 1,
         "total": 3787},
        0.036637849135661954,
        [(2, 3, 1, 0), (2, 8, 0, 0), (2, 15, 0, 0), (3, 31, 0, 0), (3, 64, 0, 0),
         (3, 83, 0, 0), (4, 222, 0, 1), (2, 160, 0, 0), (3, 274, 0, 0), (4, 383, 0, 0),
         (2, 198, 0, 0), (1, 32, 0, 0), (1, 39, 0, 0), (2, 141, 0, 0)],
    ),
    "l1-grid-sinkhorn": (
        l1_grid, 2.0 ** 8, "sinkhorn",
        {"mirror_descent": 8, "sinkhorn": 1526, "total": 1534},
        0.16378771263214142,
        [(0, 0, 33, 0), (0, 0, 219, 0), (0, 0, 291, 0), (0, 0, 206, 0)],
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_results(name, monkeypatch):
    make, gamma_f, projector, ops, primal, per_iter = PINNED[name]
    monkeypatch.setenv("OTN_DETERMINISTIC", "1")
    sol = ot.mdot(make(), 2.0 ** 5, gamma_f, opts=ot.MdotOptions(projector=projector))
    assert sol.report.ops == ops
    assert sol.report.outer_iterations == len(per_iter)
    got = [(it.stats.newton_steps, it.stats.cg_iters, it.stats.sinkhorn_steps,
            it.stats.backtracks) for it in sol.iterations]
    assert got == per_iter
    assert sol.primal_cost == pytest.approx(primal, rel=1e-14, abs=0.0)
