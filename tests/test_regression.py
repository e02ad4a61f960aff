"""Results pinned across commits.

The values below are the same at one and two BLAS threads: at n = 64 and
n = 289 every product and dot has a fixed reduction order.  The pins at
n = 64 never anchor sparse; the n = 289 l2sq grid anchors in compressed
sparse rows from 2^12 on, so its pin covers the sparse path.  A change
that moves an op count or an iteration count is a change in results and
must say so; the primal cost is pinned to 1e-14 relative, so a last-bit
change in the rounding step does not fail the test.
"""

import math

import numpy as np
import pytest

import otnewton as ot
from otnewton import dual
from otnewton._kernels import SparsePlan


def l1_grid():
    return ot.Problem(C=ot.grid_points_cost(64, "l1"),
                      r=ot.gen_marginal(64, "smooth-random", 0),
                      c=ot.gen_marginal(64, "smooth-random", 1))


def l2sq_grid():
    return ot.Problem(C=ot.grid_points_cost(289, "l2sq"),
                      r=ot.gen_marginal(289, "smooth-random", 0),
                      c=ot.gen_marginal(289, "smooth-random", 1))


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
        {"mirror_descent": 113, "chi_sinkhorn": 10, "newton_solve": 1268, "total": 1391},
        0.16362403999542896,
        [(3, 15, 5, 0), (4, 74, 0, 0), (2, 29, 0, 0), (1, 11, 0, 0), (1, 48, 0, 0),
         (2, 64, 0, 0), (1, 13, 0, 0), (2, 83, 0, 0), (1, 17, 0, 0), (2, 82, 0, 0),
         (1, 27, 0, 0), (1, 14, 0, 0), (1, 44, 0, 0)],
    ),
    "uniform-nonsymmetric": (
        uniform_nonsymmetric, 2.0 ** 14, "newton",
        {"mirror_descent": 121, "chi_sinkhorn": 2, "newton_solve": 3664, "line_search": 1,
         "total": 3788},
        0.0366378491356603,
        [(2, 3, 1, 0), (2, 8, 0, 0), (2, 15, 0, 0), (3, 31, 0, 0), (3, 64, 0, 0),
         (3, 83, 0, 0), (4, 222, 0, 1), (2, 160, 0, 0), (3, 274, 0, 0), (4, 383, 0, 0),
         (2, 198, 0, 0), (1, 32, 0, 0), (1, 39, 0, 0), (2, 141, 0, 0)],
    ),
    "l2sq-grid-sparse": (
        l2sq_grid, 2.0 ** 16, "newton",
        {"mirror_descent": 124, "chi_sinkhorn": 4, "newton_solve": 2226, "line_search": 1,
         "total": 2355},
        0.047326536890326246,
        [(2, 3, 2, 0), (2, 8, 0, 0), (1, 11, 0, 0), (2, 7, 0, 0), (2, 24, 0, 0),
         (2, 91, 0, 0), (3, 116, 0, 0), (4, 261, 0, 1), (3, 246, 0, 0), (1, 33, 0, 0),
         (1, 29, 0, 0), (1, 48, 0, 0), (1, 75, 0, 0), (1, 27, 0, 0)],
    ),
    "l1-grid-sinkhorn": (
        l1_grid, 2.0 ** 8, "sinkhorn",
        {"mirror_descent": 9, "sinkhorn": 1526, "total": 1535},
        0.16378771263214142,
        [(0, 0, 33, 0), (0, 0, 219, 0), (0, 0, 291, 0), (0, 0, 206, 0)],
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_results(name):
    make, gamma_f, projector, ops, primal, per_iter = PINNED[name]
    sol = ot.mdot(make(), 2.0 ** 5, gamma_f, opts=ot.MdotOptions(projector=projector))
    assert sol.report.ops == ops
    assert sol.report.outer_iterations == len(per_iter)
    got = [(it.stats.newton_steps, it.stats.cg_iters, it.stats.sinkhorn_steps,
            it.stats.backtracks) for it in sol.iterations]
    assert got == per_iter
    assert sol.primal_cost == pytest.approx(primal, rel=1e-14, abs=0.0)


@pytest.fixture(scope="module")
def l2sq_plans():
    """(log2 gamma, sparse, density) of every plan the l2sq pin's solve
    materializes, and the solve's temperatures."""
    plans = []
    materialize = dual.materialize_plan

    def spy(C, gamma, *args, **kwargs):
        plan, v, nnz = materialize(C, gamma, *args, **kwargs)
        plans.append((math.log2(gamma), isinstance(plan, SparsePlan), nnz / C.size))
        return plan, v, nnz

    with pytest.MonkeyPatch.context() as m:
        m.setattr(dual, "materialize_plan", spy)
        sol = ot.mdot(l2sq_grid(), 2.0 ** 5, 2.0 ** 16)
    return plans, [math.log2(it.gamma) for it in sol.iterations]


def test_l2sq_pin_anchors_sparse(l2sq_plans):
    # Every anchor from 2^12 on is CSR, at densities 0.077 down to 0.013.
    sparse = [(g, d) for g, is_sparse, d in l2sq_plans[0] if is_sparse]
    assert [g for g, _ in sparse] == [12.0, 12.5, 12.75, 13.25, 14.25, 15.25, 16.0]
    assert [round(d, 3) for _, d in sparse] == [0.077, 0.06, 0.045, 0.032, 0.013, 0.013, 0.013]


def test_l2sq_pin_anchors_once_per_temperature(l2sq_plans):
    # No anchor churns: one plan per temperature, the entry rebalance's
    # anchor, and the final plan, materialized at the last temperature.
    plans, temperatures = l2sq_plans
    assert [g for g, _, _ in plans] == temperatures + temperatures[-1:]
