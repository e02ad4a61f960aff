import math

import numpy as np
import pytest

from otnewton.dual import DualState
from otnewton.errors import ConditioningError, DomainError, RefusalError
from otnewton.oracles import (
    dense_spd_solve,
    exact_ot_small,
    finite_diff_grad,
    sinkhorn_project,
)
from otnewton.oracles import _schedules_for, _tree_count
from otnewton.problems import Problem, gen_marginal, grid_points_cost


class TestTreeEnumeration:
    """The sequence-pair decode must be a bijection onto spanning trees."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_complete_and_distinct(self, n):
        leaf, nb = _schedules_for(n, 0, _tree_count(n))
        assert leaf.shape == (_tree_count(n), 2 * n - 1)
        rows = np.where(leaf < n, leaf, nb)
        cols = np.where(leaf < n, nb, leaf) - n
        eid = np.sort(rows * n + cols, axis=1)
        assert np.unique(eid, axis=0).shape[0] == _tree_count(n)
        # every decoded edge set spans all 2n vertices
        assert (rows.min(axis=1) >= 0).all() and (cols.min(axis=1) >= 0).all()
        for t in range(0, _tree_count(n), max(1, _tree_count(n) // 16)):
            verts = set(rows[t]) | {c + n for c in cols[t]}
            assert len(verts) == 2 * n


class TestExactOtSmall:
    def test_zero_cost_matching(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        r = c = np.array([0.5, 0.5])
        sol = exact_ot_small(C, r, c)
        assert sol.cost == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(sol.P_star, np.diag([0.5, 0.5]), atol=1e-15)

    def test_asymmetric_marginals(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        sol = exact_ot_small(C, np.array([0.7, 0.3]), np.array([0.4, 0.6]))
        assert sol.cost == pytest.approx(0.3, rel=1e-12)

    def test_frozen_lp_fixture(self):
        # seeded instance; expected cost computed once with an LP solver
        rng = np.random.default_rng(12345)
        C = rng.random((3, 3))
        r = rng.dirichlet(np.ones(3))
        c = rng.dirichlet(np.ones(3))
        sol = exact_ot_small(C, r, c)
        assert sol.cost == pytest.approx(0.49308641326299063, rel=1e-10)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_permutation_invariance(self, n):
        rng = np.random.default_rng(n)
        C = rng.random((n, n))
        r = rng.dirichlet(np.ones(n))
        c = rng.dirichlet(np.ones(n))
        base = exact_ot_small(C, r, c)
        pi = rng.permutation(n)
        sigma = rng.permutation(n)
        permuted = exact_ot_small(C[np.ix_(pi, sigma)], r[pi], c[sigma])
        assert permuted.cost == pytest.approx(base.cost, rel=1e-11, abs=1e-13)

    def test_output_is_feasible_vertex(self):
        rng = np.random.default_rng(77)
        C = rng.random((4, 4))
        r = rng.dirichlet(np.ones(4))
        c = rng.dirichlet(np.ones(4))
        sol = exact_ot_small(C, r, c)
        np.testing.assert_allclose(sol.P_star.sum(axis=1), r, atol=1e-12)
        np.testing.assert_allclose(sol.P_star.sum(axis=0), c, atol=1e-12)
        assert sol.P_star.min() >= 0.0
        assert len(sol.basis) == 2 * 4 - 1
        assert sol.basis == sorted(sol.basis)

    def test_lower_bound_against_feasible_plans(self):
        rng = np.random.default_rng(5)
        C = rng.random((4, 4))
        r = rng.dirichlet(np.ones(4))
        c = rng.dirichlet(np.ones(4))
        sol = exact_ot_small(C, r, c)
        for _ in range(20):
            # random feasible plans via rounding of random positives
            from otnewton.driver import round_plan
            P = round_plan(np.outer(r, c) * rng.uniform(0.5, 2.0, (4, 4)), r, c)
            assert (P * C).sum() >= sol.cost - 1e-12

    def test_guards(self):
        with pytest.raises(RefusalError):
            exact_ot_small(np.zeros((7, 7)), np.full(7, 1 / 7), np.full(7, 1 / 7))
        with pytest.raises(DomainError):
            exact_ot_small(np.zeros((2, 2)), np.array([0.6, 0.5]), np.array([0.5, 0.5]))


class TestDenseSpdSolve:
    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(dense_spd_solve(np.eye(3), b), b, atol=1e-14)

    def test_diagonal(self):
        d = np.array([0.5, 2.0, 4.0])
        b = np.array([1.0, 1.0, 1.0])
        np.testing.assert_allclose(dense_spd_solve(np.diag(d), b), b / d, rtol=1e-14)

    def test_random_spd_residual(self):
        rng = np.random.default_rng(8)
        G = rng.standard_normal((32, 32))
        A = G @ G.T + 32 * np.eye(32)
        b = rng.standard_normal(32)
        x = dense_spd_solve(A, b)
        assert np.abs(A @ x - b).max() <= 1e-10 * np.abs(b).max()

    def test_asymmetric_rejected(self):
        A = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(DomainError):
            dense_spd_solve(A, np.ones(2))

    def test_indefinite_rejected(self):
        A = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(ConditioningError):
            dense_spd_solve(A, np.ones(2))


def make_state(n, seed=0, gamma=4.0, zero_cost=False, spread=0.5):
    C = np.zeros((n, n)) if zero_cost else grid_points_cost(n, "l1")
    r = gen_marginal(n, "smooth-random", seed)
    c = gen_marginal(n, "smooth-random", seed + 100)
    prob = Problem(C=C, r=r, c=c)
    rng = np.random.default_rng(seed + 5)
    return DualState(prob, gamma,
                     u=np.log(r) + spread * rng.standard_normal(n),
                     v=np.log(c) + spread * rng.standard_normal(n))


class TestSinkhornProject:
    def test_zero_cost_single_sweep(self):
        state = make_state(6, seed=1, zero_cost=True, spread=1.0)
        _, steps = sinkhorn_project(state, state.r, state.c, 1e-10)
        assert steps == 1

    def test_row_scaling_exactness(self):
        state = make_state(6, seed=2)
        state.scale_rows_to_target()
        np.testing.assert_allclose(state.row_sums(), state.r, rtol=1e-12)

    def test_fixed_point_matches_closed_form(self):
        prob = Problem(C=np.array([[0.0, 1.0], [1.0, 0.0]]),
                       r=np.array([0.5, 0.5]), c=np.array([0.5, 0.5]))
        state = DualState(prob, 4.0, u=np.log(prob.r), v=np.log(prob.c))
        sinkhorn_project(state, prob.r, prob.c, 1e-13)
        P = state.materialize_plan()
        expected_off = 0.5 * math.exp(-4.0) / (1.0 + math.exp(-4.0))
        assert P[0, 1] == pytest.approx(expected_off, abs=1e-10)
        assert P[1, 0] == pytest.approx(expected_off, abs=1e-10)

    def test_budget_error(self):
        from otnewton.errors import NonconvergenceError
        state = make_state(9, seed=3, gamma=64.0, spread=1.0)
        with pytest.raises(NonconvergenceError):
            sinkhorn_project(state, state.r, state.c, 1e-12, sweep_budget=1)


class TestFiniteDiffGrad:
    def test_zero_at_independence_optimum(self):
        state = make_state(5, seed=4, zero_cost=True)
        state.set_potentials(np.log(state.problem.r), np.log(state.problem.c))
        fu, fv = finite_diff_grad(state, h=1e-5)
        assert np.abs(fu).max() <= 1e-8
        assert np.abs(fv).max() <= 1e-8

    def test_matches_analytic(self):
        state = make_state(8, seed=5)
        gu, gv = state.gradient()
        fu, fv = finite_diff_grad(state, h=1e-5)
        scale = max(np.abs(gu).max(), np.abs(gv).max())
        np.testing.assert_allclose(fu, gu, atol=1e-6 * scale)
        np.testing.assert_allclose(fv, gv, atol=1e-6 * scale)

    def test_gauge_direction_is_flat(self):
        state = make_state(6, seed=6)
        base = state.dual_value()
        for s in (-1.0, -0.25, 0.5, 1.0):
            probe = DualState(state.problem, state.gamma,
                              u=state.u + s, v=state.v - s)
            assert abs(probe.dual_value() - base) <= 1e-12

    def test_step_size_validation(self):
        state = make_state(3, seed=7)
        with pytest.raises(DomainError):
            finite_diff_grad(state, h=1e-2)
