import math

import numpy as np
import pytest

from otnewton.dual import DualState
from otnewton.errors import PlanOverflowError
from otnewton.oracles import finite_diff_grad
from otnewton.problems import Problem, gen_marginal, grid_points_cost


def make_problem(n, seed=0, zero_cost=False):
    if zero_cost:
        C = np.zeros((n, n))
    else:
        C = grid_points_cost(n, "l1") if n > 1 else np.zeros((1, 1))
    r = gen_marginal(n, "smooth-random", seed)
    c = gen_marginal(n, "spiky-random", seed + 100)
    return Problem(C=C, r=r, c=c, label=f"n{n}")


def random_state(n, seed=0, gamma=4.0, spread=0.5):
    prob = make_problem(n, seed)
    rng = np.random.default_rng(seed + 1)
    return DualState(prob, gamma,
                     u=np.log(prob.r) + spread * rng.standard_normal(n),
                     v=np.log(prob.c) + spread * rng.standard_normal(n))


class TestRowSums:
    def test_independence_coupling(self):
        prob = make_problem(5, zero_cost=True)
        state = DualState(prob, 1.0, u=np.log(prob.r), v=np.log(prob.c))
        np.testing.assert_allclose(state.log_rP, np.log(prob.r), rtol=0, atol=1e-14)
        np.testing.assert_allclose(state.log_cP, np.log(prob.c), rtol=0, atol=1e-14)

    def test_one_by_one(self):
        prob = Problem(C=np.array([[0.7]]), r=np.array([1.0]), c=np.array([1.0]))
        state = DualState(prob, 3.0, u=np.array([0.2]), v=np.array([-0.1]))
        assert state.log_rP[0] == pytest.approx(0.2 - 0.1 - 3.0 * 0.7, rel=1e-15)

    def test_matches_dense_row_sums(self):
        state = random_state(3, seed=5)
        P = np.exp(state.u[:, None] + state.v[None, :] - state.gamma * state.problem.C)
        np.testing.assert_allclose(np.exp(state.log_rP), P.sum(axis=1), rtol=1e-12)
        np.testing.assert_allclose(np.exp(state.log_cP), P.sum(axis=0), rtol=1e-12)

    def test_mass_consistency(self):
        state = random_state(8, seed=2)
        total_r = np.exp(state.log_rP).sum()
        total_c = np.exp(state.log_cP).sum()
        assert total_r == pytest.approx(total_c, rel=1e-12)

    def test_cache_invalidation_on_write(self):
        state = random_state(4)
        state.refresh()
        assert state.cache_valid
        state.set_potentials(state.u + 0.1, state.v)
        assert not state.cache_valid
        state.refresh()
        assert state.cache_valid
        state.set_gamma(5.0)
        assert not state.cache_valid

    @pytest.mark.parametrize("name", ["u", "v", "gamma"])
    def test_direct_assignment_rejected(self, name):
        state = random_state(4)
        with pytest.raises(AttributeError):
            setattr(state, name, getattr(state, name))

    def test_set_potentials_copies(self):
        state = random_state(4)
        u = state.u + 0.1
        state.set_potentials(u, state.v)
        u[0] = 100.0
        assert state.u[0] != 100.0

    def test_set_gamma_rejects_nonpositive(self):
        from otnewton.errors import DomainError
        state = random_state(4)
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(DomainError):
                state.set_gamma(bad)


class TestGradient:
    def test_zero_at_independence(self):
        prob = make_problem(4, zero_cost=True)
        state = DualState(prob, 1.0, u=np.log(prob.r), v=np.log(prob.c))
        gu, gv = state.gradient()
        np.testing.assert_allclose(gu, 0, atol=1e-15)
        np.testing.assert_allclose(gv, 0, atol=1e-15)

    def test_column_rebalance_zeroes_gv(self):
        state = random_state(6, seed=3)
        state.rebalance_columns()
        _, gv = state.gradient()
        assert np.abs(gv).sum() <= 1e-12

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_matches_finite_differences(self, n):
        state = random_state(n, seed=n)
        gu, gv = state.gradient()
        fu, fv = finite_diff_grad(state, h=1e-5)
        scale = max(np.abs(gu).max(), np.abs(gv).max(), 1e-3)
        np.testing.assert_allclose(gu, fu, rtol=0, atol=1e-6 * scale)
        np.testing.assert_allclose(gv, fv, rtol=0, atol=1e-6 * scale)


class TestDualValue:
    def test_independence_value_is_entropy_sum(self):
        prob = make_problem(5, zero_cost=True)
        state = DualState(prob, 1.0, u=np.log(prob.r), v=np.log(prob.c))
        from otnewton.core import shannon_entropy
        expected = shannon_entropy(prob.r) + shannon_entropy(prob.c)
        assert state.dual_value() == pytest.approx(expected, rel=1e-12)

    def test_gauge_shift_leaves_value_unchanged(self):
        state = random_state(6, seed=9)
        base = state.dual_value()
        for s in (-10.0, -1.0, 0.5, 10.0):
            shifted = DualState(state.problem, state.gamma,
                                u=state.u + s, v=state.v - s)
            assert shifted.dual_value() == pytest.approx(base, rel=1e-12, abs=1e-12)

    def test_stationary_at_projected_optimum(self):
        # drive a state to (near) optimality, then finite differences vanish
        from otnewton.oracles import sinkhorn_project
        state = random_state(4, seed=13, gamma=2.0)
        sinkhorn_project(state, state.problem.r, state.problem.c, 1e-13)
        fu, fv = finite_diff_grad(state, h=1e-5)
        assert np.abs(fu).max() < 1e-8
        assert np.abs(fv).max() < 1e-8


class TestMaterialize:
    def test_independence_product(self):
        prob = make_problem(4, zero_cost=True)
        state = DualState(prob, 1.0, u=np.log(prob.r), v=np.log(prob.c))
        np.testing.assert_allclose(state.materialize_plan(),
                                   np.outer(prob.r, prob.c), rtol=1e-14)

    def test_trivial_scalar(self):
        prob = Problem(C=np.array([[0.0]]), r=np.array([1.0]), c=np.array([1.0]))
        state = DualState(prob, 2.0, u=np.zeros(1), v=np.zeros(1))
        np.testing.assert_array_equal(state.materialize_plan(), [[1.0]])

    def test_row_sums_match_cache(self):
        state = random_state(16, seed=21)
        P = state.materialize_plan()
        np.testing.assert_allclose(P.sum(axis=1), np.exp(state.log_rP), rtol=1e-12)

    def test_gauge_invariance_of_plan(self):
        state = random_state(5, seed=30)
        P = state.materialize_plan()
        for s in (-10.0, 10.0):
            other = DualState(state.problem, state.gamma, u=state.u + s, v=state.v - s)
            np.testing.assert_allclose(other.materialize_plan(), P, rtol=1e-12)

    def test_overflow_rejected(self):
        state = random_state(3)
        state.set_potentials(state.u + 800.0, state.v)
        with pytest.raises(PlanOverflowError):
            state.materialize_plan()


class TestTrialColSums:
    def test_matches_direct_evaluation(self):
        state = random_state(6, seed=4)
        rng = np.random.default_rng(0)
        d_u = rng.standard_normal(6)
        d_v = rng.standard_normal(6)
        got = state.trial_log_col_sums(d_u, d_v, 0.3)
        probe = DualState(state.problem, state.gamma,
                          u=state.u + 0.3 * d_u, v=state.v + 0.3 * d_v)
        np.testing.assert_allclose(got, probe.log_cP, rtol=0, atol=1e-13)


class TestBlockedKernels:
    """The tiled internal kernels agree with the reference reductions."""

    def test_row_sums_match_reference(self):
        from otnewton._kernels import BLOCK, log_plan_row_sums
        from otnewton.core import lse_rows
        rng = np.random.default_rng(9)
        n = BLOCK + 17  # force a partial tail block
        K = rng.normal(size=(n, n)) * 10
        u = rng.normal(size=n)
        v = rng.normal(size=n)
        np.testing.assert_array_equal(log_plan_row_sums(K, u, v),
                                      u + lse_rows(K + v[None, :]))

    def test_square_matvec_matches_reference(self):
        from otnewton._kernels import BLOCK, square_matvec
        rng = np.random.default_rng(10)
        n = BLOCK + 3
        P = rng.random((n, n))
        w = rng.random(n)
        np.testing.assert_allclose(square_matvec(P, w), (P * P) @ w, rtol=1e-13)

    def test_materialize_matches_reference(self):
        from otnewton._kernels import materialize_plan
        rng = np.random.default_rng(11)
        K = rng.normal(size=(7, 7))
        u = rng.normal(size=7)
        v = rng.normal(size=7)
        ref = np.exp(u[:, None] + v[None, :] + K)
        np.testing.assert_allclose(materialize_plan(K, u, v), ref, rtol=1e-15)
