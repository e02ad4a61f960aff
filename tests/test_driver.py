import math

import numpy as np
import pytest

from otnewton.core import shannon_entropy
from otnewton.driver import (
    MdotOptions,
    RunReport,
    adjust_schedule,
    eps_rule,
    error_bound,
    extrapolate,
    mdot,
    round_plan,
    smooth_marginals,
)
from otnewton.errors import DegenerateInputError, DomainError
from otnewton.problems import Problem, gen_marginal, grid_points_cost


def fixture_problem():
    return Problem(C=np.array([[0.0, 1.0], [1.0, 0.0]]),
                   r=np.array([0.5, 0.5]), c=np.array([0.5, 0.5]), label="sym2")


def grid_problem(n, seed=0, metric="l1"):
    return Problem(C=grid_points_cost(n, metric),
                   r=gen_marginal(n, "smooth-random", seed),
                   c=gen_marginal(n, "smooth-random", seed + 1000),
                   label=f"grid-{n}-{seed}")


class TestEpsRule:
    def test_uniform_two(self):
        u = np.array([0.5, 0.5])
        assert eps_rule(4.0, 1.5, u, u) == pytest.approx(math.log(2) / 8.0)

    def test_unit_gamma_unit_p(self):
        r = np.array([0.3, 0.7])
        c = np.array([0.5, 0.5])
        assert eps_rule(1.0, 1.0, r, c) == pytest.approx(shannon_entropy(r))

    def test_uniform_4096(self):
        u = np.full(4096, 1.0 / 4096)
        assert eps_rule(2.0 ** 5, 1.5, u, u) == pytest.approx(0.045949, rel=1e-4)


class TestSmoothMarginals:
    def test_point_mass_example(self):
        r, _ = smooth_marginals(np.array([1.0, 0.0]), np.array([0.5, 0.5]),
                                0.1, w_r=0.45, w_c=0.05)
        np.testing.assert_allclose(r, [0.9775, 0.0225], rtol=1e-14)

    def test_vanishing_budget_is_identity(self):
        r = np.array([0.3, 0.7])
        c = np.array([0.2, 0.8])
        r_s, c_s = smooth_marginals(r, c, 1e-15)
        np.testing.assert_allclose(r_s, r, atol=1e-14)
        np.testing.assert_allclose(c_s, c, atol=1e-14)

    def test_outputs_on_simplex_with_floor(self):
        rng = np.random.default_rng(3)
        r = rng.dirichlet(np.ones(16))
        c = rng.dirichlet(np.ones(16))
        eps = 0.01
        r_s, c_s = smooth_marginals(r, c, eps)
        assert r_s.sum() == pytest.approx(1.0, abs=1e-14)
        assert c_s.sum() == pytest.approx(1.0, abs=1e-14)
        assert r_s.min() >= 0.45 * eps / 16
        assert c_s.min() >= 0.05 * eps / 16

    def test_default_weights(self):
        import inspect
        sig = inspect.signature(smooth_marginals)
        assert sig.parameters["w_r"].default == 0.45
        assert sig.parameters["w_c"].default == 0.05

    def test_weight_validation(self):
        r = np.array([0.5, 0.5])
        with pytest.raises(DomainError):
            smooth_marginals(r, r, 0.1, w_r=0.3, w_c=0.3)
        with pytest.raises(DomainError):
            smooth_marginals(r, r, 0.1, w_r=0.05, w_c=0.45)


class TestAdjustSchedule:
    def test_grow_capped_at_two(self):
        assert adjust_schedule(2.0, 0.97) == 2.0

    def test_shrink_is_square_root(self):
        assert adjust_schedule(2.0, 0.5) == pytest.approx(math.sqrt(2.0))

    def test_hold_in_band(self):
        assert adjust_schedule(1.3, 0.85) == 1.3

    def test_infinite_delta_grows(self):
        assert adjust_schedule(1.2, math.inf) == pytest.approx(1.44)

    def test_stays_in_range_under_any_sequence(self):
        rng = np.random.default_rng(11)
        q = 1.0 + rng.uniform(0.0, 1.0)
        for _ in range(200):
            q = adjust_schedule(q, rng.uniform(0.0, 1.2))
            assert 1.0 < q <= 2.0

    def test_shrink_floor_prevents_schedule_freeze(self):
        q = 1.0 + 1e-15
        for _ in range(10):
            q = adjust_schedule(q, 0.0)
        assert q > 1.000001


class TestExtrapolate:
    def test_zero_gap_returns_current(self):
        z = np.array([1.0, -2.0])
        zp = np.array([0.0, 0.0])
        np.testing.assert_array_equal(extrapolate(z, zp, 4.0, 4.0, 2.0), z)

    def test_linear_step(self):
        got = extrapolate(np.array([1.0]), np.array([0.0]), 8.0, 4.0, 2.0)
        np.testing.assert_allclose(got, [3.0])

    def test_constant_iterates_stay_constant(self):
        z = np.array([0.7, 0.1])
        np.testing.assert_array_equal(extrapolate(z, z, 16.0, 4.0, 1.0), z)

    def test_equal_gammas_rejected(self):
        with pytest.raises(DomainError):
            extrapolate(np.zeros(2), np.zeros(2), 8.0, 4.0, 4.0)


class TestRoundPlan:
    def test_feasible_plan_unchanged(self):
        P = np.array([[0.25, 0.25], [0.25, 0.25]])
        r = c = np.array([0.5, 0.5])
        np.testing.assert_allclose(round_plan(P, r, c), P, atol=1e-15)

    def test_hand_example(self):
        P = np.array([[0.3, 0.3], [0.2, 0.2]])
        r = c = np.array([0.5, 0.5])
        np.testing.assert_allclose(round_plan(P, r, c),
                                   np.full((2, 2), 0.25), atol=1e-15)

    def test_output_feasible_and_close(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            r = rng.dirichlet(np.ones(8))
            c = rng.dirichlet(np.ones(8))
            P = np.outer(r, c)
            P_pert = P * (1.0 + 0.01 * rng.standard_normal(P.shape))
            P_pert = np.maximum(P_pert, 0.0)
            rounded = round_plan(P_pert, r, c)
            np.testing.assert_allclose(rounded.sum(axis=1), r, atol=1e-12)
            np.testing.assert_allclose(rounded.sum(axis=0), c, atol=1e-12)
            assert rounded.min() >= 0.0
            moved = np.abs(rounded - P_pert).sum()
            budget = 2.0 * (np.abs(P_pert.sum(axis=1) - r).sum()
                            + np.abs(P_pert.sum(axis=0) - c).sum())
            assert moved <= budget + 1e-12

    def test_zero_mass_rejected(self):
        with pytest.raises(DegenerateInputError):
            round_plan(np.zeros((2, 2)), np.array([0.5, 0.5]), np.array([0.5, 0.5]))


class TestErrorBound:
    def test_uniform_4096(self):
        u = np.full(4096, 1.0 / 4096)
        assert error_bound(2.0 ** 18, u, u) == pytest.approx(6.3459e-5, rel=1e-4)

    def test_one_hot_is_zero(self):
        h = np.array([1.0, 0.0])
        u = np.array([0.5, 0.5])
        assert error_bound(2.0, h, u) == 0.0

    def test_uniform_two(self):
        u = np.array([0.5, 0.5])
        assert error_bound(2.0, u, u) == pytest.approx(math.log(2))


class TestMdot:
    def test_symmetric_fixture_reaches_exact_optimum(self):
        sol = mdot(fixture_problem(), 2.0 ** 5, 2.0 ** 14, p=1.5, q_init=2.0)
        # the exact optimum is 0; the rounded cost obeys the guarantee
        assert 0.0 <= sol.primal_cost <= sol.error_bound
        assert sol.error_bound == pytest.approx(2 * math.log(2) / 2.0 ** 14)

    def test_single_temperature_collapse(self):
        sol = mdot(grid_problem(16, seed=1), 64.0, 64.0)
        assert sol.report.outer_iterations == 1

    def test_gamma_i_above_gamma_f_collapses(self):
        sol = mdot(grid_problem(16, seed=2), 512.0, 64.0)
        assert sol.report.outer_iterations == 1

    def test_signature_defaults(self):
        import inspect
        sig = inspect.signature(mdot)
        assert sig.parameters["p"].default == 1.5
        assert sig.parameters["q_init"].default == 2.0

    def test_rounded_output_feasible(self):
        prob = grid_problem(25, seed=3)
        sol = mdot(prob, 2.0 ** 4, 2.0 ** 10)
        np.testing.assert_allclose(sol.P.sum(axis=1), prob.r, atol=1e-12)
        np.testing.assert_allclose(sol.P.sum(axis=0), prob.c, atol=1e-12)
        assert sol.P.min() >= 0.0

    def test_rounded_plan_has_no_negative_entries(self):
        # Roundoff leaves some row/column deficits slightly negative after the
        # scaling steps; the rank-one repair must not carry them into the plan.
        prob = Problem(C=grid_points_cost(64, "l1"),
                       r=gen_marginal(64, "smooth-random", 0),
                       c=gen_marginal(64, "smooth-random", 1))
        sol = mdot(prob, 2.0 ** 5, 2.0 ** 10)
        assert sol.P.min() >= 0.0

    def test_monotone_gamma_and_trace_shape(self):
        prob = grid_problem(16, seed=4)
        sol = mdot(prob, 2.0 ** 4, 2.0 ** 12)
        gammas = [it.gamma for it in sol.iterations]
        assert all(b > a for a, b in zip(gammas, gammas[1:]))
        assert gammas[-1] == 2.0 ** 12
        assert len(sol.trace) == sol.report.outer_iterations
        assert sol.trace[0].t == 1

    def test_guarantee_chain_against_true_marginals(self):
        prob = grid_problem(36, seed=5)
        gamma_f = 2.0 ** 10
        sol = mdot(prob, 2.0 ** 4, gamma_f)
        state = sol.final_state
        state.set_targets(prob.r, prob.c)
        assert state.grad_norm_l1() <= eps_rule(gamma_f, 1.5, prob.r, prob.c)

    def test_sinkhorn_projector_path(self):
        prob = grid_problem(16, seed=6)
        sol = mdot(prob, 2.0 ** 4, 2.0 ** 8,
                   opts=MdotOptions(projector="sinkhorn"))
        assert sol.report.solver == "mdot-sinkhorn"
        np.testing.assert_allclose(sol.P.sum(axis=1), prob.r, atol=1e-12)
        assert sol.report.ops.get("sinkhorn", 0) > 0

    def test_fixed_schedule_mode(self):
        prob = grid_problem(16, seed=7)
        sol = mdot(prob, 2.0 ** 4, 2.0 ** 8, q_init=2.0,
                   opts=MdotOptions(adaptive_q=False))
        qs = {it.q_next for it in sol.iterations}
        assert qs == {2.0}

    def test_report_round_trips_through_json(self):
        sol = mdot(grid_problem(16, seed=8), 2.0 ** 4, 2.0 ** 8)
        back = RunReport.from_json(sol.report.to_json())
        assert back == sol.report

    def test_parameter_validation(self):
        prob = fixture_problem()
        with pytest.raises(DomainError):
            mdot(prob, -1.0, 4.0)
        with pytest.raises(DomainError):
            mdot(prob, 4.0, 8.0, p=0.5)
        with pytest.raises(DomainError):
            mdot(prob, 4.0, 8.0, q_init=1.0)
