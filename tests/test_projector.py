import json
import math

import numpy as np
import pytest
from dense_reference import plan_at

from otnewton.core import chi_sq_div
from otnewton import dual
from otnewton.dual import OFFSET_RANGE, DualState
from otnewton.errors import DomainError, NonconvergenceError
from otnewton import projector
from otnewton.newton import DiscountedSystem, NewtonResult
from otnewton.problems import Problem, gen_marginal, grid_points_cost
from otnewton.projector import (
    armijo_accept,
    chi_sinkhorn,
    delta_ratio,
    eta_rule,
    project,
)


def make_state(n, seed=0, gamma=4.0, zero_cost=False, spread=0.4):
    C = np.zeros((n, n)) if zero_cost else grid_points_cost(n, "l1")
    r = gen_marginal(n, "smooth-random", seed)
    c = gen_marginal(n, "smooth-random", seed + 100)
    prob = Problem(C=C, r=r, c=c)
    rng = np.random.default_rng(seed + 5)
    return DualState(prob, gamma,
                     u=np.log(r) + spread * rng.standard_normal(n),
                     v=np.log(c) + spread * rng.standard_normal(n))


def symmetric_fixture(gamma=4.0):
    prob = Problem(C=np.array([[0.0, 1.0], [1.0, 0.0]]),
                   r=np.array([0.5, 0.5]), c=np.array([0.5, 0.5]))
    return DualState(prob, gamma, u=np.log(prob.r), v=np.log(prob.c))


class TestEtaRule:
    def test_contraction_branch(self):
        assert eta_rule(0.1, 1e-3) == (pytest.approx(0.1), False)

    def test_target_branch(self):
        assert eta_rule(0.002, 1e-3) == (pytest.approx(0.4), True)

    def test_clamp(self):
        assert eta_rule(2.0, 1e-3) == (pytest.approx(0.99), False)

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            eta_rule(0.0, 1e-3)
        with pytest.raises(DomainError):
            eta_rule(1e-4, 1e-3)


def slope_of(grad, d):
    return float(-(np.asarray(grad) @ np.asarray(d)))


class TestArmijoAccept:
    def test_vanishing_direction_limit(self):
        # below ARMIJO_SLOPE_FLOOR the mass excess is evaluation noise: accept
        slope = slope_of([-1e-9, 1e-9], [1e-9, -1e-9])
        assert armijo_accept(1.0, 1.0, slope)
        assert armijo_accept(1.0, 2.0, slope)

    def test_accept_below_threshold(self):
        # slope arranged to be exactly 0.01, so the bound is 0.0099
        assert armijo_accept(1.0, 1.005, slope_of([-0.01], [1.0]))

    def test_reject_above_threshold(self):
        assert not armijo_accept(1.0, 1.0101, slope_of([-0.01], [1.0]))

    def test_non_descent_rejected(self):
        with pytest.raises(DomainError):
            armijo_accept(1.0, 1.0, slope_of([0.01], [1.0]))


class TestDeltaRatio:
    def test_no_reduction(self):
        assert delta_ratio(0.1, 0.1, 0.5) == 0.0

    def test_values(self):
        assert delta_ratio(0.1, 0.01, 0.1) == pytest.approx(1.0)
        assert delta_ratio(0.1, 0.0, 0.5) == pytest.approx(2.0)

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            delta_ratio(0.0, 0.0, 0.5)
        with pytest.raises(DomainError):
            delta_ratio(0.1, 0.0, 1.0)


class TestChiSinkhorn:
    def test_already_satisfied_is_noop(self):
        state = make_state(6, seed=1)
        state.rebalance_columns()
        u0, v0 = state.u.copy(), state.v.copy()
        chi = chi_sq_div(state.r, state.row_sums())
        steps = chi_sinkhorn(state, eps_chi=chi * 1.01)
        assert steps == 0
        np.testing.assert_array_equal(state.u, u0)
        np.testing.assert_array_equal(state.v, v0)

    def test_zero_cost_converges_in_one_sweep(self):
        state = make_state(6, seed=2, zero_cost=True)
        state.rebalance_columns()
        steps = chi_sinkhorn(state, eps_chi=1e-13)
        assert steps == 1
        np.testing.assert_allclose(state.row_sums(), state.r, rtol=1e-12)

    def test_columns_stay_on_target_every_sweep(self):
        state = make_state(8, seed=3, gamma=8.0, spread=1.0)
        state.rebalance_columns()
        for budget in (1, 2, 3):
            s = make_state(8, seed=3, gamma=8.0, spread=1.0)
            s.rebalance_columns()
            try:
                chi_sinkhorn(s, eps_chi=0.0, budget=budget)
            except NonconvergenceError:
                pass
            assert np.abs(s.col_sums() - s.c).sum() <= 1e-12

    def test_exit_bound_holds(self):
        state = make_state(8, seed=4, spread=1.0)
        state.rebalance_columns()
        eps_chi = 1e-4
        chi_sinkhorn(state, eps_chi=eps_chi)
        assert chi_sq_div(state.r, state.row_sums()) <= eps_chi


class TestProject:
    def test_already_feasible_skips_loop(self):
        state = make_state(6, seed=5, zero_cost=True)
        # independence potentials are exactly feasible for zero cost
        state.set_potentials(np.log(state.problem.r), np.log(state.problem.c))
        stats = project(state, state.problem.r, state.problem.c, 1e-3)
        assert stats.newton_steps == 0
        assert stats.sinkhorn_steps == 0
        assert math.isinf(stats.delta_min)

    def test_zero_cost_needs_no_newton(self):
        state = make_state(6, seed=6, zero_cost=True, spread=1.5)
        stats = project(state, state.problem.r, state.problem.c, 1e-10)
        assert stats.newton_steps <= 1
        assert state.grad_norm_l1() <= 1e-10

    def test_symmetric_closed_form(self):
        state = symmetric_fixture(gamma=4.0)
        project(state, state.problem.r, state.problem.c, 1e-10)
        P = plan_at(state)
        off = P[0, 1] + P[1, 0]
        assert off == pytest.approx(1.0 / (1.0 + math.exp(4.0)), abs=1e-10)
        assert P[0, 1] == pytest.approx(P[1, 0], rel=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_exit_contract(self, seed):
        state = make_state(9, seed=seed, gamma=16.0, spread=0.8)
        eps_d = 1e-8
        stats = project(state, state.problem.r, state.problem.c, eps_d)
        gu, gv = state.gradient()
        assert np.abs(gu).sum() <= 1e-12
        assert np.abs(gv).sum() <= eps_d + 1e-12
        assert stats.grad_norm_final <= eps_d + 1e-12

    def test_matches_sinkhorn_fixed_point(self):
        from otnewton.oracles import sinkhorn_project
        a = make_state(8, seed=11, gamma=8.0)
        b = make_state(8, seed=11, gamma=8.0)
        project(a, a.problem.r, a.problem.c, 1e-12)
        sinkhorn_project(b, b.problem.r, b.problem.c, 1e-13)
        np.testing.assert_allclose(plan_at(a), plan_at(b),
                                   rtol=0, atol=1e-10)

    def test_step_records_are_complete(self):
        state = make_state(9, seed=13, gamma=32.0, spread=1.0)
        stats = project(state, state.problem.r, state.problem.c, 1e-9)
        assert stats.newton_steps == len(stats.steps)
        assert stats.cg_iters == sum(s.cg_iters for s in stats.steps)
        assert stats.backtracks == sum(s.backtracks for s in stats.steps)
        if stats.steps:
            assert stats.steps[-1].exited_after

    def test_rho_carry_reported(self):
        state = make_state(9, seed=14, gamma=64.0, spread=1.0)
        stats = project(state, state.problem.r, state.problem.c, 1e-9, rho0=0.0)
        assert 0.0 <= stats.rho_final < 1.0

    def test_budget_error_carries_diagnostics(self):
        state = make_state(9, seed=15, gamma=64.0, spread=1.2)
        with pytest.raises(NonconvergenceError) as err:
            project(state, state.problem.r, state.problem.c, 1e-12,
                    newton_step_budget=0)
        assert "grad_norm" in err.value.diagnostics
        diag = json.loads(json.dumps(err.value.diagnostics))
        assert diag["newton_steps"] == 0 and diag["gamma"] == 64.0

    def test_non_descent_direction_falls_back_to_chi_sweep(self, monkeypatch):
        # An ascent direction from the Newton solve is never taken: each one
        # costs a chi-square sweep instead, and the sweeps alone converge.
        def ascent(grad_u, sys, eta, rho0=0.0):
            return NewtonResult(grad_u.copy(), rho0, 0, 0.0)

        monkeypatch.setattr(projector, "newton_solve", ascent)
        state = make_state(8, seed=17, gamma=4.0, spread=1.0)
        twin = make_state(8, seed=17, gamma=4.0, spread=1.0)
        eps_d = 1e-6
        stats = project(state, state.problem.r, state.problem.c, eps_d)
        assert stats.newton_steps == 0 and not stats.steps
        assert stats.grad_norm_final <= eps_d
        assert stats.sinkhorn_steps > 0
        # Rebalancing, the same number of chi-square sweeps with no stopping
        # test, and the exit row scaling land on the same potentials, up to
        # rounding.
        twin.rebalance_columns()
        with pytest.raises(NonconvergenceError):
            chi_sinkhorn(twin, eps_chi=0.0, budget=stats.sinkhorn_steps)
        twin.scale_rows_to_target()
        np.testing.assert_allclose(twin.u, state.u, rtol=0, atol=1e-12)
        np.testing.assert_allclose(twin.v, state.v, rtol=0, atol=1e-12)

    def test_accepted_step_is_installed_by_the_column_scaling(self, monkeypatch):
        # Each accepted step installs (u + alpha d_u, (v + alpha d_v) +
        # (log c - trial column sums)), bit for bit, from the sums of the
        # line search's last trial.
        trials, installs = [], []
        trial = DualState.trial_log_col_sums
        rebalance = DualState.rebalance_columns

        def spy_trial(state, d_u, d_v, alpha):
            out = trial(state, d_u, d_v, alpha)
            trials.append((state.u + alpha * d_u, state.v + alpha * d_v, out))
            return out

        def spy_rebalance(state, *args):
            rebalance(state, *args)
            if args and trials and args[2] is trials[-1][2]:
                installs.append((trials[-1], state.u, state.v, np.log(state.c)))

        monkeypatch.setattr(DualState, "trial_log_col_sums", spy_trial)
        monkeypatch.setattr(DualState, "rebalance_columns", spy_rebalance)
        state = make_state(9, seed=13, gamma=32.0, spread=1.0)
        stats = project(state, state.r, state.c, 1e-9)
        assert stats.newton_steps >= 2 and len(installs) == stats.newton_steps
        for (u1, v1, cols), u, v, log_c in installs:
            assert u.tobytes() == u1.tobytes()
            assert v.tobytes() == (v1 + (log_c - cols)).tobytes()

    def test_rejects_bad_tolerance_and_marginals(self):
        state = make_state(4, seed=16)
        with pytest.raises(DomainError):
            project(state, state.problem.r, state.problem.c, 1.5)
        bad_r = state.problem.r.copy()
        bad_r[0] = 0.0
        with pytest.raises(DomainError):
            project(state, bad_r, state.problem.c, 1e-6)


class TestArmijoEquivalence:
    """Mass-form acceptance agrees with the textbook objective-form test."""

    def test_agreement_on_random_samples(self):
        state = make_state(8, seed=21, gamma=8.0, spread=0.7)
        state.rebalance_columns()
        r, c = state.r, state.c
        grad_u = state.row_sums() - r
        g0 = state.dual_value()
        rng = np.random.default_rng(22)
        sys = DiscountedSystem.from_state(state)
        checked = 0
        for _ in range(60):
            d_u = rng.standard_normal(8) * rng.choice([0.01, 0.3, 2.0])
            slope = -(grad_u @ d_u)
            if slope == 0.0:
                continue
            if slope < 0.0:
                d_u = -d_u
                slope = -slope
            d_v = -sys.apply_pc(d_u)
            alpha = float(rng.choice([1.0, 0.5, 0.25, 0.05]))
            trial = DualState(state.problem, state.gamma,
                              u=state.u + alpha * d_u, v=state.v + alpha * d_v,
                              r=r, c=c)
            mass = float(np.exp(trial.log_cP).sum())
            lhs_mass = mass - 1.0
            rhs_mass = 0.99 * alpha * slope
            g_trial = trial.dual_value()
            lhs_obj = g_trial - g0
            rhs_obj = 0.01 * alpha * float(np.concatenate([grad_u, np.zeros(8)])
                                           @ np.concatenate([d_u, d_v]))
            if abs(lhs_mass - rhs_mass) < 1e-12 or abs(lhs_obj - rhs_obj) < 1e-12:
                continue  # tie: both forms are on a knife edge
            accept_mass = armijo_accept(alpha, mass, float(slope))
            accept_obj = lhs_obj <= rhs_obj
            assert accept_mass == accept_obj
            checked += 1
        assert checked >= 40


def spy_materializations(monkeypatch, maxima=None):
    """Record each plan materialization: True when it anchors (fills the
    state's plan buffer), False for a fresh plan.  An anchor at the column
    maxima, a materialization given no column potential, which takes the
    maxima itself, puts 0 into ``maxima``."""
    calls = []
    real = dual.materialize_plan

    def materialize(C, gamma, u, v=None, out=None, **kwargs):
        calls.append(out is not None)
        if v is None and maxima is not None:
            maxima.append(0)
        return real(C, gamma, u, v, out=out, **kwargs)

    monkeypatch.setattr(dual, "materialize_plan", materialize)
    return calls


class TestAnchoring:
    """One anchored plan per temperature serves every sum and Newton system."""

    def test_one_anchor_per_projection(self, monkeypatch):
        # The entry column rebalance anchors at the column maxima, and every
        # later sum and system comes from that plan while it serves the
        # offsets: no sum takes maxima to anchor again.  Row
        # anchors would take theirs through dual.log_plan_max.
        maxima = []
        calls = spy_materializations(monkeypatch, maxima)
        real_max = dual.log_plan_max
        monkeypatch.setattr(dual, "log_plan_max",
                            lambda *args: maxima.append(args[-1]) or real_max(*args))
        state = make_state(16, seed=3, gamma=64.0, spread=1.0)
        stats = project(state, state.r, state.c, 1e-10)
        assert stats.newton_steps >= 3 and stats.sinkhorn_steps >= 1
        assert calls == [True] and maxima == [0]
        state.set_gamma(128.0)
        project(state, state.r, state.c, 1e-10)
        assert calls == [True, True] and maxima == [0, 0]

    def test_reanchors_when_offsets_leave_the_guard(self, monkeypatch):
        calls = spy_materializations(monkeypatch)
        state = make_state(16, seed=3, gamma=64.0)
        state.rebalance_columns()
        u0, v0 = state.u, state.v
        # The entry anchors at the column maxima: offsets (0, b0) with
        # b0 <= 0, which a gauge shift by s moves to (s, b0 - s): the same
        # max a + max b, and b reaching -(s + |b0|_inf), which leaves the
        # range past s = room.
        _, a0, b0 = state.anchored_plan()
        assert not a0.any() and b0.max() <= 0.0
        room = OFFSET_RANGE - np.abs(b0).max()
        d = np.linspace(-1.0, 1.0, 16)
        ref = DiscountedSystem(plan_at(state), state.row_sums(),
                               state.col_sums()).round_trip(d)
        del calls[1:]
        # A gauge shift leaves the plan as it is and moves only the offsets.
        for shift, anchors in ((0.98, [True]), (1.02, [True, True])):
            s = shift * room
            state.set_potentials(u0 + s, v0 - s)
            sys = DiscountedSystem.from_state(state)
            assert calls == anchors
            np.testing.assert_allclose(sys.round_trip(d), ref, rtol=1e-12)
        state.set_potentials(u0 - s, v0 + s)  # offsets (-2 s, b0 + 2 s) from the last anchor
        state.rebalance_columns()
        assert calls == [True, True, True]
