import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse  # noqa: F401  (imported before tracemalloc starts)

import otnewton
from otnewton._kernels import BLOCK, PLAN_FLOOR, SparsePlan
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
from otnewton import driver, dual, newton, opcount
from otnewton.errors import (ConditioningError, DegenerateInputError, DomainError,
                             PlanOverflowError, StagnationError)
from otnewton.oracles import exact_ot_small
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
                                0.1, w_r=0.45)
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
        # The rows take w_r = 0.45 and the columns the rest of one half.
        import inspect
        sig = inspect.signature(smooth_marginals)
        assert list(sig.parameters) == ["r", "c", "eps_d", "w_r"]
        assert sig.parameters["w_r"].default == 0.45
        r, c, eps = np.array([0.3, 0.7]), np.array([0.2, 0.8]), 0.1
        w_c = 0.5 - 0.45
        _, c_s = smooth_marginals(r, c, eps)
        assert c_s.tobytes() == ((1.0 - w_c * eps) * c + w_c * eps / 2).tobytes()

    def test_weight_validation(self):
        # w_r > w_c = 1/2 - w_r > 0
        r = np.array([0.5, 0.5])
        for w_r in (0.05, 0.25, 0.5, 0.6):
            with pytest.raises(DomainError):
                smooth_marginals(r, r, 0.1, w_r=w_r)
        smooth_marginals(r, r, 0.1, w_r=0.3)


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


def round_plan_reference(P, r, c):
    """``round_plan`` in whole-array expressions, each making a new array."""
    P = np.asarray(P, dtype=np.float64)
    rP = P.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        row_scale = np.where(rP > 0.0, np.minimum(1.0, r / rP), 1.0)
    P = P * row_scale[:, None]
    cP = P.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        col_scale = np.where(cP > 0.0, np.minimum(1.0, c / cP), 1.0)
    P = P * col_scale[None, :]
    err_r = np.maximum(r - P.sum(axis=1), 0.0)
    err_c = np.maximum(c - P.sum(axis=0), 0.0)
    deficit = err_r.sum()
    if deficit > 0.0:
        P = P + np.outer(err_r, err_c) / deficit
    P[P < PLAN_FLOOR] = 0.0
    return P


def perturbed_plans(n, count, seed):
    """Plans off their marginals by a few percent, as ``round_plan`` gets them."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        r = rng.dirichlet(np.ones(n))
        c = rng.dirichlet(np.ones(n))
        P = np.outer(r, c)
        P_pert = P * (1.0 + 0.01 * rng.standard_normal(P.shape))
        yield np.maximum(P_pert, 0.0), r, c


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
        for P_pert, r, c in perturbed_plans(8, 25, seed=17):
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

    def test_bitwise_equal_to_whole_array_reference(self):
        half = np.array([0.5, 0.5])
        cases = [(np.full((2, 2), 0.25), half, half),
                 (np.array([[0.3, 0.3], [0.2, 0.2]]), half, half),
                 *perturbed_plans(8, 25, seed=17)]
        cases += perturbed_plans(BLOCK + 17, 2, seed=18)  # past one tile
        # Powers of two keep the scalings exact and leave no deficit, so the
        # off-diagonal entries fall below the floor and are flushed.
        n = BLOCK + 17
        P = np.full((n, n), np.ldexp(1.0, -1000))
        np.fill_diagonal(P, np.ldexp(1.0, 29))
        r = np.full(n, 1.0 / n)
        cases.append((P, r, r))
        for P, r, c in cases:
            before = P.copy()
            assert round_plan(P, r, c).tobytes() == round_plan_reference(P, r, c).tobytes()
            np.testing.assert_array_equal(P, before)  # the input is not written

    def test_allocates_one_plan(self):
        # The copy of the input, one BLOCK * BLOCK tile and its flush mask,
        # and O(n) vectors plus numpy's fixed 8192-element ufunc buffer.
        n = 1024
        (P, r, c), = perturbed_plans(n, 1, seed=19)
        tracemalloc.start()
        try:
            rounded = round_plan(P, r, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rounded.tobytes() == round_plan_reference(P, r, c).tobytes()
        assert peak <= n * n * 8 + BLOCK * BLOCK * 9 + 8 * 8192 + 16 * n * 8

    def test_in_place_bitwise_equal_to_copy(self):
        n = BLOCK + 17
        for P, r, c in [*perturbed_plans(8, 5, seed=20), *perturbed_plans(n, 1, seed=21)]:
            ref = round_plan(P, r, c)
            out = round_plan(P, r, c, out=P)
            assert out is P
            assert P.tobytes() == ref.tobytes()

    def test_out_must_be_the_plan(self):
        (P, r, c), = perturbed_plans(8, 1, seed=22)
        with pytest.raises(DomainError):
            round_plan(P, r, c, out=np.empty_like(P))
        with pytest.raises(DomainError):  # a converted copy is not P
            round_plan(P.astype(np.float32), r, c, out=P)

    def test_in_place_allocates_no_plan(self):
        n = 1024
        (P, r, c), = perturbed_plans(n, 1, seed=19)
        ref = round_plan(P, r, c)
        tracemalloc.start()
        try:
            round_plan(P, r, c, out=P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert P.tobytes() == ref.tobytes()
        assert peak <= BLOCK * BLOCK * 9 + 8 * 8192 + 16 * n * 8


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

    def test_extrapolates_only_toward_a_next_temperature(self, monkeypatch):
        # One warm start per temperature after the first, each toward the
        # gamma of the projection that follows; none after gamma_f.
        targets = []
        real = driver.extrapolate
        monkeypatch.setattr(driver, "extrapolate",
                            lambda *args: targets.append(args[2]) or real(*args))
        sol = mdot(grid_problem(16, seed=1), 2.0 ** 5, 2.0 ** 10)
        assert len(targets) == sol.report.outer_iterations - 1
        assert targets == [it.gamma for it in sol.iterations[1:]]

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

    @pytest.mark.parametrize("projector", ["newton", "sinkhorn"])
    def test_one_anchored_plan_per_temperature(self, projector, monkeypatch):
        # True for a plan materialized into the state's buffer, False for a
        # fresh array.  Either projector anchors once per projection, at the
        # column maxima, and the driver rounds the last anchored plan, scaled
        # in place.
        calls = []
        real = dual.materialize_plan

        def materialize(*args, out=None, **kwargs):
            calls.append(out is not None)
            return real(*args, out=out, **kwargs)

        monkeypatch.setattr(dual, "materialize_plan", materialize)
        sol = mdot(grid_problem(16, seed=4), 2.0 ** 4, 2.0 ** 12,
                   opts=MdotOptions(projector=projector))
        assert calls == [True] * sol.report.outer_iterations

    @pytest.mark.parametrize("projector", ["newton", "sinkhorn"])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_one_plan_per_solve(self, projector, symmetric):
        # The traced peak of a solve is its one n-by-n plan, one BLOCK * BLOCK
        # tile with its mask, numpy's 8192-element ufunc buffer and O(n)
        # vectors; a transposed non-symmetric cost, built only for column sums
        # beyond the serving rule, is let go before the plan is made.  The Newton
        # solve on the l2sq grid runs on to 2^16, through temperatures whose
        # anchors are CSR, which replace the dense buffer and are let go
        # before the final plan is made.  The state kept in the solution
        # holds no n-by-n array but the problem's cost, and no sparse plan.
        # scipy.sparse is imported before tracing starts, as a program that
        # uses it would.
        n = 4 * BLOCK
        if symmetric:
            C = grid_points_cost(n, "l2sq")
        else:
            C = np.random.default_rng(5).uniform(size=(n, n))
        prob = Problem(C=C, r=gen_marginal(n, "smooth-random", 1),
                       c=gen_marginal(n, "smooth-random", 2))
        sparse_run = symmetric and projector == "newton"
        tracemalloc.start()
        try:
            sol = mdot(prob, 2.0 ** 3, 2.0 ** (16 if sparse_run else 6),
                       opts=MdotOptions(projector=projector))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n * n * 8 + BLOCK * BLOCK * 9 + 8 * 8192 + 32 * n * 8
        held = [x for x in vars(sol.final_state).values()
                for x in (x if isinstance(x, tuple) else (x,))
                if isinstance(x, SparsePlan) or isinstance(x, np.ndarray) and x.ndim == 2]
        assert held == []
        density = [it.plan_density for it in sol.iterations]
        went_sparse = [dual.sparse_anchor(n, prev * n * n) and now <= 1 / 8
                       for prev, now in zip(density, density[1:])]
        assert any(went_sparse) == sparse_run

    def test_plan_density_per_temperature(self):
        prob = grid_problem(64, seed=6)
        sol = mdot(prob, 2.0 ** 5, 2.0 ** 14)
        density = [it.plan_density for it in sol.iterations]
        assert all(0.0 < d <= 1.0 for d in density)
        assert density[-1] < density[0]  # entries flush to 0 as gamma grows

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

    def test_report_records_the_options(self):
        opts = MdotOptions(adaptive_q=False, adaptive_rho0=False, projector="sinkhorn")
        report = mdot(grid_problem(16, seed=8), 2.0 ** 4, 2.0 ** 6, opts=opts).report
        assert (report.adaptive_q, report.adaptive_rho0, report.solver) == (
            False, False, "mdot-sinkhorn")
        assert mdot(grid_problem(16, seed=8), 2.0 ** 4, 2.0 ** 6).report.adaptive_rho0 is True

    @pytest.mark.parametrize("r,c,name", [
        ([1.0], [1.0], "r"),
        ([0.0, 1.0, 0.0], [0.25, 0.25, 0.5], "r"),
        ([0.25, 0.25, 0.5], [0.0, 0.0, 1.0], "c"),
    ], ids=["n1", "point-mass-r", "point-mass-c"])
    def test_point_mass_marginal_rejected_before_any_pass(self, r, c, name):
        # Its entropy is 0, so every tolerance would be 0; r c^T is the only plan.
        n = len(r)
        prob = Problem(C=grid_points_cost(n, "l1"), r=np.array(r), c=np.array(c))
        ops = opcount.total()
        with pytest.raises(DegenerateInputError,
                           match=f"^marginal {name} is a point mass") as excinfo:
            mdot(prob, 32.0, 1024.0)
        assert opcount.total() == ops
        assert excinfo.value.diagnostics == {f"nonzeros_{name}": 1}

    def test_parameter_validation(self):
        prob = fixture_problem()
        with pytest.raises(DomainError):
            mdot(prob, -1.0, 4.0)
        with pytest.raises(DomainError):
            mdot(prob, 4.0, 8.0, p=0.5)
        with pytest.raises(DomainError):
            mdot(prob, 4.0, 8.0, q_init=1.0)

    @pytest.mark.parametrize("name,bad", [("gamma_i", math.nan), ("gamma_f", math.inf),
                                          ("p", math.nan), ("q_init", math.inf)])
    def test_non_finite_parameter_rejected_before_any_work(self, name, bad):
        # Unchecked, each surfaces later as an error about something else:
        # an infinite gamma_f as a CG breakdown near gamma ~ 1e7, an infinite
        # q_init as a line-search failure, a NaN gamma_i or p through eps_d.
        args = {"gamma_i": 32.0, "gamma_f": 2.0 ** 10, "p": 1.5, "q_init": 2.0, name: bad}
        ops = opcount.total()
        with pytest.raises(DomainError, match=f"^{name} must be finite, got {bad}$"):
            mdot(grid_problem(16, seed=4), **args)
        assert opcount.total() == ops


class TestLpGap:
    """0 <= primal - LP optimum <= error_bound, each side with 1e-10 slack;
    the certificate's lower bound is below the LP optimum and within
    error_bound of the primal cost."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [16, 64, 121])
    @pytest.mark.parametrize("cost", ["l1", "l2sq", "random"])
    def test_two_sided_gap(self, cost, n, seed):
        if cost == "random":
            C = np.random.default_rng(seed).random((n, n))  # not symmetric
        else:
            C = grid_points_cost(n, cost)
        prob = Problem(C=C, r=gen_marginal(n, "smooth-random", seed),
                       c=gen_marginal(n, "smooth-random", seed + 1000))
        sol = mdot(prob, 2.0 ** 5, 2.0 ** 14)
        lp = exact_ot_small(prob.C, prob.r, prob.c).cost
        gap = sol.primal_cost - lp
        assert -1e-10 <= gap <= sol.error_bound + 1e-10, (gap, sol.error_bound)
        assert sol.lower_bound <= lp + 1e-10, (sol.lower_bound, lp)
        assert sol.primal_cost - sol.lower_bound <= sol.error_bound


class TestCertificate:
    """The certified gap of a solve on the 32 x 32 l2sq grid (the
    benchmark's instance k = 1) is nonnegative up to roundoff and within
    error_bound."""

    @pytest.mark.parametrize("projector,gamma_f", [("newton", 2.0 ** 18),
                                                   ("sinkhorn", 2.0 ** 11)])
    def test_certified_gap_within_bound(self, projector, gamma_f):
        prob = Problem(C=grid_points_cost(1024, "l2sq"), r=gen_marginal(1024, "smooth-random", 2),
                       c=gen_marginal(1024, "smooth-random", 3))
        sol = mdot(prob, 2.0 ** 5, gamma_f, opts=MdotOptions(projector=projector))
        gap = sol.report.certified_gap
        assert gap == sol.primal_cost - sol.lower_bound
        assert -1e-12 <= gap <= sol.error_bound, (gap, sol.error_bound)


    def test_late_temperatures_anchor_sparse(self, monkeypatch):
        # At the floor derived from the targets, the anchors at 2^12.5 and
        # 2^13.5 keep about 8% and 4% of their entries and are CSR (at
        # EXP_FLOOR they kept 30% and 17% and were dense); the gap stays
        # certified.
        anchors = []
        real = dual.materialize_plan

        def materialize(C, gamma, u, v=None, out=None, max_nnz=None, **kwargs):
            result = real(C, gamma, u, v, out=out, max_nnz=max_nnz, **kwargs)
            anchors.append((math.log2(gamma), isinstance(result[0], SparsePlan)))
            return result

        monkeypatch.setattr(dual, "materialize_plan", materialize)
        prob = Problem(C=grid_points_cost(1024, "l2sq"), r=gen_marginal(1024, "smooth-random", 2),
                       c=gen_marginal(1024, "smooth-random", 3))
        sol = mdot(prob, 2.0 ** 5, 2.0 ** 18)
        for log_gamma in (12.5, 13.5):
            at = [sparse for g, sparse in anchors if g == pytest.approx(log_gamma)]
            assert at and all(at), (log_gamma, anchors)
        assert -1e-12 <= sol.report.certified_gap <= sol.error_bound


@pytest.mark.parametrize("projector", ["newton", "sinkhorn"])
def test_each_anchor_reads_its_temperatures_targets(projector, monkeypatch):
    # The floor of a sparse anchor comes from the state's targets, so each
    # projector installs the smoothed marginals of its temperature before
    # its first anchor.  n = 289 spans two tiles, so the floor is derived.
    seen = []
    real = dual.DualState._anchor_plan

    def anchor(state, u, v=None):
        seen.append((state.gamma, state.r, state.c))
        return real(state, u, v)

    monkeypatch.setattr(dual.DualState, "_anchor_plan", anchor)
    prob = Problem(C=grid_points_cost(289, "l2sq"), r=gen_marginal(289, "smooth-random", 4),
                   c=gen_marginal(289, "smooth-random", 5))
    sol = mdot(prob, 2.0 ** 5, 2.0 ** 10, opts=MdotOptions(projector=projector))
    assert {gamma for gamma, _, _ in seen} == {it.gamma for it in sol.iterations}
    for gamma, r, c in seen:
        r_s, c_s = smooth_marginals(prob.r, prob.c, eps_rule(gamma, 1.5, prob.r, prob.c))
        np.testing.assert_array_equal(r, r_s)
        np.testing.assert_array_equal(c, c_s)


def batch_instance(i, n=64):
    """Instance i of the benchmark's mixed batch, from the public generators:
    the L1 grid, the l2sq grid or a seeded uniform non-symmetric cost in
    turn; smooth marginals for even i, spiky for odd i, seeds 2i and 2i + 1."""
    if i % 3 < 2:
        C = grid_points_cost(n, ("l1", "l2sq")[i % 3])
    else:
        C = np.random.default_rng(100000 + i).uniform(size=(n, n))
        C /= C.max()
    kind = "smooth-random" if i % 2 == 0 else "spiky-random"
    return Problem(C=C, r=gen_marginal(n, kind, 2 * i), c=gen_marginal(n, kind, 2 * i + 1))


class TestBatchInstances:
    """Batch instances that used to fail, solved from 2^5 to 2^18."""

    @pytest.mark.parametrize("i", [62, 186, 230])
    def test_former_line_search_failures_solve(self, i):
        # These once raised LineSearchError: the mass excess was measured
        # against 1 rather than against the mass at alpha = 0 from the same
        # evaluation path, and its noise exceeded the slope.
        prob = batch_instance(i)
        sol = mdot(prob, 2.0 ** 5, 2.0 ** 18)
        gap = sol.primal_cost - exact_ot_small(prob.C, prob.r, prob.c).cost
        assert 0.0 <= gap <= sol.error_bound, (gap, sol.error_bound)

    @pytest.mark.parametrize("i", [59, 131, 282])
    def test_former_stagnation_failures_solve(self, i):
        # At the discount cap each takes one direction that meets only the
        # relaxed forcing test, and the rounded plan stays within its bound.
        prob = batch_instance(i)
        sol = mdot(prob, 2.0 ** 5, 2.0 ** 18)
        gap = sol.primal_cost - exact_ot_small(prob.C, prob.r, prob.c).cost
        assert 0.0 <= gap <= sol.error_bound, (gap, sol.error_bound)
        assert sum(s.relaxed for it in sol.iterations for s in it.stats.steps) == 1

    @pytest.mark.parametrize("i", [59, 111, 131, 252])
    def test_uncovered_line_search_solves(self, i, monkeypatch):
        # Random costs (59, 131) and L1 grids (111, 252) whose Newton steps
        # leave what the anchor serves: some trial re-anchors at its column
        # maxima, and the rounded plan stays within its bound.
        reanchored = []
        trial = dual.DualState.trial_log_col_sums

        def spy(state, *args):
            anchor = state._anchor
            out = trial(state, *args)
            reanchored.append(state._anchor is not anchor)
            return out

        monkeypatch.setattr(dual.DualState, "trial_log_col_sums", spy)
        prob = batch_instance(i)
        sol = mdot(prob, 2.0 ** 5, 2.0 ** 18)
        gap = sol.primal_cost - exact_ot_small(prob.C, prob.r, prob.c).cost
        assert 0.0 <= gap <= sol.error_bound, (gap, sol.error_bound)
        assert any(reanchored)

    def test_stagnation_diagnostics_serialize(self, monkeypatch):
        # Without the relaxed exit at the discount cap, instance 59 stagnates.
        monkeypatch.setattr(newton, "ETA_MAX", 0.0)
        with pytest.raises(StagnationError) as err:
            mdot(batch_instance(59), 2.0 ** 5, 2.0 ** 18)
        diag = json.loads(json.dumps(err.value.diagnostics))
        assert set(diag) == {"rho", "residual_l1", "target_l1", "outer_iteration", "gamma"}
        assert diag["residual_l1"] > diag["target_l1"] > 0.0
        assert 1.0 - diag["rho"] < 1e-11


def test_sweepless_projections_take_three_row_sums_per_newton_step(monkeypatch):
    # On batch instance 0 the row gradient is formed once per state: a
    # Newton step reads the row sums for the chi-square test, the Newton
    # system and the gradient after the step.  The projection's entry
    # gradient and its exit norm read them once each.
    calls, seen = [0], []
    row_sums, project = dual.DualState.row_sums, driver.project

    def counted(state):
        calls[0] += 1
        return row_sums(state)

    def spy_project(*args, **kwargs):
        before = calls[0]
        stats = project(*args, **kwargs)
        seen.append((stats.sinkhorn_steps, stats.newton_steps, calls[0] - before))
        return stats

    monkeypatch.setattr(dual.DualState, "row_sums", counted)
    monkeypatch.setattr(driver, "project", spy_project)
    mdot(batch_instance(0), 2.0 ** 5, 2.0 ** 18)
    sweepless = [(steps, got) for sweeps, steps, got in seen if sweeps == 0 and steps]
    assert len(sweepless) >= 5
    assert [got for _, got in sweepless] == [3 * steps + 2 for steps, _ in sweepless]


@pytest.mark.parametrize("error", [ConditioningError, PlanOverflowError, DomainError])
def test_projection_errors_name_outer_iteration_and_gamma(error, monkeypatch):
    def failing_project(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(driver, "project", failing_project)
    with pytest.raises(error) as err:
        mdot(grid_problem(9), 2.0 ** 5, 2.0 ** 10)
    diag = json.loads(json.dumps(err.value.diagnostics))
    assert diag == {"outer_iteration": 1, "gamma": 2.0 ** 5}


DETERMINISM_PROBE = """
import hashlib, otnewton as ot
from otnewton import dual
from otnewton._kernels import SparsePlan
build, sparse = dual.materialize_plan, []

def spy(*args, **kwargs):
    out = build(*args, **kwargs)
    sparse.append(isinstance(out[0], SparsePlan))
    return out

dual.materialize_plan = spy
for n, log_gamma_f in ((400, 9), (289, 14)):
    sparse.clear()
    prob = ot.Problem(C=ot.grid_points_cost(n, "l2sq"), r=ot.gen_marginal(n, "smooth-random", 2),
                      c=ot.gen_marginal(n, "smooth-random", 3))
    sol = ot.mdot(prob, 2.0 ** 5, 2.0 ** log_gamma_f)
    print(n, sum(sparse), sol.primal_cost.hex(), sol.report.dual_value_final.hex(),
          hashlib.sha256(sol.P.tobytes()).hexdigest())
assert any(sparse), "the n = 289 solve anchors sparse from 2^12.5"
"""


def test_deterministic_solve_ignores_blas_threads():
    # The plan, the dual value and the final cost are bit-identical at one
    # and two BLAS threads, with dense and sparse anchors: BLAS gemv and
    # scipy's CSR loop each sum an output entry in one order, and so do the
    # dots at n < 10 000.  The cost is a fixed-order sum: a threaded dot
    # product over the n^2 entries gave 0x1.d97e71e4cddc5p-4 against
    # 0x1.d97e71e4cddcfp-4.
    src = str(Path(otnewton.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        outs.append(subprocess.run([sys.executable, "-c", DETERMINISM_PROBE], env=env,
                                   check=True, capture_output=True, text=True).stdout)
    assert outs[0] == outs[1]
