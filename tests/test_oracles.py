import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from dense_reference import assert_no_less_accurate_than_lse, finite_diff_grad, plan_at
from scipy.special import logsumexp

import otnewton
from otnewton import dual, opcount
from otnewton._kernels import SparsePlan
from otnewton.dual import OFFSET_RANGE, DualState
from otnewton.errors import DomainError, NonconvergenceError, PlanOverflowError, RefusalError
from otnewton.oracles import EXACT_MAX_N, exact_ot_small, sinkhorn_project
from otnewton.problems import Problem, gen_marginal, grid_points_cost


def test_import_loads_no_scipy():
    # The solver needs only numpy; the oracles import scipy when called.
    env = dict(os.environ)
    src = str(Path(otnewton.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys, otnewton; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


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
        # a vertex has at most 2n - 1 basic, hence nonzero, entries
        assert np.count_nonzero(sol.P_star) <= 2 * 4 - 1

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
            exact_ot_small(np.zeros((257, 257)), np.full(257, 1 / 257),
                           np.full(257, 1 / 257))
        with pytest.raises(DomainError):
            exact_ot_small(np.zeros((2, 2)), np.array([0.6, 0.5]), np.array([0.5, 0.5]))
        with pytest.raises(DomainError, match="marginal sums differ: nan"):
            exact_ot_small(np.zeros((2, 2)), np.array([0.5, np.nan]), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cost(self, bad):
        # Rejected before scipy sees it, which would raise its own ValueError.
        with pytest.raises(DomainError, match="cost matrix must be finite"):
            exact_ot_small(np.array([[0.0, bad], [1.0, 0.0]]), np.full(2, 0.5), np.full(2, 0.5))

    def test_failed_solve_raises(self, monkeypatch):
        import scipy.optimize

        class Failed:
            status, message, fun = 4, "numerical difficulties", 0.0

        monkeypatch.setattr(scipy.optimize, "linprog", lambda *a, **k: Failed())
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NonconvergenceError) as err:
            exact_ot_small(C, np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        assert err.value.diagnostics == {"status": 4, "n": 2}

    def test_largest_guarded_size(self):
        n = EXACT_MAX_N
        C = grid_points_cost(n, "l1")
        r = gen_marginal(n, "smooth-random", 0)
        c = gen_marginal(n, "smooth-random", 1)
        sol = exact_ot_small(C, r, c)
        np.testing.assert_allclose(sol.P_star.sum(axis=1), r, atol=1e-12)
        np.testing.assert_allclose(sol.P_star.sum(axis=0), c, atol=1e-12)
        assert sol.cost == pytest.approx(float(np.vdot(sol.P_star, C)), rel=1e-12)


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
        P = plan_at(state)
        expected_off = 0.5 * math.exp(-4.0) / (1.0 + math.exp(-4.0))
        assert P[0, 1] == pytest.approx(expected_off, abs=1e-10)
        assert P[1, 0] == pytest.approx(expected_off, abs=1e-10)

    def test_budget_error(self):
        from otnewton.errors import NonconvergenceError
        state = make_state(9, seed=3, gamma=64.0, spread=1.0)
        with pytest.raises(NonconvergenceError):
            sinkhorn_project(state, state.r, state.c, 1e-12, sweep_budget=1)


@pytest.fixture
def calls(monkeypatch):
    """Counts of plan anchors made through ``dual``."""
    counts = {"anchor": 0}
    anchor = DualState._anchor_plan

    def counting_anchor(self, *args):
        counts["anchor"] += 1
        return anchor(self, *args)

    monkeypatch.setattr(DualState, "_anchor_plan", counting_anchor)
    return counts


def sinkhorn_pin_solve():
    """The ``l1-grid-sinkhorn`` solve pinned in ``test_regression``."""
    prob = Problem(C=grid_points_cost(64, "l1"), r=gen_marginal(64, "smooth-random", 0),
                   c=gen_marginal(64, "smooth-random", 1))
    return otnewton.mdot(prob, 2.0 ** 5, 2.0 ** 8,
                         opts=otnewton.MdotOptions(projector="sinkhorn"))


class TestAbsorbedSinkhorn:
    """Sinkhorn sweeps served from the anchored plan (stabilized absorption)."""

    def test_covered_sweep_costs_two_passes_and_no_anchor(self, calls):
        state = make_state(16, seed=7, gamma=16.0)
        _, warm = sinkhorn_project(state, state.r, state.c, 1e-3)
        assert warm > 0 and calls["anchor"] == 1
        calls.update(anchor=0)
        before = opcount.snapshot().get("sinkhorn", 0)
        _, steps = sinkhorn_project(state, state.r, state.c, 1e-10)
        passes = opcount.snapshot()["sinkhorn"] - before
        assert steps > 0
        assert passes == 2 * steps  # one product per scaling, nothing else
        assert calls == {"anchor": 0}

    def test_solve_anchors_once_per_temperature(self, calls):
        sol = sinkhorn_pin_solve()
        assert sol.report.outer_iterations == 4
        assert calls == {"anchor": 4}
        # per temperature: column maxima 1, plan 4, first sums 2; then 2 a sweep
        sweeps = sum(it.stats.sinkhorn_steps for it in sol.iterations)
        assert sol.report.ops["sinkhorn"] == 7 * 4 + 2 * sweeps

    def test_sparse_anchor_gives_the_dense_iterates(self, monkeypatch):
        dense = make_state(32, seed=11, gamma=64.0)
        _, steps = sinkhorn_project(dense, dense.r, dense.c, 1e-10)
        monkeypatch.setattr(dual, "sparse_anchor", lambda n, prev_nnz: True)
        monkeypatch.setattr(dual, "sparse_limit", lambda n: n * n)
        sparse = make_state(32, seed=11, gamma=64.0)
        _, sparse_steps = sinkhorn_project(sparse, sparse.r, sparse.c, 1e-10)
        assert isinstance(sparse.anchored_plan()[0], SparsePlan)
        assert sparse_steps == steps
        np.testing.assert_allclose(sparse.u, dense.u, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sparse.v, dense.v, rtol=0, atol=1e-12)

    def test_plan_density_is_reported_at_every_temperature(self):
        sol = sinkhorn_pin_solve()
        densities = [it.plan_density for it in sol.iterations]
        assert all(0.0 < d <= 1.0 for d in densities), densities

    def test_overflowing_warm_start_projects(self, calls):
        state = make_state(8, seed=8, gamma=16.0)
        u0, v0 = state.u, state.v
        state.set_potentials(u0, v0 + 800.0)  # log plan entries above 700
        with pytest.raises(PlanOverflowError):
            plan_at(state)
        # Each side's sums anchor at that side's maxima, where no entry
        # exceeds 1 (maxima 1, plan 4, product 1 each).
        with opcount.category("warm"):
            before = opcount.snapshot().get("warm", 0)
            state.refresh()
            assert opcount.snapshot()["warm"] - before == 2 * (1 + 4 + 1)
        assert calls["anchor"] == 2
        assert_no_less_accurate_than_lse(state.problem.C, state.gamma, state.u, state.v,
                                         state.log_rP, state.log_cP)
        with np.errstate(over="ignore"):  # the gradient at the warm start
            sinkhorn_project(state, state.r, state.c, 1e-12)
        assert state.grad_norm_l1() <= 1e-12
        ref = DualState(state.problem, state.gamma, u=u0, v=v0)
        sinkhorn_project(ref, state.r, state.c, 1e-12)
        np.testing.assert_allclose(plan_at(state), plan_at(ref),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("side", ["rows", "cols"])
    def test_step_across_the_guard_reanchors_once(self, side, calls):
        # One potential far off its target mass, anchored where it is: the
        # exact step on that side moves it beyond the range the anchor
        # serves, so the other side's sums anchor at the maxima of the axis
        # they sum, and that anchor covers the next gradient check.
        state = make_state(8, seed=9, gamma=4.0, spread=0.0)
        u, v = state.u.copy(), state.v.copy()
        (u if side == "rows" else v)[0] -= 1.5 * OFFSET_RANGE
        state.set_potentials(u, v)
        state._anchor_plan(state.u, state.v)
        state.refresh()
        assert calls == {"anchor": 1}  # covered before the step
        if side == "rows":
            state.scale_rows_to_target()
            got, axis = state.log_cP, 0
        else:
            state.rebalance_columns(state.u, state.v, state.log_cP)
            got, axis = state.log_rP, 1
        assert calls["anchor"] == 2
        X = state.u[:, None] + state.v[None, :] - state.gamma * state.problem.C
        np.testing.assert_allclose(got, logsumexp(X, axis=axis), rtol=0, atol=1e-13)
        state.anchored_plan()
        state.grad_norm_l1()
        assert calls["anchor"] == 2


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
