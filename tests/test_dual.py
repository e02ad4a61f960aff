import math

import numpy as np
import pytest
import scipy.sparse

from dense_reference import assert_no_less_accurate_than_lse, finite_diff_grad, plan_at

from otnewton import _kernels, dual, opcount
from otnewton._kernels import SparsePlan, log_plan_matvec, log_plan_max
from otnewton.driver import mdot
from otnewton.dual import OFFSET_RANGE, SPARSE_SCALE_MAX, DualState
from otnewton.errors import PlanOverflowError
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
        def cached(state):
            return state._log_rP is not None and state._log_cP is not None

        state = random_state(4)
        state.refresh()
        assert cached(state)
        state.set_potentials(state.u + 0.1, state.v)
        assert not cached(state)
        state.refresh()
        assert cached(state)
        state.set_gamma(5.0)
        assert not cached(state)

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
        np.testing.assert_allclose(plan_at(state),
                                   np.outer(prob.r, prob.c), rtol=1e-14)

    def test_trivial_scalar(self):
        prob = Problem(C=np.array([[0.0]]), r=np.array([1.0]), c=np.array([1.0]))
        state = DualState(prob, 2.0, u=np.zeros(1), v=np.zeros(1))
        np.testing.assert_array_equal(plan_at(state), [[1.0]])

    def test_row_sums_match_cache(self):
        state = random_state(16, seed=21)
        P = plan_at(state)
        np.testing.assert_allclose(P.sum(axis=1), np.exp(state.log_rP), rtol=1e-12)

    def test_gauge_invariance_of_plan(self):
        state = random_state(5, seed=30)
        P = plan_at(state)
        for s in (-10.0, 10.0):
            other = DualState(state.problem, state.gamma, u=state.u + s, v=state.v - s)
            np.testing.assert_allclose(plan_at(other), P, rtol=1e-12)

    def test_overflow_rejected(self):
        state = random_state(3)
        state.set_potentials(state.u + 800.0, state.v)
        with pytest.raises(PlanOverflowError):
            plan_at(state)


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



def anchored(n=12, seed=6):
    """A state anchored by its entry column rebalance, as in a projection."""
    state = random_state(n, seed=seed, gamma=8.0)
    state.rebalance_columns()
    return state


class TestAnchoredPlan:
    """Sums served from the plan anchored by the last column rebalance."""

    def test_trial_sums_match_lse_and_stay_on_one_path(self):
        state = anchored()
        rng = np.random.default_rng(1)
        d_u, d_v = rng.standard_normal(12), rng.standard_normal(12)
        probe = DualState(state.problem, state.gamma,
                          u=state.u + 0.3 * d_u, v=state.v + 0.3 * d_v)
        with opcount.category("t"):
            before = opcount.snapshot().get("t", 0)
            got = state.trial_log_col_sums(d_u, d_v, 0.3)
            base = state.base_log_col_sums(d_u, d_v)
            assert opcount.snapshot()["t"] - before == 2  # two matvecs, no anchor
        np.testing.assert_allclose(got, probe.log_cP, rtol=0, atol=1e-13)
        np.testing.assert_array_equal(base, state.trial_log_col_sums(d_u, d_v, 0.0))

    @pytest.mark.parametrize("size", ["budget", "range", 1000.0])
    def test_step_beyond_guard_reanchors_and_uses_the_cache(self, size):
        # The base sums come from the cache; each trial the anchor does not
        # serve anchors at its column maxima (maxima 1, plan 4, product 1).
        # From the entry offsets (0, b0), the full step goes just beyond one
        # part of the rule: "budget" to max a + max b = 1.01 times the
        # anchor's budget within the range, "range" to a = 1.01 R within
        # the budget, and 1000 far beyond the range.  The half step, from
        # the anchor the full one took, leaves the range in b.
        state = anchored()
        _, _, b0 = state.anchored_plan()
        if size == "budget":
            d_u = d_v = np.full(12, (1.01 * state.budget - b0.max()) / 2.0)
        else:
            d_u, d_v = np.full(12, 1.01 * OFFSET_RANGE if size == "range" else size), np.zeros(12)
        a, b = d_u, b0 + d_v
        assert (a.max() + b.max() > state.budget) == (size != "range")
        assert (max(a.max(), b.max()) > OFFSET_RANGE) == (size != "budget")
        np.testing.assert_array_equal(state.base_log_col_sums(d_u, d_v), state.log_cP)
        C, gamma = state.problem.C, state.gamma
        for alpha in (1.0, 0.5):
            with opcount.category("t"):
                before = opcount.snapshot().get("t", 0)
                got = state.trial_log_col_sums(d_u, d_v, alpha)
                assert opcount.snapshot()["t"] - before == 1 + 4 + 1
            u, v = state.u + alpha * d_u, state.v + alpha * d_v
            np.testing.assert_array_equal(state._anchor[1], -log_plan_max(C, gamma, u, 0))
            assert_no_less_accurate_than_lse(C, gamma, u, v, cols=got)

    def test_scalings_match_lse(self):
        state = anchored()
        # The reference's first column step is the Sinkhorn one, from its
        # cached column sums, which the entry rebalance equals in exact
        # arithmetic.
        lse = DualState(state.problem, state.gamma, u=state.u, v=state.v)
        for st, rebalance in ((state, state.rebalance_columns),
                              (lse, lambda: lse.rebalance_columns(lse.u, lse.v, lse.log_cP))):
            st.set_potentials(st.u + 0.2, st.v)
            rebalance()
            st.sinkhorn_sweep()
        np.testing.assert_allclose(state.u, lse.u, rtol=0, atol=1e-13)
        np.testing.assert_allclose(state.v, lse.v, rtol=0, atol=1e-13)
        np.testing.assert_allclose(state.log_rP, lse.log_rP, rtol=0, atol=1e-13)
        np.testing.assert_array_equal(state.log_cP, np.log(state.c))

    def test_rebalance_from_known_sums_takes_only_the_row_product(self):
        state = anchored()
        d_u = np.random.default_rng(2).standard_normal(12)
        cols = state.trial_log_col_sums(d_u, np.zeros(12), 0.1)
        u, v = state.u + 0.1 * d_u, state.v
        with opcount.category("t"):
            before = opcount.snapshot().get("t", 0)
            state.rebalance_columns(u, v, cols)
            assert opcount.snapshot()["t"] - before == 1
        assert state.v.tobytes() == (v + (np.log(state.c) - cols)).tobytes()
        np.testing.assert_array_equal(state.log_cP, np.log(state.c))
        fresh = DualState(state.problem, state.gamma, u=state.u, v=state.v)
        np.testing.assert_allclose(fresh.log_cP, np.log(state.c), rtol=0, atol=1e-13)
        np.testing.assert_allclose(fresh.log_rP, state.log_rP, rtol=0, atol=1e-13)

    def test_rebalance_takes_all_known_sums_or_none(self):
        state = anchored()
        u, v = state.u.copy(), state.v.copy()
        for args in ((u, v), (None, None, state.log_cP), (u, None, state.log_cP)):
            with pytest.raises(TypeError):
                state.rebalance_columns(*args)
        assert state.u.tobytes() == u.tobytes() and state.v.tobytes() == v.tobytes()

    @pytest.mark.parametrize("build, passes", [("dense", 5), ("sparse", 5),
                                               ("sparse-fallback", 9)])
    def test_anchored_plan_anchors_at_the_column_maxima(self, build, passes, monkeypatch):
        # A dense anchor takes the maxima in its own first pass; a sparse one
        # takes them first (1), then builds the CSR (4), and falls back to a
        # dense plan at the same potentials (4) past its limit.
        sparse = build != "dense"
        monkeypatch.setattr(dual, "sparse_anchor", lambda n, prev_nnz: sparse)
        monkeypatch.setattr(dual, "sparse_limit",
                            lambda n: 0 if build == "sparse-fallback" else n * n)
        state = random_state(12, seed=6, gamma=8.0)
        m = (state.u[:, None] - state.gamma * state.problem.C).max(axis=0)
        with opcount.category("t"):
            before = opcount.snapshot().get("t", 0)
            P0 = state.anchored_plan()[0]
            assert opcount.snapshot()["t"] - before == passes
            assert isinstance(P0, SparsePlan) == (build == "sparse")
            if build == "sparse":
                _, _, indptr, indices, data = P0.rows
                P0 = scipy.sparse.csr_array((data, indices, indptr), shape=P0.shape).toarray()
            np.testing.assert_array_equal(state._anchor[1], -m)
            assert (P0.max(axis=0) == 1.0).all()
            # covered now: no pass
            state.anchored_plan()
            assert opcount.snapshot()["t"] - before == passes

    def test_overflowing_warm_start_anchors_at_the_column_maxima(self):
        # Log plan entries above 700 would overflow a plan materialized at
        # the potentials; the one at the column maxima has maxima 1.
        state = random_state(12, seed=6, gamma=8.0)
        state.set_potentials(state.u, state.v + 800.0)
        C, gamma = state.problem.C, state.gamma
        assert (state.u[:, None] + state.v[None, :] - gamma * C).max() > 700.0
        P0, a, _ = state.anchored_plan()
        assert not a.any()
        np.testing.assert_allclose(P0.max(axis=0), 1.0, rtol=0, atol=1e-12)

    def test_covered_entry_rebalance_takes_no_anchor(self):
        # v from the covering anchor and one transposed product, then the
        # row product: two passes.
        state = anchored()
        state.set_potentials(state.u + 0.2, state.v - 0.1)
        anchor = state._anchor
        with opcount.category("t"):
            before = opcount.snapshot().get("t", 0)
            state.rebalance_columns()
            assert opcount.snapshot()["t"] - before == 2
        assert state._anchor is anchor
        fresh = DualState(state.problem, state.gamma, u=state.u, v=state.v)
        np.testing.assert_allclose(fresh.col_sums(), state.c, rtol=1e-13, atol=0)

    def test_set_gamma_drops_the_anchor(self):
        # The next sums anchor at the new temperature's row maxima, and the
        # column sums come from that anchor (maxima 1, plan 4, two products).
        state = anchored()
        state.set_gamma(9.0)
        assert math.isnan(state.plan_density)
        with opcount.category("t"):
            before = opcount.snapshot().get("t", 0)
            state.refresh()
            assert opcount.snapshot()["t"] - before == 1 + 4 + 2
        np.testing.assert_array_equal(state._anchor[0],
                                      -log_plan_max(state.problem.C, 9.0, state.v, 1))
        assert_no_less_accurate_than_lse(state.problem.C, 9.0, state.u, state.v,
                                         state.log_rP, state.log_cP)

    def test_anchor_entries_at_most_one(self):
        # Every anchor is taken at maxima, which the Newton system's squared
        # product relies on: a column anchor's column maxima are exactly 1, a
        # row anchor's row maxima are 1 up to the rounding of the log entries
        # (u is added before v), and no entry reaches 2.
        state = random_state(40, seed=3, gamma=50.0, spread=30.0)
        P0 = state.anchored_plan()[0]
        assert (P0.max(axis=0) == 1.0).all() and P0.max() == 1.0
        state.set_gamma(60.0)
        state._serving_anchor(state.u, state.v, 1)  # as the row sums anchor
        P0 = state._plan
        np.testing.assert_array_equal(state._anchor[0],
                                      -log_plan_max(state.problem.C, 60.0, state.v, 1))
        np.testing.assert_allclose(P0.max(axis=1), 1.0, rtol=0, atol=1e-12)
        assert P0.max() < 2.0


def spy_products(monkeypatch):
    """Count the plan products: every sum and Newton product is one."""
    products = []
    real = _kernels.plan_matvec
    monkeypatch.setattr(_kernels, "plan_matvec",
                        lambda *args, **kw: products.append(1) or real(*args, **kw))
    return products


def fresh_base(state):
    """The line-search base sums from a new transposed product."""
    u0, v0 = state._anchor
    return (state.v - v0) + log_plan_matvec(state._plan, state.u - u0, transpose=True)


class TestKeptColumnProduct:
    """The last transposed product taken from the anchor serves a line
    search's base sums when they are at its row offsets, and goes with the
    anchor."""

    def test_base_after_a_column_product_takes_none(self, monkeypatch):
        products = spy_products(monkeypatch)
        state = anchored()
        d_u = np.random.default_rng(3).standard_normal(12)
        d_v = np.zeros(12)
        before = len(products)
        base = state.base_log_col_sums(d_u, d_v)
        assert len(products) == before
        assert base.tobytes() == fresh_base(state).tobytes()
        # At other offsets it takes one, and keeps that one.
        state.trial_log_col_sums(d_u, d_v, 0.5)
        state.set_potentials(state.u + 0.25 * d_u, state.v)
        before = len(products)
        base = state.base_log_col_sums(d_u, d_v)
        assert len(products) == before + 1
        assert base.tobytes() == fresh_base(state).tobytes()

    def test_dropped_with_the_anchor(self):
        # set_gamma, a new anchor and release_plan each let it go.  A new
        # anchor at the column maxima of the same u has offsets 0 again, as
        # the last, so a kept product would match them bit for bit.
        state = anchored()
        assert state._col_product is not None
        state.set_gamma(9.0)
        assert state._col_product is None
        state = anchored()
        assert not (state.u - state._anchor[0]).any()
        state.set_potentials(state.u + 0.5, state.v - 2.0 * OFFSET_RANGE)
        state.anchored_plan()  # beyond the range: a new anchor at the column maxima
        assert state._col_product is None
        d = np.zeros(12)
        assert state.base_log_col_sums(d, d).tobytes() == fresh_base(state).tobytes()
        state = anchored()
        state.release_plan()
        assert state._col_product is None

    def test_line_search_bases_in_a_solve_take_no_product(self, monkeypatch):
        # Each line search's base sums come from the last transposed product
        # taken from the anchor (the entry rebalance's, a chi-square sweep's
        # or the accepted trial's), byte for byte equal to a new one.  Most
        # of these projections take no chi-square sweep.
        products = spy_products(monkeypatch)
        bases = []
        real_base = DualState.base_log_col_sums

        def base(state, d_u, d_v):
            before = len(products)
            got = real_base(state, d_u, d_v)
            bases.append((len(products) - before, got.tobytes() == fresh_base(state).tobytes()))
            return got

        monkeypatch.setattr(DualState, "base_log_col_sums", base)
        prob = Problem(C=grid_points_cost(64, "l1"), r=gen_marginal(64, "smooth-random", 0),
                       c=gen_marginal(64, "smooth-random", 1))
        sol = mdot(prob, 2.0 ** 5, 2.0 ** 10)
        unswept = [it.stats.newton_steps for it in sol.iterations
                   if it.stats.sinkhorn_steps == 0]
        assert len(unswept) >= 5 and min(unswept) >= 1
        assert bases == [(0, True)] * sum(it.stats.newton_steps for it in sol.iterations)



class TestSparseScaleBound:
    """A sparse anchor at its flush floor serves offsets while max a + max b
    stays within its budget, ``SPARSE_SCALE_MAX``, so a line search
    re-anchors only at trials whose plan holds an entry above
    e^SPARSE_SCALE_MAX, which no anchor at maxima (entries at most 1) can
    serve."""

    @pytest.mark.parametrize("shift,anchors", [(0.5 * SPARSE_SCALE_MAX, [0, 0, 0, 0]),
                                               (1.5 * SPARSE_SCALE_MAX, [0, 0, 1, 1])])
    def test_line_search_does_not_reanchor_on_every_trial(self, shift, anchors, monkeypatch):
        # After the entry rebalance every column's largest entry is at most
        # c_j; a shift of v raises them all by e^shift, to above 1 at half
        # the bound (where a bound of 0 would re-anchor at every use) and
        # above e^SPARSE_SCALE_MAX at one and a half.  The search steps back
        # along d_v = -shift, so its trial at alpha has column maxima below
        # e^((1 - alpha) shift): at one and a half the bound, the anchor at
        # the state's column maxima serves alpha = 1 and 1/2, and each of
        # 1/4 and 1/8 anchors at its own.
        # The plan has one tile, where flush_floor gives EXP_FLOOR and so a
        # budget as large as a dense anchor's; the floor a larger plan would
        # take at these targets gives the budget SPARSE_SCALE_MAX.
        monkeypatch.setattr(dual, "sparse_anchor", lambda n, prev_nnz: True)
        monkeypatch.setattr(dual, "sparse_limit", lambda n: n * n)
        monkeypatch.setattr(dual, "flush_floor",
                            lambda n, r, c: dual._log_drop_share(n, r, c) - SPARSE_SCALE_MAX)
        state = anchored()
        assert isinstance(state._plan, SparsePlan)
        assert state.budget == pytest.approx(SPARSE_SCALE_MAX, abs=1e-12)  # up to rounding
        state.set_potentials(state.u, state.v + shift)
        C, gamma = state.problem.C, state.gamma
        top = log_plan_max(C, gamma, state.u, 0) + state.v
        assert top.min() > 0.0 and (top.max() > SPARSE_SCALE_MAX) == (shift > SPARSE_SCALE_MAX)
        state.log_cP  # the sums a search starts from, cached
        built = []
        materialize = dual.materialize_plan
        monkeypatch.setattr(dual, "materialize_plan",
                            lambda *args, **kw: built.append(1) or materialize(*args, **kw))
        d_u = 0.1 * np.random.default_rng(3).standard_normal(12)
        d_v = np.full(12, -shift)
        state.base_log_col_sums(d_u, d_v)
        assert not built
        got = []
        for alpha in (1.0, 0.5, 0.25, 0.125):
            cols = state.trial_log_col_sums(d_u, d_v, alpha)
            got.append(len(built))
            built.clear()
            assert_no_less_accurate_than_lse(C, gamma, state.u + alpha * d_u,
                                             state.v + alpha * d_v, cols=cols)
        assert got == anchors
