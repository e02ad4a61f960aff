"""The dense kernels: reference agreement, the exp floor, and the sums and
Newton systems served from the anchored plan."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from dense_reference import (assert_no_less_accurate_than_lse, log_plan, long_double_sums,
                             lse_col_sums, lse_row_sums, plan_at)
from scipy.special import logsumexp

from otnewton import _kernels, dual, opcount
from otnewton._kernels import (BLOCK, EXP_FLOOR, LOG_OVERFLOW, PLAN_FLOOR, SparsePlan,
                               log_plan_max, materialize_plan,
                               plan_cost, plan_matvec, scale_plan, square_matvec, tile_rows)
from otnewton.driver import round_plan
from otnewton.dual import PLAN_OFFSET_MAX, DualState
from otnewton.errors import PlanOverflowError
from otnewton.newton import DiscountedSystem
from otnewton.problems import Problem, gen_marginal

# The reference LSE sums the shifted exponentials whole, scipy's separates
# the largest term (log1p); the two differ by rounding, a few ulps of the result.
LSE_ATOL = 1e-13


def assert_matches_lse(got, X, shift):
    """``got`` is ``shift + logsumexp(X)`` over rows, to ``LSE_ATOL``."""
    with np.errstate(under="ignore"):
        ref = shift + logsumexp(X, axis=1)
    np.testing.assert_array_equal(np.isneginf(got), np.isneginf(ref))
    np.testing.assert_allclose(got, ref, rtol=0, atol=LSE_ATOL)


class TestBlockedKernels:
    """The tiled internal kernels agree with the reference reductions."""

    def test_fused_log_kernel_matches_built_one(self, monkeypatch):
        # The kernels form -gamma C inside each tile; their output must match
        # the same expressions over a stored log kernel K = -gamma * C, and
        # stay the same bit for bit whatever the tile size.
        rng = np.random.default_rng(13)
        n = BLOCK + 17  # force a partial tail block
        C = rng.uniform(size=(n, n))
        gamma = 37.3
        u, v = 5.0 * rng.normal(size=n), 5.0 * rng.normal(size=n)
        K = -gamma * C
        plan = materialize_plan(C, gamma, u, v)[0]
        col_max, row_max = log_plan_max(C, gamma, u, 0), log_plan_max(C, gamma, v, 1)
        np.testing.assert_array_equal(plan, np.exp(log_plan(C, gamma, u, v)))
        np.testing.assert_array_equal(col_max, (K + u[:, None]).max(axis=0))
        np.testing.assert_array_equal(row_max, (K + v[None, :]).max(axis=1))
        for block in (8, n + 1):  # many small tiles, then one tile
            monkeypatch.setattr(_kernels, "BLOCK", block)
            assert materialize_plan(C, gamma, u, v)[0].tobytes() == plan.tobytes()
            assert log_plan_max(C, gamma, u, 0).tobytes() == col_max.tobytes()
            assert log_plan_max(C, gamma, v, 1).tobytes() == row_max.tobytes()

    def test_square_matvec_matches_reference(self):
        rng = np.random.default_rng(10)
        n = BLOCK + 3
        P = rng.random((n, n))
        w = rng.random(n)
        np.testing.assert_allclose(square_matvec(P, w), (P * P) @ w, rtol=1e-13)

    @pytest.mark.parametrize("n", [64, BLOCK + 17, 4 * BLOCK])
    def test_square_matvec_bitwise_equal_and_tiled(self, n):
        # Each row's product is the untiled one bit for bit, and the kernel
        # holds one BLOCK * BLOCK tile besides O(n) vectors and numpy's fixed
        # 8192-element ufunc buffer.
        rng = np.random.default_rng(n)
        P, w = rng.random((n, n)) ** 3, rng.random(n)
        tracemalloc.start()
        try:
            out = square_matvec(P, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.tobytes() == ((P * P) @ w).tobytes()
        assert peak <= min(tile_rows(n), n) * n * 8 + 8 * 8192 + 8 * n * 8

    def test_maxima_match_reference(self):
        rng = np.random.default_rng(14)
        n = BLOCK + 17
        C = rng.uniform(size=(n, n))
        u, v = 5.0 * rng.normal(size=n), 5.0 * rng.normal(size=n)
        np.testing.assert_array_equal(log_plan_max(C, 37.3, u, 0),
                                      (-37.3 * C + u[:, None]).max(axis=0))
        np.testing.assert_array_equal(log_plan_max(C, 37.3, v, 1),
                                      (-37.3 * C + v[None, :]).max(axis=1))

    def test_materialize_matches_reference(self):
        rng = np.random.default_rng(11)
        K = rng.normal(size=(7, 7))
        u = rng.normal(size=7)
        v = rng.normal(size=7)
        ref = np.exp(u[:, None] + v[None, :] + K)
        np.testing.assert_allclose(materialize_plan(-K, 1.0, u, v)[0], ref, rtol=1e-15)


def col_anchor_case(n, deep):
    """A cost and row potentials whose plan at the column maxima has no
    entry below ``EXP_FLOOR`` (``deep`` False) or, when ``deep``, entries
    below it in the rows of the first half only, so that with more than one
    tile some tiles are flushed and some are not."""
    rng = np.random.default_rng(n)
    C = rng.uniform(size=(n, n))
    if deep:
        C[n // 2:] *= 0.01
    return C, 2000.0 if deep else 37.3, 3.0 * rng.normal(size=n)


class TestColumnAnchor:
    """The dense anchor at the column maxima, built from one read of the cost."""

    @pytest.mark.parametrize("deep", [False, True])
    @pytest.mark.parametrize("n", [64, BLOCK, BLOCK + 17, 4 * BLOCK])
    def test_equals_the_two_pass_build(self, n, deep):
        C, gamma, u = col_anchor_case(n, deep)
        v0 = -log_plan_max(C, gamma, u, 0)
        ref, _, ref_nnz = materialize_plan(C, gamma, u, v0)
        low = log_plan(C, gamma, u, v0) < EXP_FLOOR
        assert low.any() == deep
        rows = tile_rows(n)
        if deep and n > rows:
            assert not low[(n - 1) // rows * rows:].any()  # a last tile with nothing to flush
        with opcount.category("t"):
            before = opcount.snapshot().get("t", 0)
            P, v, nnz = materialize_plan(C, gamma, u, out=np.empty((n, n)))
            assert opcount.snapshot()["t"] - before == 5  # maxima 1, plan 4
        assert P.tobytes() == ref.tobytes()
        assert v.tobytes() == v0.tobytes()
        assert nnz == ref_nnz == low.size - np.count_nonzero(low)
        assert (P.max(axis=0) == 1.0).all()

    @pytest.mark.parametrize("deep", [False, True])
    def test_dense_anchor_allocates_no_tile(self, deep):
        # The maxima pass works in the plan's own rows, so besides O(n)
        # vectors and a tile's mask the anchor allocates well under a tile.
        n = 4 * BLOCK
        C, gamma, u = col_anchor_case(n, deep)
        out = np.empty((n, n))
        tracemalloc.start()
        try:
            materialize_plan(C, gamma, u, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < BLOCK * BLOCK * 8 // 4

    @pytest.mark.parametrize("max_nnz", [None, 10 ** 9])
    @pytest.mark.parametrize("deep", [False, True])
    def test_materialize_rejects_overflow(self, deep, max_nnz):
        # The overflow check comes before the flush, whether or not the tile
        # holds an entry below the floor.
        C, gamma, u = col_anchor_case(BLOCK + 17, deep)
        v = -log_plan_max(C, gamma, u, 0)
        v[5] += LOG_OVERFLOW + 1.0
        with pytest.raises(PlanOverflowError):
            materialize_plan(C, gamma, u, v, max_nnz=max_nnz)


def deep_log_kernel(seed=12):
    """Log kernel spread down to -1e4, with -inf entries and an all -inf row.

    ``u + v + K`` then runs from about 0 to far below ``EXP_FLOOR``; n is
    ``BLOCK + 17`` so the kernels also work through a partial tail tile.
    """
    rng = np.random.default_rng(seed)
    n = BLOCK + 17
    K = -rng.uniform(0.0, 1e4, size=(n, n)) * rng.random((n, 1))
    K[rng.random((n, n)) < 0.05] = -np.inf
    K[3] = -np.inf
    u = rng.normal(size=n)
    v = rng.normal(size=n)
    return K, u, v


class TestExpFloor:
    """No kernel exponentiates below EXP_FLOOR, and plans hold no subnormals."""

    def test_lse_reference_matches_unclamped_one(self):
        # The tests' log-sum-exp reference clamps at the floor; scipy's does not.
        K, u, v = deep_log_kernel()
        got = lse_row_sums(-K, 1.0, u, v)
        assert got[3] == -np.inf
        assert_matches_lse(got, K + v[None, :], u)

    def test_plan_is_exp_above_floor_and_zero_below(self):
        K, u, v = deep_log_kernel()
        logs = log_plan(-K, 1.0, u, v)
        low = logs < EXP_FLOOR
        assert low.any() and not low.all()
        P = materialize_plan(-K, 1.0, u, v)[0]
        assert np.all(P[low] == 0.0)
        np.testing.assert_array_equal(P[~low], np.exp(logs[~low]))

    def test_plan_holds_no_subnormals(self):
        K, u, v = deep_log_kernel()
        P = materialize_plan(-K, 1.0, u, v)[0]
        assert P[P > 0].min() >= np.finfo(float).tiny

    def test_no_exp_argument_below_floor(self, monkeypatch):
        real_exp = np.exp
        lowest = []

        def spy(x, *args, **kwargs):
            lowest.append(np.min(x))
            return real_exp(x, *args, **kwargs)

        monkeypatch.setattr(_kernels.np, "exp", spy)
        K, u, v = deep_log_kernel()
        materialize_plan(-K, 1.0, u, v)
        # The plans anchored at the column and row maxima, over a finite cost
        # as a problem's is: their largest entries are 1.
        C = -np.maximum(K, -2e4)
        materialize_plan(C, 1.0, u, -log_plan_max(C, 1.0, u, 0))
        materialize_plan(C, 1.0, -log_plan_max(C, 1.0, v, 1), v)
        monkeypatch.undo()
        assert len(lowest) == 6  # one exp per tile, two tiles per call
        assert min(lowest) >= EXP_FLOOR

    def test_rounded_plan_holds_no_subnormals(self):
        # Powers of two keep every step exact: the row scale 2^-31 pushes the
        # off-diagonal entries 2^-1000 (above the floor) to the subnormal
        # 2^-1031, and no deficit is left for the rank-one repair to fill.
        n = 4
        P = np.full((n, n), np.ldexp(1.0, -1000))
        np.fill_diagonal(P, np.ldexp(1.0, 29))
        assert P.min() > np.exp(EXP_FLOOR)
        r = c = np.full(n, 0.25)
        rounded = round_plan(P, r, c)
        np.testing.assert_array_equal(rounded, np.diag(r))


def anchored_state(cost, kind, gamma, monkeypatch, deterministic, sparse=False, n=BLOCK + 17):
    """A state anchored at potentials of size O(gamma), as in a late solve.

    The potentials are the double c-transform of zero scaled by gamma, plus
    the log marginals and a gauge shift of gamma / 2, so ``u + v - gamma C``
    cancels terms of size gamma.  With ``sparse`` the anchor is a
    ``SparsePlan`` whatever its density.
    """
    if cost == "l1-line":
        x = np.arange(n) / (n - 1)
        C = np.abs(x[:, None] - x[None, :])
    else:  # a non-symmetric cost
        C = np.random.default_rng(3).uniform(size=(n, n))
    f = C.min(axis=1)
    g = (C - f[:, None]).min(axis=0)
    r, c = gen_marginal(n, kind, 1), gen_marginal(n, kind, 2)
    monkeypatch.setenv("OTN_DETERMINISTIC", deterministic)
    state = DualState(Problem(C=C, r=r, c=c), gamma,
                      u=gamma * (f + 0.5) + np.log(r), v=gamma * (g - 0.5) + np.log(c))
    if sparse:
        monkeypatch.setattr(dual, "sparse_anchor", lambda n, prev_nnz: True)
        monkeypatch.setattr(dual, "sparse_limit", lambda n: n * n)
    state._anchor_plan(state.u, state.v)
    assert isinstance(state.anchored_plan()[0], SparsePlan) == sparse
    return state


def offsets(n, size, seed=5):
    """Offsets (a, b) with |a|_inf + |b|_inf = size."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    return a * (0.5 * size / np.abs(a).max()), b * (0.5 * size / np.abs(b).max())


def refresh_passes(state):
    with opcount.category("refresh"):
        before = opcount.snapshot().get("refresh", 0)
        state.refresh()
        return opcount.snapshot()["refresh"] - before


class TestAnchoredPlanSums:
    """Sums served by one product with the anchored plan, against long double.

    Over all row and column sums of a case, the plan path's largest and median
    errors must not exceed log-sum-exp's, up to two ulps and one ulp of the
    log sums (the offsets are added to them separately).  Both paths carry
    the noise of rounding ``u + v - gamma C``, whose terms are of size gamma.
    The L1 cost at gamma = 2^14 flushes most plan entries below the floor.
    """

    @pytest.mark.parametrize("deterministic", ["", "1"])
    @pytest.mark.parametrize("kind", ["smooth-random", "spiky-random"])
    @pytest.mark.parametrize("cost,gamma", [("l1-line", 2.0 ** 14), ("nonsymmetric", 2.0 ** 8)])
    @pytest.mark.parametrize("size", [0.0, 1.0, 0.99 * PLAN_OFFSET_MAX])
    def test_no_less_accurate_than_lse(self, cost, gamma, kind, deterministic, size,
                                       monkeypatch):
        state = anchored_state(cost, kind, gamma, monkeypatch, deterministic)
        if cost == "l1-line":
            assert (state.anchored_plan()[0] == 0.0).mean() > 0.5
        assert_sums_no_less_accurate_than_lse(state, size)

    @pytest.mark.parametrize("deterministic", ["", "1"])
    @pytest.mark.parametrize("cost,gamma,size,passes", [
        ("l1-line", 2.0 ** 14, 1.01 * PLAN_OFFSET_MAX, 12),
        ("nonsymmetric", 2.0 ** 8, 1.01 * PLAN_OFFSET_MAX, 7),
        ("l1-line", 2.0 ** 14, 10.0 * PLAN_OFFSET_MAX, 12),
        ("nonsymmetric", 2.0 ** 8, 10.0 * PLAN_OFFSET_MAX, 12)])
    def test_beyond_guard_reanchors_at_the_maxima(self, cost, gamma, size, passes,
                                                  deterministic, monkeypatch):
        # The row sums anchor at the row maxima (maxima 1, plan 4, product
        # 1).  The column sums come from that anchor when it covers the
        # state (one product), else from one at the column maxima (6 more).
        # At 10 times the guard the log plan's entries reach far beyond
        # exp's overflow.
        state = anchored_state(cost, "spiky-random", gamma, monkeypatch, deterministic)
        assert_sums_no_less_accurate_than_lse(state, size, passes)

    def test_fixed_order_matvec_ignores_blas(self, monkeypatch):
        rng = np.random.default_rng(4)
        P, x = rng.random((BLOCK + 17, BLOCK + 17)), rng.random(BLOCK + 17)
        np.testing.assert_array_equal(plan_matvec(P, x, True), (P * x).sum(axis=1))
        np.testing.assert_array_equal(plan_matvec(P, x, True, transpose=True),
                                      (P * x[:, None]).sum(axis=0))
        np.testing.assert_allclose(plan_matvec(P, x, False), P @ x, rtol=1e-13)

    @pytest.mark.parametrize("n", [64, BLOCK + 17, 4 * BLOCK])
    def test_fixed_order_matvec_is_row_blocked(self, n):
        # Bit-equal to the untiled sums, and never holding more than one
        # BLOCK * BLOCK tile: the rest is O(n) vectors plus numpy's fixed
        # 8192-element ufunc buffer.
        rng = np.random.default_rng(n)
        P, x = rng.random((n, n)) ** 3, rng.standard_normal(n)
        for transpose, ref in ((False, (P * x).sum(axis=1)),
                               (True, (P * x[:, None]).sum(axis=0))):
            tracemalloc.start()
            try:
                out = plan_matvec(P, x, True, transpose=transpose)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.tobytes() == ref.tobytes()
            assert peak <= min(tile_rows(n), n) * n * 8 + 8 * 8192 + 8 * n * 8

    @pytest.mark.parametrize("n", [64, BLOCK + 17])
    def test_fixed_order_cost_is_the_untiled_sum(self, n):
        rng = np.random.default_rng(n)
        P, C = rng.random((n, n)) ** 3, rng.random((n, n))
        assert plan_cost(P, C) == (P * C).sum(axis=1).sum()


class TestScaledNewtonSystem:
    """The Newton system served from the anchored plan by diagonal scaling,
    ``D(e^a) P0 D(e^b)``, against the one built from the plan materialized at
    the current potentials, both measured against long double.

    Each output's error is taken relative to the same product with ``|d|``
    (the scale every rounding in a matrix-vector product is bounded by).  The
    scaled system's largest and median errors must not exceed the
    materialized one's, up to the few roundings the scalings add: 4 u in the
    largest and u in the median, u = 2^-53.  Both systems take the same row
    and column sums, so only the plan differs.
    """

    @pytest.mark.parametrize("deterministic", ["", "1"])
    @pytest.mark.parametrize("size", [0.0, 1.0, 0.99 * PLAN_OFFSET_MAX])
    def test_no_less_accurate_than_materialized(self, deterministic, size, monkeypatch):
        state = anchored_state("nonsymmetric", "spiky-random", 2.0 ** 8, monkeypatch,
                               deterministic)
        assert_system_no_less_accurate_than_materialized(state, size)


class TestScaledSquare:
    """``square_matvec`` scales the entries by a power of two before it
    squares them, from a bound on the entries.  Over the widest entries a
    plan holds and weights far from 1 it stays finite and meets
    ``TestScaledNewtonSystem``'s criterion against the unscaled product,
    both measured against long double."""

    @pytest.mark.parametrize("sparse", [False, True])
    def test_wide_entries_and_weights(self, sparse):
        rng = np.random.default_rng(24)
        n = BLOCK + 17
        P = np.exp(EXP_FLOOR * rng.random((n, n)))  # entries in [PLAN_FLOOR, 1]
        P[0, :2] = 1.0, PLAN_FLOOR
        if sparse:
            P *= (rng.random((n, n)) < 0.1) | np.eye(n, dtype=bool)
        w = 10.0 ** rng.uniform(-250.0, 250.0, n)
        w[:2] = 1e-250, 1e250
        got = square_matvec(sparse_of(P) if sparse else P, w, top=1.0)
        assert np.all(np.isfinite(got))
        ld = np.longdouble
        ref = (P.astype(ld) ** 2) @ w.astype(ld)  # all terms positive: its own scale
        err = (np.abs(got - ref) / ref).astype(float)
        base_err = (np.abs((P * P) @ w - ref) / ref).astype(float)
        u = np.finfo(float).eps / 2
        assert err.max() <= base_err.max() + 4.0 * u
        assert np.median(err) <= np.median(base_err) + u

    @pytest.mark.parametrize("log_top", [300.0, 600.0])
    def test_bare_plan_above_one_with_tiny_weights(self, log_top):
        # A system of a bare plan bounds its entries by their largest, here
        # e^300 (squares finite unscaled) or e^600 (squares past float64,
        # scaled down), with weights 1 / cP near e^-log_top.  Any bound of 1
        # would overflow the squares.
        rng = np.random.default_rng(25)
        n = BLOCK + 17
        P = np.exp(log_top * rng.random((n, n)))
        sys = DiscountedSystem(P, P.sum(axis=1), P.sum(axis=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mu = sys.diag_prc()
        ld = np.longdouble
        P_ld = P.astype(ld)
        ref = ((P_ld * P_ld) @ (1 / sys.cP.astype(ld))) / sys.rP.astype(ld)
        np.testing.assert_allclose(mu, ref.astype(float), rtol=1e-13, atol=0)


def assert_sums_no_less_accurate_than_lse(state, size, passes=2):
    """``TestAnchoredPlanSums``' criterion, at offsets of ``size`` from the
    anchor, whose refresh takes ``passes`` (by default one matvec per side)."""
    a, b = offsets(state.n, size)
    state.set_potentials(state.u + a, state.v + b)
    assert refresh_passes(state) == passes
    assert_no_less_accurate_than_lse(state.problem.C, state.gamma, state.u, state.v,
                                     state.log_rP, state.log_cP)


def assert_system_no_less_accurate_than_materialized(state, size):
    """``TestScaledNewtonSystem``' criterion, at offsets of ``size`` from the anchor."""
    a, b = offsets(state.n, size)
    state.set_potentials(state.u + a, state.v + b)
    rP, cP = state.row_sums(), state.col_sums()
    scaled = DiscountedSystem.from_state(state)
    assert scaled.P is state.anchored_plan()[0]  # served from the anchor
    plain = DiscountedSystem(plan_at(state), rP, cP)

    ld = np.longdouble
    P = np.exp(state.u.astype(ld)[:, None] + state.v.astype(ld)[None, :]
               - ld(state.gamma) * state.problem.C.astype(ld))
    rP_ld, cP_ld = rP.astype(ld), cP.astype(ld)
    d = np.random.default_rng(8).standard_normal(state.n)
    d_ld, abs_d = d.astype(ld), np.abs(d).astype(ld)
    mu = ((P * P) @ (1 / cP_ld)) / rP_ld
    cases = (  # (operator, long double value, its scale)
        (lambda s: s.round_trip(d), P @ ((P.T @ d_ld) / cP_ld),
         P @ ((P.T @ abs_d) / cP_ld)),
        (lambda s: s.apply_pc(d), (P.T @ d_ld) / cP_ld, (P.T @ abs_d) / cP_ld),
        (lambda s: s.diag_prc(), mu, mu),
    )
    u = np.finfo(float).eps / 2
    for op, ref, scale in cases:
        err = (np.abs(op(scaled) - ref) / scale).astype(float)
        base_err = (np.abs(op(plain) - ref) / scale).astype(float)
        assert err.max() <= base_err.max() + 4.0 * u
        assert np.median(err) <= np.median(base_err) + u


def entry_state(cost, kind, gamma, monkeypatch, deterministic):
    """An unanchored state at the potentials of ``anchored_state``, moved off
    balance by offsets of size 1, as a warm start reaches a projection."""
    state = anchored_state(cost, kind, gamma, monkeypatch, deterministic)
    a, b = offsets(state.n, 1.0, seed=7)
    return DualState(state.problem, gamma, u=state.u + a, v=state.v + b)


class TestEntryRebalance:
    """The entry column rebalance anchors at the column maxima, without
    log-sum-exp, and meets ``TestAnchoredPlanSums``' criterion against the
    log-sum-exp rebalance it replaces: each rebalanced state's cached log
    sums (the column sums are log c by construction), measured against long
    double at its own potentials.  Both carry the rounding of the new v."""

    @pytest.mark.parametrize("deterministic", ["", "1"])
    @pytest.mark.parametrize("kind", ["smooth-random", "spiky-random"])
    @pytest.mark.parametrize("cost,gamma", [("l1-line", 2.0 ** 14), ("nonsymmetric", 2.0 ** 8)])
    def test_no_less_accurate_than_lse(self, cost, gamma, kind, deterministic, monkeypatch):
        state = entry_state(cost, kind, gamma, monkeypatch, deterministic)
        u, C, log_c = state.u, state.problem.C, np.log(state.c)
        with opcount.category("entry"):
            before = opcount.snapshot().get("entry", 0)
            state.rebalance_columns()
            # column maxima, one plan, one product per side: no log-sum-exp
            assert opcount.snapshot()["entry"] - before == 1 + 4 + 1 + 1
        P0, a, _ = state.anchored_plan()
        assert not a.any()
        assert P0.max(axis=0).max() <= 1.0 + 1e-12
        np.testing.assert_array_equal(state.log_cP, log_c)
        # The log-sum-exp rebalance: v from the column log-sum-exp, row sums
        # from the plan anchored there.
        v_lse = log_c - lse_col_sums(C, gamma, u, 0.0)
        lse = DualState(state.problem, gamma, u=u, v=v_lse)
        lse._anchor_plan(lse.u, lse.v)
        errs = []
        for st in (state, lse):
            ref_rows, ref_cols = long_double_sums(C, gamma, st.u, st.v)
            errs.append(np.abs(np.concatenate([st.log_rP - ref_rows, log_c - ref_cols]))
                        .astype(float))
        err, lse_err = errs
        ulp = np.spacing(np.abs(np.concatenate([state.log_rP, log_c])).max())
        assert err.max() <= lse_err.max() + 2.0 * ulp
        assert np.median(err) <= np.median(lse_err) + ulp

    def test_entry_offset_beyond_the_guard(self):
        # A column target below e^-PLAN_OFFSET_MAX puts the entry offset
        # beyond the guard: v still sets the column sums to c, the row sums
        # anchor at the row maxima of the rebalanced state, and that anchor
        # serves the Newton system.
        n, gamma = 8, 4.0
        c = np.full(n, 1.0)
        c[0] = np.exp(-1.2 * PLAN_OFFSET_MAX)
        c /= c.sum()
        prob = Problem(C=np.random.default_rng(2).uniform(size=(n, n)),
                       r=np.full(n, 1.0 / n), c=c)
        state = DualState(prob, gamma)
        with opcount.category("entry"):
            before = opcount.snapshot().get("entry", 0)
            state.rebalance_columns()
            # column maxima, plan, product; then row maxima, plan, product
            assert opcount.snapshot()["entry"] - before == 2 * (1 + 4 + 1)
        u, v = state.u, state.v
        np.testing.assert_allclose(np.exp(lse_col_sums(prob.C, gamma, u, v)), c, rtol=1e-13)
        assert_no_less_accurate_than_lse(prob.C, gamma, u, v, rows=state.log_rP)
        before = opcount.snapshot().get("anchor", 0)
        with opcount.category("anchor"):
            _, a, b = state.anchored_plan()
        assert opcount.snapshot().get("anchor", 0) == before  # no new anchor
        np.testing.assert_array_equal(a - u, log_plan_max(prob.C, gamma, v, 1))
        assert not b.any()


class TestReleasedPlan:
    """The plan a state hands over at the end of a solve: its anchored plan,
    scaled in place to the current potentials."""

    @pytest.mark.parametrize("deterministic", ["", "1"])
    @pytest.mark.parametrize("cost,gamma", [("l1-line", 2.0 ** 14), ("nonsymmetric", 2.0 ** 8)])
    @pytest.mark.parametrize("size", [0.0, 1.0, 0.99 * PLAN_OFFSET_MAX])
    def test_no_less_accurate_than_materialized(self, cost, gamma, size, deterministic,
                                                monkeypatch):
        # Per entry, relative to long double, over the entries above
        # e^(EXP_FLOOR + PLAN_OFFSET_MAX): below it, an entry the anchor
        # flushed to 0 may have been scaled up to a nonzero value.
        state = anchored_state(cost, "spiky-random", gamma, monkeypatch, deterministic)
        a, b = offsets(state.n, size)
        state.set_potentials(state.u + a, state.v + b)
        fresh = plan_at(state)
        P0 = state.anchored_plan()[0]
        P = state.release_plan()
        assert P is P0  # scaled in place
        ld = np.longdouble
        ref = np.exp(state.u.astype(ld)[:, None] + state.v.astype(ld)[None, :]
                     - ld(state.gamma) * state.problem.C.astype(ld))
        big = ref >= np.exp(ld(EXP_FLOOR + PLAN_OFFSET_MAX))
        assert big.any()
        err = (np.abs(P - ref)[big] / ref[big]).astype(float)
        base_err = (np.abs(fresh - ref)[big] / ref[big]).astype(float)
        u = np.finfo(float).eps / 2
        assert err.max() <= base_err.max() + 4.0 * u
        assert np.median(err) <= np.median(base_err) + u
        assert np.all(P[~big] <= np.exp(EXP_FLOOR + PLAN_OFFSET_MAX))
        assert P[P > 0].min() >= PLAN_FLOOR  # no subnormals

    def test_scaling_flushes_below_the_floor(self):
        # Factors below 1 take the entries at the floor below it, and those
        # of 2^-1000 to subnormals: all come out as 0.
        n = BLOCK + 17
        P = np.full((n, n), PLAN_FLOOR)
        P[:, 0] = 1.0
        P[0, 1] = 2.0 * PLAN_FLOOR  # scaled to 1.5 times the floor: kept
        x, y = np.full(n, 0.75), np.ones(n)
        y[2] = np.ldexp(1.0, -40)
        P[:, 2] = np.ldexp(1.0, -1000)
        ref = P * x[:, None] * y[None, :]
        ref[ref < PLAN_FLOOR] = 0.0
        out = scale_plan(P, x, y)
        assert out is P
        assert P.tobytes() == ref.tobytes()
        assert np.count_nonzero(P) == n + 1

    def test_without_an_anchor_materializes_into_the_buffer(self):
        state = DualState(Problem(C=np.random.default_rng(1).uniform(size=(9, 9)),
                                  r=gen_marginal(9, "smooth-random", 1),
                                  c=gen_marginal(9, "smooth-random", 2)), 8.0)
        state.anchored_plan()
        state.set_gamma(16.0)  # drops the anchor, keeps the buffer
        buf = state.anchored_plan()[0]
        state.set_gamma(32.0)
        P = state.release_plan()
        assert P is buf
        np.testing.assert_array_equal(P, plan_at(state))
        assert state._plan is None


def csr_dense(csr):
    """The dense matrix of ``SparsePlan.rows`` or ``.cols``."""
    rows, cols, indptr, indices, data = csr
    out = np.zeros((rows, cols))
    for i in range(rows):
        out[i, indices[indptr[i]:indptr[i + 1]]] = data[indptr[i]:indptr[i + 1]]
    return out


def sparse_of(P):
    """A ``SparsePlan`` of the dense matrix ``P``, built as an anchor is."""
    n, m = P.shape
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(P, axis=1))]).astype(np.int32)
    indices = np.nonzero(P)[1].astype(np.int32)
    return SparsePlan((n, m), indptr, indices, P[P != 0.0])


class TestSparseAnchor:
    """The anchored plan held as CSR: the switch rule, the entries, and the
    sums and Newton products served from it, which meet the dense plan's
    criteria against long double (``TestAnchoredPlanSums`` and
    ``TestScaledNewtonSystem``) at the densities a sparse anchor has, at
    most 1/8: the L1 line at 2^14 keeps 8% of its entries, the non-symmetric
    cost at 2^13 9%.  (At full density the CSR loop's plain running sums of
    n terms can lose to BLAS by a few ulps.)"""

    @pytest.mark.parametrize("kind", ["smooth-random", "spiky-random"])
    @pytest.mark.parametrize("cost,gamma", [("l1-line", 2.0 ** 14), ("nonsymmetric", 2.0 ** 13)])
    @pytest.mark.parametrize("size", [0.0, 1.0, 0.99 * PLAN_OFFSET_MAX])
    def test_sums_no_less_accurate_than_lse(self, cost, gamma, kind, size, monkeypatch):
        state = anchored_state(cost, kind, gamma, monkeypatch, "", sparse=True)
        assert state.plan_density <= 0.125
        assert_sums_no_less_accurate_than_lse(state, size)

    @pytest.mark.parametrize("cost,gamma", [("l1-line", 2.0 ** 14), ("nonsymmetric", 2.0 ** 13)])
    @pytest.mark.parametrize("size", [0.0, 1.0, 0.99 * PLAN_OFFSET_MAX])
    def test_newton_system_no_less_accurate_than_materialized(self, cost, gamma, size,
                                                              monkeypatch):
        state = anchored_state(cost, "spiky-random", gamma, monkeypatch, "", sparse=True)
        assert state.plan_density <= 0.125
        assert_system_no_less_accurate_than_materialized(state, size)

    def test_entries_bitwise_equal_to_dense(self):
        K, u, v = deep_log_kernel()
        P, _, nnz = materialize_plan(-K, 1.0, u, v)
        S, _, sparse_nnz = materialize_plan(-K, 1.0, u, v, max_nnz=P.size)
        assert nnz == sparse_nnz == len(S.rows[4]) == np.count_nonzero(P) < P.size
        assert csr_dense(S.rows).tobytes() == P.tobytes()
        assert csr_dense(S.cols).tobytes() == np.ascontiguousarray(P.T).tobytes()
        assert S.top == P.max()

    def test_product_equals_unscaled_without_subnormals(self):
        # No term or result is subnormal, so the power-of-two scaling changes
        # no bit: the products equal scipy's own CSR product.
        sp = pytest.importorskip("scipy.sparse")
        rng = np.random.default_rng(21)
        n = BLOCK + 17
        P = rng.uniform(0.5, 1.0, (n, n)) * (rng.random((n, n)) < 0.1)
        S, x = sparse_of(P), rng.standard_normal(n)
        A = sp.csr_array(P)
        assert plan_matvec(S, x, False).tobytes() == (A @ x).tobytes()
        assert plan_matvec(S, x, False, transpose=True).tobytes() == (A.T @ x).tobytes()
        assert square_matvec(S, x).tobytes() == (A.multiply(A) @ x).tobytes()

    @pytest.mark.parametrize("scale", [1e-9, 1e-300])
    def test_tiny_terms_scaled_out_of_the_subnormals(self, scale):
        # Entries near e^-700 against inputs near 1e-9 make subnormal terms,
        # near 1e-300 terms below the smallest subnormal; one row mixes them
        # with an entry of 1.  Each result is within one rounding of its
        # long-double value on the subnormal grid, or relatively where normal.
        rng = np.random.default_rng(22)
        n = 16
        P = np.exp(EXP_FLOOR + rng.uniform(0.0, 1.0, (n, n)))
        P[0, 0] = 1.0
        S, x = sparse_of(P), scale * rng.uniform(1.0, 2.0, n)
        ld = np.longdouble
        P_ld, x_ld = P.astype(ld), x.astype(ld)
        for got, ref in ((plan_matvec(S, x, False), P_ld @ x_ld),
                         (plan_matvec(S, x, False, transpose=True), P_ld.T @ x_ld)):
            err = np.abs(got - ref).astype(float)
            tiny = np.finfo(float).smallest_subnormal
            assert np.all(err <= np.maximum(tiny, 2.0 * np.finfo(float).eps * np.abs(got)))
        assert plan_matvec(S, x, False)[0] == x[0]  # the entry 1 dominates

    def test_entry_near_overflow_does_not_overflow(self):
        rng = np.random.default_rng(23)
        n = BLOCK + 17
        P = rng.uniform(0.5, 1.0, (n, n)) * (rng.random((n, n)) < 0.1)
        P[3, 5] = np.exp(699.5)
        S = sparse_of(P)
        ld = np.longdouble
        for x in (rng.uniform(1.0, 2.0, n), 1e-9 * rng.uniform(1.0, 2.0, n)):
            got = plan_matvec(S, x, False)
            assert np.all(np.isfinite(got))
            ref = P.astype(ld) @ x.astype(ld)
            assert np.all(np.abs(got - ref) <= 4.0 * np.finfo(float).eps * np.abs(ref))

    def test_switch_rule(self):
        n = BLOCK + 1
        assert not dual.sparse_anchor(BLOCK, 0)
        assert not dual.sparse_anchor(n, None)  # a solve's first anchor
        assert dual.sparse_anchor(n, n * n // 4)
        assert not dual.sparse_anchor(n, n * n // 4 + 1)
        assert dual.sparse_limit(n) == n * n // 8

    @pytest.mark.parametrize("n", [BLOCK, BLOCK + 17])
    def test_sparse_after_a_sparse_enough_anchor(self, n, monkeypatch):
        # The L1 line at 2^14 keeps about 8% of its entries: the first anchor
        # is dense, the next one CSR when the plan spans more than one tile.
        state = anchored_state("l1-line", "smooth-random", 2.0 ** 14, monkeypatch, "", n=n)
        density = state.plan_density
        assert 0.0 < density <= 0.125
        state.set_gamma(state.gamma)
        assert math.isnan(state.plan_density)
        P = state.anchored_plan()[0]
        assert isinstance(P, SparsePlan) == (n > BLOCK)
        assert state.plan_density == density

    def test_dense_after_a_dense_anchor(self, monkeypatch):
        # At 2^12 about 31% of the entries are kept, above the quarter.
        state = anchored_state("l1-line", "smooth-random", 2.0 ** 12, monkeypatch, "")
        assert state.plan_density > 0.25
        state.set_gamma(state.gamma)
        assert isinstance(state.anchored_plan()[0], np.ndarray)

    def test_falls_back_to_dense_past_an_eighth(self, monkeypatch):
        # A gauge-free shift of 2 x 200 raises every entry by e^400: the
        # sparse build passes n^2 / 8 nonzeros and the plan is made dense,
        # bitwise equal to a fresh materialization.
        state = anchored_state("l1-line", "smooth-random", 2.0 ** 14, monkeypatch, "")
        state.set_potentials(state.u + 200.0, state.v + 200.0)
        state.set_gamma(state.gamma)
        with opcount.category("anchor"):
            before = opcount.snapshot().get("anchor", 0)
            state._anchor_plan(state.u, state.v)
            assert opcount.snapshot()["anchor"] - before == 4 + 4  # the stopped build, then dense
        P = state.anchored_plan()[0]
        assert isinstance(P, np.ndarray)
        assert state.plan_density > 0.125
        assert P.tobytes() == plan_at(state).tobytes()

    def test_release_materializes_the_final_plan(self, monkeypatch):
        state = anchored_state("l1-line", "spiky-random", 2.0 ** 14, monkeypatch, "",
                               sparse=True)
        a, b = offsets(state.n, 1.0)
        state.set_potentials(state.u + a, state.v + b)
        P = state.release_plan()
        assert P.tobytes() == plan_at(state).tobytes()
        assert state._plan is None
