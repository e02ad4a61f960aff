"""The dense kernels: reference agreement, the exp floor, and the sums and
Newton systems served from the anchored plan."""

import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from dense_reference import (assert_no_less_accurate_than_lse, log_plan, long_double_sums,
                             plan_at)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array
from scipy.special import logsumexp

from otnewton import _kernels, dual, opcount
from otnewton._kernels import (BLOCK, EXP_FLOOR, LOG_OVERFLOW, PLAN_FLOOR, SparsePlan,
                               log_plan_max, materialize_plan, plan_cost, plan_matvec,
                               round_plan, scale_plan, square_matvec, tile_rows)
from otnewton.dual import OFFSET_RANGE, SPARSE_SCALE_MAX, DualState
from otnewton.errors import ConditioningError, PlanOverflowError
from otnewton.newton import DiscountedSystem
from otnewton.problems import Problem, gen_marginal

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

    def test_flush_sets_what_is_below_the_floor_to_zero(self):
        # Below, at and above the floor, negative, -0.0, NaN, subnormal and
        # infinite entries, each flushed as the three idioms the kernels'
        # flush replaced would, bit for bit: below the floor (negatives and
        # -0.0 too) to +0.0, the rest as they are.
        above = np.nextafter(PLAN_FLOOR, 1.0)
        flushed = [PLAN_FLOOR / 2, np.nextafter(PLAN_FLOOR, 0.0), -1.0, -PLAN_FLOOR,
                   0.0, -0.0, 5e-324, np.finfo(float).tiny / 2, -np.inf]
        kept = [PLAN_FLOOR, above, 1.0, np.nan, np.inf]
        b = np.array((flushed + kept) * 2).reshape(2, -1)
        expected = np.array(([0.0] * len(flushed) + kept) * 2).reshape(2, -1)
        copied, indexed, masked = b.copy(), b.copy(), b.copy()
        np.copyto(copied, 0.0, where=copied < PLAN_FLOOR)
        indexed[indexed < PLAN_FLOOR] = 0.0
        np.putmask(masked, masked < PLAN_FLOOR, 0.0)
        _kernels._flush(b)
        assert b.tobytes() == expected.tobytes()
        assert copied.tobytes() == indexed.tobytes() == masked.tobytes() == expected.tobytes()


def anchored_state(cost, kind, gamma, monkeypatch, sparse=False, n=BLOCK + 17):
    """A state anchored at potentials of size O(gamma), as in a late solve.

    The potentials are the double c-transform of zero scaled by gamma, plus
    the log marginals and a gauge shift of gamma / 2, so ``u + v - gamma C``
    cancels terms of size gamma.  With ``sparse`` True every anchor the state
    takes is a ``SparsePlan`` whatever its density, with False every anchor
    is dense, and with None the switch rule (``dual.sparse_anchor``) picks,
    as in a solve: the first anchor is then dense.
    """
    if cost == "l1-line":
        x = np.arange(n) / (n - 1)
        C = np.abs(x[:, None] - x[None, :])
    else:  # a non-symmetric cost
        C = np.random.default_rng(3).uniform(size=(n, n))
    f = C.min(axis=1)
    g = (C - f[:, None]).min(axis=0)
    r, c = gen_marginal(n, kind, 1), gen_marginal(n, kind, 2)
    state = DualState(Problem(C=C, r=r, c=c), gamma,
                      u=gamma * (f + 0.5) + np.log(r), v=gamma * (g - 0.5) + np.log(c))
    if sparse is not None:
        monkeypatch.setattr(dual, "sparse_anchor", lambda n, prev_nnz: sparse)
        monkeypatch.setattr(dual, "sparse_limit", lambda n: n * n)
    state._anchor_plan(state.u, state.v)
    assert isinstance(state.anchored_plan()[0], SparsePlan) == bool(sparse)
    return state


def offsets(n, size, seed=5, top=None):
    """Offsets (a, b) with |a|_inf + |b|_inf = size, each side spanning
    [-size / 2, size / 2]; given ``top`` in [0, size], a spans
    [-size / 2, top - size / 2] and b [size / 2 - top, size / 2] instead, so
    that max a + max b = top: a gauge shift of size / 2 against the same
    offsets scaled to a span of ``top``."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    if top is None:
        return a * (0.5 * size / np.abs(a).max()), b * (0.5 * size / np.abs(b).max())
    a, b = ((x - x.min()) / (x.max() - x.min()) for x in (a, b))
    return -0.5 * size + top * a, 0.5 * size - top * (1.0 - b)


def served_offsets(n, size, seed=5):
    """Offsets with |a|_inf + |b|_inf = size that a sparse anchor serves:
    max a + max b at most 0.99 ``SPARSE_SCALE_MAX``, or ``size`` if smaller."""
    return offsets(n, size, seed, top=min(size, 0.99 * SPARSE_SCALE_MAX))


def wide_served_offsets(n, size, seed=5):
    """As ``served_offsets``, but each side spans [-size / 2, top / 2]: at
    size 99 a spread of 57 on each side, which takes some sums far below the
    targets."""
    top = min(size, 0.99 * SPARSE_SCALE_MAX)
    a, b = offsets(n, 1.0, seed, top=1.0)  # each side spans [-1/2, 1/2]
    return tuple(0.25 * (top - size) + 0.5 * (top + size) * x for x in (a, b))


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

    @pytest.mark.parametrize("kind", ["smooth-random", "spiky-random"])
    @pytest.mark.parametrize("cost,gamma", [("l1-line", 2.0 ** 14), ("nonsymmetric", 2.0 ** 8)])
    @pytest.mark.parametrize("size", [0.0, 1.0, 99.0, 200.0, 400.0, 600.0])
    def test_no_less_accurate_than_lse(self, cost, gamma, kind, size, monkeypatch):
        state = anchored_state(cost, kind, gamma, monkeypatch)
        if cost == "l1-line":
            assert (state.anchored_plan()[0] == 0.0).mean() > 0.5
        assert_sums_no_less_accurate_than_lse(state, size)

    @pytest.mark.parametrize("cost,gamma,size,passes", [
        ("l1-line", 2.0 ** 14, "budget", 12),
        ("nonsymmetric", 2.0 ** 8, "budget", 12),
        ("l1-line", 2.0 ** 14, "range", 7),
        ("nonsymmetric", 2.0 ** 8, "range", 7),
        ("l1-line", 2.0 ** 14, 1000.0, 12),
        ("nonsymmetric", 2.0 ** 8, 1000.0, 12)])
    def test_beyond_guard_reanchors_at_the_maxima(self, cost, gamma, size, passes,
                                                  monkeypatch):
        # Just beyond one part of the serving rule: "budget" puts
        # max a + max b at 1.01 times the anchor's budget, each side within
        # the range; "range" puts a at -1.01 R and b at 1.01 R within the
        # budget; at 1000 the log plan's entries reach far beyond exp's
        # overflow.  The row sums anchor at the row maxima (maxima 1, plan
        # 4, product 1).  The column sums come from that anchor when it
        # serves the state (one product), else from one at the column
        # maxima (6 more).
        state = anchored_state(cost, "spiky-random", gamma, monkeypatch)
        at = {"budget": lambda n, _: offsets(n, 1.01 * state.budget),
              "range": lambda n, _: offsets(n, 2.02 * OFFSET_RANGE, top=1.01 * OFFSET_RANGE)}
        assert_sums_no_less_accurate_than_lse(state, size, passes, at=at.get(size, offsets))

    @pytest.mark.parametrize("n", [64, BLOCK + 17])
    def test_cost_is_the_untiled_sum(self, n):
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

    @pytest.mark.parametrize("size", [0.0, 1.0, 99.0, 200.0, 400.0, 600.0])
    def test_no_less_accurate_than_materialized(self, size, monkeypatch):
        state = anchored_state("nonsymmetric", "spiky-random", 2.0 ** 8, monkeypatch)
        assert_system_no_less_accurate_than_materialized(state, size)

    def test_refuses_offsets_its_anchor_does_not_serve(self, monkeypatch):
        # At offsets of size 690 the state anchors anew at its column maxima,
        # whose column offsets reach 664, past the anchor's budget of 645:
        # scaled by e^b and e^2b, the round trip would be off by about 0.67
        # of its scale.  After a column rebalance (max b <= 0) it is served.
        state = anchored_state("nonsymmetric", "spiky-random", 2.0 ** 8, monkeypatch)
        a, b = offsets(state.n, 690.0)
        state.set_potentials(state.u + a, state.v + b)
        with pytest.raises(ConditioningError) as err:
            DiscountedSystem.from_state(state)
        _, a, b = state.anchored_plan()
        assert not a.any() and not state.serves(a, b)
        assert err.value.diagnostics == {"max_col_offset": b.max(), "budget": state.budget}
        assert b.max() > state.budget > OFFSET_RANGE
        state.rebalance_columns()
        assert DiscountedSystem.from_state(state).P is state.anchored_plan()[0]


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


    @pytest.mark.parametrize("sparse", [False, True])
    def test_scaling_changes_no_bit_without_subnormals(self, sparse):
        # Entries in [2^-300, 1] and positive weights in [1e-100, 1e100]:
        # every square and term is normal unscaled, so the product, always
        # scaled (k > 0), equals the unscaled sum bit for bit: the squares
        # (numpy's) and their weighted row sums (BLAS's for a dense plan,
        # scipy's CSR loop for a sparse one) taken with no scaling at all.
        rng = np.random.default_rng(26)
        n = BLOCK + 17
        P = np.exp2(-300.0 * rng.random((n, n)))
        P[0, :2] = 1.0, 2.0 ** -300
        if sparse:
            P *= (rng.random((n, n)) < 0.1) | np.eye(n, dtype=bool)
        w = 10.0 ** rng.uniform(-100.0, 100.0, n)
        assert _kernels._square_exp(1.0, w) > 0
        if sparse:
            got, ref = square_matvec(sparse_of(P), w), csr_array(P * P) @ w
        else:
            got, ref = square_matvec(P, w, 1.0), np.square(P) @ w
        assert got.tobytes() == ref.tobytes()


def assert_sums_no_less_accurate_than_lse(state, size, passes=2, at=offsets):
    """``TestAnchoredPlanSums``' criterion, at offsets ``at(n, size)`` from the
    anchor, whose refresh takes ``passes`` (by default one matvec per side)."""
    a, b = at(state.n, size)
    state.set_potentials(state.u + a, state.v + b)
    assert refresh_passes(state) == passes
    assert_no_less_accurate_than_lse(state.problem.C, state.gamma, state.u, state.v,
                                     state.log_rP, state.log_cP)


def assert_system_no_less_accurate_than_materialized(state, size, at=offsets):
    """``TestScaledNewtonSystem``' criterion, at offsets ``at(n, size)`` from
    the anchor."""
    a, b = at(state.n, size)
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


def entry_state(cost, kind, gamma, monkeypatch):
    """An unanchored state at the potentials of ``anchored_state``, moved off
    balance by offsets of size 1, as a warm start reaches a projection."""
    state = anchored_state(cost, kind, gamma, monkeypatch)
    a, b = offsets(state.n, 1.0, seed=7)
    return DualState(state.problem, gamma, u=state.u + a, v=state.v + b)


class TestEntryRebalance:
    """The entry column rebalance anchors at the column maxima, without
    log-sum-exp, and meets ``TestAnchoredPlanSums``' criterion against the
    log-sum-exp rebalance it replaces: each rebalanced state's cached log
    sums (the column sums are log c by construction), measured against long
    double at its own potentials.  Both carry the rounding of the new v."""

    @pytest.mark.parametrize("kind", ["smooth-random", "spiky-random"])
    @pytest.mark.parametrize("cost,gamma", [("l1-line", 2.0 ** 14), ("nonsymmetric", 2.0 ** 8)])
    def test_no_less_accurate_than_lse(self, cost, gamma, kind, monkeypatch):
        state = entry_state(cost, kind, gamma, monkeypatch)
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
        v_lse = log_c - logsumexp(u[:, None] - gamma * C, axis=0)
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
        # A column target below e^-OFFSET_RANGE puts the entry offset beyond
        # the range: v still sets the column sums to c, the row sums anchor
        # at the row maxima of the rebalanced state, and that anchor serves
        # the Newton system.
        n, gamma = 8, 4.0
        c = np.full(n, 1.0)
        c[0] = np.exp(-1.2 * OFFSET_RANGE)
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
        np.testing.assert_allclose(np.exp(v + logsumexp(u[:, None] - gamma * prob.C, axis=0)),
                                   c, rtol=1e-13)
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

    @pytest.mark.parametrize("cost,gamma", [("l1-line", 2.0 ** 14), ("nonsymmetric", 2.0 ** 8)])
    @pytest.mark.parametrize("size", [0.0, 1.0, 99.0])
    def test_no_less_accurate_than_materialized(self, cost, gamma, size, monkeypatch):
        # Per entry, relative to long double, over the entries above
        # e^(EXP_FLOOR + 100): below it, an entry the anchor flushed to 0
        # may have been scaled up to a nonzero value (max a + max b = size).
        state = anchored_state(cost, "spiky-random", gamma, monkeypatch)
        a, b = offsets(state.n, size)
        state.set_potentials(state.u + a, state.v + b)
        fresh = plan_at(state)
        P0 = state.anchored_plan()[0]
        P = state.release_plan()
        assert P is P0  # scaled in place
        ld = np.longdouble
        ref = np.exp(state.u.astype(ld)[:, None] + state.v.astype(ld)[None, :]
                     - ld(state.gamma) * state.problem.C.astype(ld))
        big = ref >= np.exp(ld(EXP_FLOOR + 100.0))
        assert big.any()
        err = (np.abs(P - ref)[big] / ref[big]).astype(float)
        base_err = (np.abs(fresh - ref)[big] / ref[big]).astype(float)
        u = np.finfo(float).eps / 2
        assert err.max() <= base_err.max() + 4.0 * u
        assert np.median(err) <= np.median(base_err) + u
        assert np.all(P[~big] <= np.exp(EXP_FLOOR + 100.0))
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
    return csr_array((data, indices, indptr), shape=(rows, cols)).toarray()


def sparse_of(P):
    """A ``SparsePlan`` of the dense matrix ``P``, built as an anchor is."""
    A = csr_array(P)
    return SparsePlan(P.shape, A.indptr, A.indices, A.data)


def csr_loop_inputs(monkeypatch):
    """The input vector of every later call of scipy's CSR product loop, once
    a ``SparsePlan`` has been built: the caller's vector when a product is
    taken unscaled, else the vector scaled by a power of two."""
    inputs, loop = [], _kernels._sparsetools.csr_matvec

    def spy(*args):
        inputs.append(args[-2].copy())
        loop(*args)

    monkeypatch.setattr(_kernels, "_sparsetools", SimpleNamespace(csr_matvec=spy))
    return inputs


class TestSparseAnchor:
    """The anchored plan held as CSR: the switch rule, the entries, and the
    sums and Newton products served from it, which meet the dense plan's
    criteria against long double (``TestAnchoredPlanSums`` and
    ``TestScaledNewtonSystem``) at the densities a sparse anchor has, at
    most 1/8: at the flush floor the L1 line at 2^14 keeps 0.6% of its
    entries, the non-symmetric cost at 2^13 1.3%.  (At full density the CSR
    loop's plain running sums of n terms can lose to BLAS by a few ulps.)

    The offsets are ones the anchor serves (``served_offsets``): up to
    |a|_inf + |b|_inf = 99, a gauge shift with max a + max b at most
    0.99 ``SPARSE_SCALE_MAX``, its budget, which keeps each sum
    near its target.  The floor's bound is absolute, half an ulp of the
    smallest target, so these relative criteria hold for sums at least that
    target; ``TestFlushFloor`` and ``TestServedBound`` check the absolute
    bound at every offset the anchor serves, also where it takes a sum far
    below the targets."""

    @pytest.mark.parametrize("kind", ["smooth-random", "spiky-random"])
    @pytest.mark.parametrize("cost,gamma", [("l1-line", 2.0 ** 14), ("nonsymmetric", 2.0 ** 13)])
    @pytest.mark.parametrize("size", [0.0, 1.0, 99.0])
    def test_sums_no_less_accurate_than_lse(self, cost, gamma, kind, size, monkeypatch):
        state = anchored_state(cost, kind, gamma, monkeypatch, sparse=True)
        assert state.plan_density <= 0.125
        assert_sums_no_less_accurate_than_lse(state, size, at=served_offsets)

    @pytest.mark.parametrize("cost,gamma", [("l1-line", 2.0 ** 14), ("nonsymmetric", 2.0 ** 13)])
    @pytest.mark.parametrize("size", [0.0, 1.0, 99.0])
    def test_newton_system_no_less_accurate_than_materialized(self, cost, gamma, size,
                                                              monkeypatch):
        state = anchored_state(cost, "spiky-random", gamma, monkeypatch, sparse=True)
        assert state.plan_density <= 0.125
        assert_system_no_less_accurate_than_materialized(state, size, at=served_offsets)

    @pytest.mark.parametrize("cost,gamma,size,passes", [
        ("l1-line", 2.0 ** 14, 1.01 * SPARSE_SCALE_MAX, 7),
        ("nonsymmetric", 2.0 ** 13, 1.01 * SPARSE_SCALE_MAX, 7),
        ("l1-line", 2.0 ** 14, 99.0, 7),
        ("nonsymmetric", 2.0 ** 13, 99.0, 7)])
    def test_beyond_the_scale_bound_reanchors_at_the_maxima(self, cost, gamma, size, passes,
                                                            monkeypatch):
        # Within the range, but at max a + max b = 1.01 SPARSE_SCALE_MAX, the
        # sparse anchor's budget: the anchor refuses the offsets, and the
        # sums re-anchor at the maxima in CSR, as beyond the rule on a dense
        # anchor (``TestAnchoredPlanSums``).  The row sums anchor at the row
        # maxima (maxima 1, plan 4, product 1), and that anchor serves the
        # column sums (one product).
        state = anchored_state(cost, "spiky-random", gamma, monkeypatch, sparse=True)
        assert_sums_no_less_accurate_than_lse(
            state, size, passes, at=lambda n, size: offsets(n, size, top=1.01 * SPARSE_SCALE_MAX))
        assert isinstance(state.anchored_plan()[0], SparsePlan)

    def test_entries_bitwise_equal_to_dense(self):
        K, u, v = deep_log_kernel()
        P, _, nnz = materialize_plan(-K, 1.0, u, v)
        S, _, sparse_nnz = materialize_plan(-K, 1.0, u, v, max_nnz=P.size)
        assert nnz == sparse_nnz == len(S.rows[4]) == np.count_nonzero(P) < P.size
        assert csr_dense(S.rows).tobytes() == P.tobytes()
        assert csr_dense(S.cols).tobytes() == np.ascontiguousarray(P.T).tobytes()
        assert S.top == P.max()
        assert S.bottom == P[P > 0.0].min()

    def test_product_equals_unscaled_without_subnormals(self):
        # No term or result is subnormal, so the power-of-two scaling changes
        # no bit: the products equal scipy's own CSR product, as the dense
        # plan's products are BLAS's.
        rng = np.random.default_rng(21)
        n = BLOCK + 17
        P = rng.uniform(0.5, 1.0, (n, n)) * (rng.random((n, n)) < 0.1)
        S, x = sparse_of(P), rng.standard_normal(n)
        assert plan_matvec(P, x).tobytes() == (P @ x).tobytes()
        assert plan_matvec(P, x, transpose=True).tobytes() == (P.T @ x).tobytes()
        A = csr_array(P)
        assert plan_matvec(S, x).tobytes() == (A @ x).tobytes()
        assert plan_matvec(S, x, transpose=True).tobytes() == (A.T @ x).tobytes()
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
        for got, ref in ((plan_matvec(S, x), P_ld @ x_ld),
                         (plan_matvec(S, x, transpose=True), P_ld.T @ x_ld)):
            err = np.abs(got - ref).astype(float)
            tiny = np.finfo(float).smallest_subnormal
            assert np.all(err <= np.maximum(tiny, 2.0 * np.finfo(float).eps * np.abs(got)))
        assert plan_matvec(S, x)[0] == x[0]  # the entry 1 dominates

    @pytest.mark.parametrize("cost,gamma", [("l1-line", 2.0 ** 14), ("nonsymmetric", 2.0 ** 13)])
    def test_unscaled_products_equal_scaled_on_anchors(self, cost, gamma, monkeypatch):
        # On a real anchor no term of these products is subnormal, so each is
        # taken unscaled; a zero bound below the entries forces the scaling,
        # which changes no bit.
        state = anchored_state(cost, "spiky-random", gamma, monkeypatch, sparse=True)
        S, n = state.anchored_plan()[0], state.n
        rng = np.random.default_rng(24)
        xs = (rng.standard_normal(n), np.exp(rng.uniform(-30.0, 0.0, n)))
        products = (lambda x: plan_matvec(S, x), lambda x: plan_matvec(S, x, transpose=True),
                    lambda x: square_matvec(S, x))
        given = [x.tobytes() for x in xs for _ in products]
        inputs = csr_loop_inputs(monkeypatch)
        got = [f(x).tobytes() for x in xs for f in products]
        assert [a.tobytes() for a in inputs] == given
        inputs.clear()
        S.bottom = 0.0
        assert [f(x).tobytes() for x in xs for f in products] == got
        # The plan products' inputs were scaled; the squared entries, scaled
        # up before squaring, can leave the squared product a k of 0.
        scaled = [a.tobytes() != x for a, x in zip(inputs, given)]
        assert len(scaled) == 6 and scaled[0:2] == scaled[3:5] == [True, True]

    @pytest.mark.parametrize("entry", [0.0, np.inf, 1e-9])
    def test_scaled_for_a_zero_infinite_or_tiny_input(self, entry, monkeypatch):
        # The smallest entry is e^-700: against inputs of at least 1 no term
        # is subnormal, against 1e-9 one is.
        rng = np.random.default_rng(25)
        n = BLOCK + 17
        P = rng.uniform(0.5, 1.0, (n, n)) * (rng.random((n, n)) < 0.1)
        P[3, 5] = PLAN_FLOOR
        S, x = sparse_of(P), rng.uniform(1.0, 2.0, n)
        inputs = csr_loop_inputs(monkeypatch)
        plan_matvec(S, x)
        assert inputs[-1].tobytes() == x.tobytes()
        x[7] = entry
        plan_matvec(S, x)
        assert inputs[-1].tobytes() != x.tobytes()

    def test_entry_near_overflow_does_not_overflow(self):
        rng = np.random.default_rng(23)
        n = BLOCK + 17
        P = rng.uniform(0.5, 1.0, (n, n)) * (rng.random((n, n)) < 0.1)
        P[3, 5] = np.exp(699.5)
        S = sparse_of(P)
        ld = np.longdouble
        for x in (rng.uniform(1.0, 2.0, n), 1e-9 * rng.uniform(1.0, 2.0, n)):
            got = plan_matvec(S, x)
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
        # The L1 line at 2^14 keeps 0.7% of its entries at the flush floor
        # (n = BLOCK + 17), 8% at e^-700 (n = BLOCK): the first anchor is
        # dense, the next one CSR when the plan spans more than one tile.
        # Taken at the same potentials, it keeps the entries the dense one
        # counted.
        state = anchored_state("l1-line", "smooth-random", 2.0 ** 14, monkeypatch,
                               sparse=None, n=n)
        density = state.plan_density
        assert 0.0 < density <= 0.125
        state.set_gamma(state.gamma)
        assert math.isnan(state.plan_density)
        state._anchor_plan(state.u, state.v)
        P = state.anchored_plan()[0]
        assert isinstance(P, SparsePlan) == (n > BLOCK)
        assert state.plan_density == density

    def test_dense_after_a_dense_anchor(self, monkeypatch):
        # At 2^8 about 41% of the entries are at or above the floor, above
        # the quarter.
        state = anchored_state("l1-line", "smooth-random", 2.0 ** 8, monkeypatch, sparse=None)
        assert state.plan_density > 0.25
        state.set_gamma(state.gamma)
        assert isinstance(state.anchored_plan()[0], np.ndarray)

    def test_falls_back_to_dense_past_an_eighth(self, monkeypatch):
        # At 2^12 about 3% of the entries are at or above the floor.  A
        # gauge-free shift of 2 x 200 raises every entry by e^400: the
        # sparse build passes n^2 / 8 and the plan is made dense, bitwise
        # equal to a fresh materialization.
        state = anchored_state("l1-line", "smooth-random", 2.0 ** 12, monkeypatch, sparse=None)
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
        state = anchored_state("l1-line", "spiky-random", 2.0 ** 14, monkeypatch,
                               sparse=True)
        a, b = offsets(state.n, 1.0)
        state.set_potentials(state.u + a, state.v + b)
        P = state.release_plan()
        assert P.tobytes() == plan_at(state).tobytes()
        assert state._plan is None


def targets_with_min(n, t_min):
    """Row targets whose smallest entry is ``t_min``, and uniform columns."""
    r = np.full(n, (1.0 - t_min) / (n - 1))
    r[3] = t_min
    return r, np.full(n, 1.0 / n)


class TestFlushFloor:
    """A sparse anchor drops the entries whose log is below a floor derived
    from the targets (``dual.flush_floor``); a dense one flushes only below
    ``EXP_FLOOR`` and counts the entries at or above the floor.

    The deep log kernel spans both tiles of n = ``BLOCK + 17`` from about 0
    to -inf."""

    FLOORS = [EXP_FLOOR, -150.0, -20.0]

    @pytest.mark.parametrize("floor", FLOORS)
    def test_dense_plan_ignores_the_floor(self, floor):
        K, u, v = deep_log_kernel()
        ref = materialize_plan(-K, 1.0, u, v)[0]
        P = materialize_plan(-K, 1.0, u, v, floor=floor)[0]
        assert P.tobytes() == ref.tobytes()
        C, gamma, u = col_anchor_case(BLOCK + 17, True)
        ref, v0 = materialize_plan(C, gamma, u)[:2]
        P, v = materialize_plan(C, gamma, u, out=np.empty_like(C), floor=floor)[:2]
        assert P.tobytes() == ref.tobytes()
        assert v.tobytes() == v0.tobytes()

    @pytest.mark.parametrize("floor", FLOORS)
    def test_nnz_counts_log_entries_at_or_above_the_floor(self, floor):
        K, u, v = deep_log_kernel()
        count = np.count_nonzero(log_plan(-K, 1.0, u, v) >= floor)
        assert materialize_plan(-K, 1.0, u, v, floor=floor)[2] == count
        assert materialize_plan(-K, 1.0, u, v, max_nnz=K.size, floor=floor)[2] == count
        # At the column maxima, the first tile reaches -2008 and the second
        # (rows of small cost) only -31: at floors of -150 and below the
        # second counts whole, with no compare.
        C, gamma, u = col_anchor_case(BLOCK + 17, True)
        P, v, nnz = materialize_plan(C, gamma, u, out=np.empty_like(C), floor=floor)
        count = np.count_nonzero(log_plan(C, gamma, u, v) >= floor)
        assert nnz == materialize_plan(C, gamma, u, max_nnz=C.size, floor=floor)[2] == count

    @pytest.mark.parametrize("floor", FLOORS)
    def test_sparse_entries_are_the_dense_entries_at_or_above_the_floor(self, floor):
        K, u, v = deep_log_kernel()
        L = log_plan(-K, 1.0, u, v)
        P = materialize_plan(-K, 1.0, u, v)[0]
        S, _, nnz = materialize_plan(-K, 1.0, u, v, max_nnz=L.size, floor=floor)
        kept = np.where(L >= floor, P, 0.0)
        assert nnz == len(S.rows[4]) == np.count_nonzero(kept)
        assert csr_dense(S.rows).tobytes() == kept.tobytes()
        assert csr_dense(S.cols).tobytes() == np.ascontiguousarray(kept.T).tobytes()

    def test_floor_formula(self):
        n = BLOCK + 1
        r, c = targets_with_min(n, 1e-6)
        F = math.log(1e-6) - 54.0 * math.log(2.0) - math.log(n) - SPARSE_SCALE_MAX
        assert dual.flush_floor(n, r, c) == F
        assert dual.flush_floor(n, c, r) == F  # the smallest of both
        # n * e^(F + SPARSE_SCALE_MAX) is within half an ulp of the target.
        assert n * math.exp(F + SPARSE_SCALE_MAX) <= np.spacing(1e-6) / 2
        # The l2sq grid at n = 1024, whose smallest target late in a solve
        # is about 9e-9.
        late = dual.flush_floor(1024, *targets_with_min(1024, 9e-9))
        assert late == pytest.approx(-79.0, abs=0.5)
        assert dual.flush_floor(BLOCK, *targets_with_min(BLOCK, 1e-6)) == EXP_FLOOR
        assert dual.flush_floor(n, *targets_with_min(n, 1e-250)) > EXP_FLOOR
        assert dual.flush_floor(n, *targets_with_min(n, 1e-290)) == EXP_FLOOR
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dual.flush_floor(n, *targets_with_min(n, 0.0)) == EXP_FLOOR

    @pytest.mark.parametrize("cost,gamma", [("l1-line", 2.0 ** 14), ("nonsymmetric", 2.0 ** 13)])
    @pytest.mark.parametrize("kind", ["smooth-random", "spiky-random"])
    @pytest.mark.parametrize("size", [0.0, 1.0, 99.0, 200.0, 400.0, 690.0])
    def test_sums_lose_at_most_half_an_ulp_of_the_smallest_target(self, cost, gamma, kind, size,
                                                                  monkeypatch):
        # At offsets the anchor serves, up to |a|_inf + |b|_inf = 690 (each
        # side within OFFSET_RANGE) with max a + max b = 0.99
        # SPARSE_SCALE_MAX, of narrow and of wide spread.
        state, base = floor_and_base_anchors(cost, kind, gamma, monkeypatch)
        for at in (served_offsets, wide_served_offsets):
            assert floor_loses_at_most_half_an_ulp(state, base, *at(state.n, size))


def floor_and_base_anchors(cost, kind, gamma, monkeypatch):
    """The same sparse anchor built at the derived floor and at EXP_FLOOR."""
    state = anchored_state(cost, kind, gamma, monkeypatch, sparse=True)
    assert dual.flush_floor(state.n, state.r, state.c) > EXP_FLOOR + 500.0
    with monkeypatch.context() as m:
        m.setattr(dual, "flush_floor", lambda n, r, c: EXP_FLOOR)
        base = anchored_state(cost, kind, gamma, m, sparse=True)
    assert base.plan_density > state.plan_density
    return state, base


def floor_loses_at_most_half_an_ulp(state, base, a, b):
    """Whether the anchor of ``state`` serves the offsets (a, b); if so,
    asserts that the mass its floor drops from each log row and column sum
    is within half an ulp of the smallest target, and, given ``base`` (the
    anchors of ``floor_and_base_anchors``), that each sum of ``state`` is
    off its long-double value, in the linear domain, by at most ``base``'s
    error plus that half ulp."""
    u0, v0 = state._anchor
    states = (state,) if base is None else (state, base)
    for s in states:
        s.set_potentials(u0 + a, v0 + b)
    if state._plan_offsets(state.u, state.v) is None:
        return False
    for s in states:
        assert refresh_passes(s) == 2  # one product per side, no new anchor
    gamma, C = state.gamma, state.problem.C
    ld = np.longdouble
    half_ulp = np.spacing(min(state.r.min(), state.c.min())) / 2
    if base is not None:
        ref_rows, ref_cols = long_double_sums(C, gamma, state.u, state.v)
        for got, got_base, ref in ((state.log_rP, base.log_rP, ref_rows),
                                   (state.log_cP, base.log_cP, ref_cols)):
            err = np.abs(np.exp(got.astype(ld)) - np.exp(ref))
            base_err = np.abs(np.exp(got_base.astype(ld)) - np.exp(ref))
            assert np.all(err <= base_err + half_ulp)
    a, b = state.u - u0, state.v - v0
    L = log_plan(C, gamma, u0, v0)
    floor = anchor_floor(state)
    dropped = np.where(L < floor, np.exp(a.astype(ld)[:, None] + L + b.astype(ld)[None, :]),
                       0.0)
    assert dropped.sum(axis=1).max() <= half_ulp
    assert dropped.sum(axis=0).max() <= half_ulp
    return True


def anchor_floor(state):
    """The floor the state's anchor flushed at: ``dual.flush_floor`` for a
    sparse anchor, ``EXP_FLOOR`` for the dense buffer."""
    if isinstance(state._plan, SparsePlan):
        return dual.flush_floor(state.n, state.r, state.c)
    return EXP_FLOOR


def served_by_the_rule(state, a, b, margin=0.0):
    """The serving rule restated from its parts: max a + max b within the
    budget of the anchor's floor, each offset within ``OFFSET_RANGE``; with
    ``margin``, by that much."""
    n, t_min = state.n, min(state.r.min(), state.c.min())
    share = math.log(t_min) - 54.0 * math.log(2.0) - math.log(n) if t_min > 0.0 else -math.inf
    budget = max(SPARSE_SCALE_MAX, share - anchor_floor(state))
    reach = max(np.abs(a).max(), np.abs(b).max())
    return bool(a.max() + b.max() <= budget - margin and reach <= OFFSET_RANGE - margin)


# One side's offsets: its largest entry and its span, in units of OFFSET_RANGE.
SIDE = st.tuples(st.floats(-1.1, 1.1), st.floats(0.0, 1.6))


class TestServedBound:
    """Every anchor serves exactly the offsets its floor is safe at, under
    one rule: max a + max b within the budget the floor leaves
    (``SPARSE_SCALE_MAX`` for a sparse anchor at its flush floor, about 640
    for a dense one, which flushes only below e^EXP_FLOOR), and each offset
    within ``OFFSET_RANGE``.  There the mass an anchor drops from a sum
    stays within half an ulp of the smallest target, and a sparse anchor's
    sums lose at most that half ulp against the same anchor at EXP_FLOOR.
    The rule is convex: an anchor that serves two offsets serves every
    offset between them."""

    @pytest.fixture(scope="class")
    def anchors(self):
        with pytest.MonkeyPatch.context() as m:
            state, base = floor_and_base_anchors("nonsymmetric", "spiky-random", 2.0 ** 13, m)
            dense = anchored_state("nonsymmetric", "spiky-random", 2.0 ** 13, m)
            yield {False: (state, base), True: (dense, None)}

    @settings(max_examples=100, deadline=None)
    @given(dense=st.booleans(), ends=st.tuples(SIDE, SIDE, SIDE, SIDE),
           at_budget=st.booleans(), slack=st.floats(-20.0, 20.0), seed=st.integers(0, 2 ** 16))
    def test_serves_exactly_where_the_floor_is_safe(self, anchors, dense, ends, at_budget,
                                                    slack, seed):
        # Two offsets (a, b), each side from its largest entry down over its
        # span; with ``at_budget`` the first has max a = max b, their sum
        # within 20 of the anchor's budget.
        state, base = anchors[dense]
        rng = np.random.default_rng(seed)
        offs = [(top - span) * OFFSET_RANGE + span * OFFSET_RANGE * rng.permutation(
            np.linspace(0.0, 1.0, state.n)) for top, span in ends]
        if at_budget:
            for x in offs[:2]:
                x += 0.5 * (state.budget + slack) - x.max()
        u0, v0 = state._anchor
        inside = []
        for a, b in (offs[:2], offs[2:]):
            served = floor_loses_at_most_half_an_ulp(state, base, a, b)
            a, b = state.u - u0, state.v - v0  # as the state sees them
            assert served == served_by_the_rule(state, a, b)
            inside.append((a, b) if served_by_the_rule(state, a, b, margin=1e-9) else None)
        # Convexity, for ends served by more than the rounding of a point
        # between them.
        if all(inside):
            (a0, b0), (a1, b1) = inside
            for t in np.linspace(0.0, 1.0, 11):
                assert state.serves((1 - t) * a0 + t * a1, (1 - t) * b0 + t * b1)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("t_min", [0.0, 1e-300])
    def test_serves_its_entry_state_at_a_zero_or_tiny_target(self, sparse, t_min, monkeypatch):
        # At a zero or tiny target the budget is SPARSE_SCALE_MAX, for a
        # dense anchor too: an anchor at the column maxima still serves its
        # own potentials, and the offsets (0, b) with max b <= 0 that an
        # entry rebalance leaves.
        state = anchored_state("nonsymmetric", "spiky-random", 2.0 ** 13, monkeypatch,
                               sparse=sparse)
        r = state.r.copy()
        r[0] = t_min
        state.set_targets(r, state.c)
        state.set_gamma(state.gamma)  # drops the anchor
        _, a, _ = state.anchored_plan()
        assert not a.any() and state.budget == SPARSE_SCALE_MAX
        assert state.serves(a, np.zeros(state.n))
        b = -OFFSET_RANGE * np.random.default_rng(4).random(state.n)
        b[0] = 0.0
        assert state.serves(a, b) and not state.serves(a, b + SPARSE_SCALE_MAX + 1.0)
