"""The blocked dense kernels: reference agreement and the exp floor."""

import numpy as np

from otnewton import _kernels
from otnewton._kernels import (BLOCK, EXP_FLOOR, log_plan_row_sums,
                               materialize_plan, square_matvec)
from otnewton.core import lse_rows
from otnewton.driver import round_plan


class TestBlockedKernels:
    """The tiled internal kernels agree with the reference reductions."""

    def test_row_sums_match_reference(self):
        rng = np.random.default_rng(9)
        n = BLOCK + 17  # force a partial tail block
        K = rng.normal(size=(n, n)) * 10
        u = rng.normal(size=n)
        v = rng.normal(size=n)
        np.testing.assert_array_equal(log_plan_row_sums(K, u, v),
                                      u + lse_rows(K + v[None, :]))

    def test_square_matvec_matches_reference(self):
        rng = np.random.default_rng(10)
        n = BLOCK + 3
        P = rng.random((n, n))
        w = rng.random(n)
        np.testing.assert_allclose(square_matvec(P, w), (P * P) @ w, rtol=1e-13)

    def test_materialize_matches_reference(self):
        rng = np.random.default_rng(11)
        K = rng.normal(size=(7, 7))
        u = rng.normal(size=7)
        v = rng.normal(size=7)
        ref = np.exp(u[:, None] + v[None, :] + K)
        np.testing.assert_allclose(materialize_plan(K, u, v), ref, rtol=1e-15)


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

    def test_row_sums_bitwise_equal_to_unclamped_reference(self):
        K, u, v = deep_log_kernel()
        with np.errstate(under="ignore"):
            ref = u + lse_rows(K + v[None, :])
        got = log_plan_row_sums(K, u, v)
        assert got[3] == -np.inf
        np.testing.assert_array_equal(got, ref)

    def test_plan_is_exp_above_floor_and_zero_below(self):
        K, u, v = deep_log_kernel()
        logs = K + v[None, :] + u[:, None]
        low = logs < EXP_FLOOR
        assert low.any() and not low.all()
        P = materialize_plan(K, u, v)
        assert np.all(P[low] == 0.0)
        np.testing.assert_array_equal(P[~low], np.exp(logs[~low]))

    def test_plan_holds_no_subnormals(self):
        K, u, v = deep_log_kernel()
        P = materialize_plan(K, u, v)
        assert P[P > 0].min() >= np.finfo(float).tiny

    def test_no_exp_argument_below_floor(self, monkeypatch):
        real_exp = np.exp
        lowest = []

        def spy(x, *args, **kwargs):
            lowest.append(np.min(x))
            return real_exp(x, *args, **kwargs)

        monkeypatch.setattr(_kernels.np, "exp", spy)
        K, u, v = deep_log_kernel()
        log_plan_row_sums(K, u, v)
        log_plan_row_sums(K.T, v, u)
        materialize_plan(K, u, v)
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
