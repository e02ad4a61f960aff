import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otnewton.core import chi_sq_div, lse_cols, lse_rows, shannon_entropy
from otnewton.errors import DimensionError, DomainError


class TestLseRows:
    def test_identical_entries(self):
        out = lse_rows(np.zeros((2, 2)))
        np.testing.assert_allclose(out, [math.log(2)] * 2, rtol=0, atol=1e-15)

    def test_no_overflow_at_large_magnitude(self):
        out = lse_rows(np.array([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out, [1000.0 + math.log(2)], rtol=1e-15)

    def test_hand_value(self):
        out = lse_rows(np.array([[0.0, math.log(3.0)]]))
        np.testing.assert_allclose(out, [math.log(4.0)], rtol=1e-15)

    def test_empty_matrix_rejected(self):
        with pytest.raises(DimensionError):
            lse_rows(np.zeros((0, 3)))
        with pytest.raises(DimensionError):
            lse_rows(np.zeros((3, 0)))

    def test_minus_inf_entries_are_zero_mass(self):
        out = lse_rows(np.array([[0.0, -np.inf], [-np.inf, -np.inf]]))
        assert out[0] == 0.0
        assert out[1] == -np.inf
        assert not np.any(np.isnan(out))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5),
           st.floats(-50, 50), st.integers(0, 2 ** 32 - 1))
    def test_shift_equivariance(self, rows, cols, shift, seed):
        X = np.random.default_rng(seed).normal(size=(rows, cols))
        np.testing.assert_allclose(lse_rows(X + shift), lse_rows(X) + shift,
                                   rtol=0, atol=1e-12)

    def test_reproduces_row_sums_across_underflow_range(self):
        rng = np.random.default_rng(7)
        # log-uniform entries spanning [1e-300, 1]
        P = np.exp(rng.uniform(-690, 0, size=(6, 6)))
        got = np.exp(lse_rows(np.log(P)))
        np.testing.assert_allclose(got, P.sum(axis=1), rtol=1e-12)


class TestLseCols:
    def test_single_column(self):
        np.testing.assert_allclose(lse_cols(np.zeros((2, 1))), [math.log(2)], rtol=1e-15)

    def test_matches_transposed_rows(self):
        X = np.random.default_rng(11).normal(size=(3, 4))
        np.testing.assert_allclose(lse_cols(X), lse_rows(X.T), rtol=0, atol=0)

    def test_hand_value(self):
        X = np.array([[math.log(2.0)], [math.log(2.0)]])
        np.testing.assert_allclose(lse_cols(X), [math.log(4.0)], rtol=1e-15)


class TestChiSqDiv:
    def test_equal_vectors(self):
        x = np.array([0.3, 0.7])
        assert chi_sq_div(x, x) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        assert chi_sq_div(np.array([0.25, 0.75]), np.array([0.5, 0.5])) == pytest.approx(0.25)

    def test_nonpositive_reference_rejected(self):
        with pytest.raises(DomainError):
            chi_sq_div(np.array([0.5, 0.5]), np.array([1.0, 0.0]))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 12))
    def test_dominates_squared_l1(self, seed, n):
        rng = np.random.default_rng(seed)
        x = rng.dirichlet(np.ones(n))
        y = rng.dirichlet(np.ones(n))
        assert chi_sq_div(y, x) >= np.abs(y - x).sum() ** 2 - 1e-12


class TestShannonEntropy:
    def test_one_hot(self):
        assert shannon_entropy(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_uniform_large(self):
        p = np.full(4096, 1.0 / 4096)
        assert shannon_entropy(p) == pytest.approx(math.log(4096), rel=1e-12)

    def test_two_point(self):
        assert shannon_entropy(np.array([0.5, 0.5])) == pytest.approx(math.log(2), rel=1e-14)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            shannon_entropy(np.array([1.1, -0.1]))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 50))
    def test_bounded_by_log_n(self, seed, n):
        p = np.random.default_rng(seed).dirichlet(np.ones(n))
        h = shannon_entropy(p)
        assert -1e-12 <= h <= math.log(n) + 1e-12
