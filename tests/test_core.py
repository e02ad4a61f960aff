import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otnewton.core import chi_sq_div, shannon_entropy
from otnewton.errors import DomainError


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
