"""The pass-count convention: each kernel and operator counts its own passes."""

import numpy as np
import pytest

from otnewton import _kernels, opcount
from otnewton.newton import DiscountedSystem


def passes(category, fn, *args):
    """Passes that ``fn(*args)`` adds to ``category``, and to no other category."""
    before = opcount.snapshot()
    with opcount.category(category):
        fn(*args)
    after = opcount.snapshot()
    moved = {k: after.get(k, 0) - before.get(k, 0) for k in after
             if after.get(k, 0) != before.get(k, 0)}
    assert set(moved) <= {category}
    return moved.get(category, 0)


@pytest.fixture
def system():
    rng = np.random.default_rng(0)
    P = rng.random((6, 6)) + 0.1
    return DiscountedSystem(P, P.sum(axis=1), P.sum(axis=0))


def test_kernels():
    rng = np.random.default_rng(1)
    K, u, v = rng.normal(size=(5, 5)), rng.normal(size=5), rng.normal(size=5)
    assert passes("kern", _kernels.materialize_plan, K, 1.0, u, v) == 4
    for axis, x in ((0, u), (1, v)):
        assert passes("kern", _kernels.log_plan_max, K, 1.0, x, axis) == 1
    assert passes("kern", _kernels.square_matvec, np.exp(K), u) == 2
    assert passes("kern", _kernels.plan_cost, np.exp(K), K) == 1
    assert passes("kern", _kernels.plan_matvec, np.exp(K), u) == 1
    assert passes("kern", _kernels.log_plan_matvec, np.exp(K), u, True) == 1


def test_operators(system):
    d = np.linspace(-1.0, 1.0, 6)
    assert passes("ops", system.round_trip, d) == 2
    assert passes("ops", system.apply_F, 0.5, d) == 2
    assert passes("ops", system.apply_F, 0.0, d) == 0
    assert passes("ops", system.apply_pc, d) == 1
    assert passes("ops", system.diag_prc) == 2
    assert passes("ops", system.diag_prc) == 0  # cached


def test_outside_any_category_counts_as_other():
    opcount.reset()
    opcount.add(3)
    assert opcount.snapshot() == {"other": 3}
    assert opcount.total() == 3
    opcount.reset()
    assert opcount.total() == 0
