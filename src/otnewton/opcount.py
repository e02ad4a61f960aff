"""Instrumentation: counting O(n^2) primitive operations by subroutine.

The hardware-independent cost metric used throughout the benchmarks is the
number of primitive operations that touch every entry of an n-by-n matrix
once: a matrix-vector product, an elementwise matrix exponential, a row or
column reduction, a broadcast add of a vector onto a matrix, and so on.
The convention is fixed where the passes happen: each function that makes
a pass calls :func:`add` with its own count, and no caller adds passes on
behalf of a callee.  The counting functions are the dense kernels in
``_kernels``, the operators of ``newton.DiscountedSystem``, the log kernel
``-gamma C`` built by ``DualState``, and ``round_plan`` and the final cost
evaluation in the driver.

The convention is identical for every solver, so totals are comparable
across configurations.  Counts are attributed to the subroutine category
active at call time:

* ``"newton_solve"``     - discounted-system construction, CG iterations,
                           undiscounted residual checks, the candidate
                           column-sum evaluation at step size 1, and the
                           post-step row-sum refresh.
* ``"line_search"``      - column-sum re-evaluations after a backtrack only
                           (a perfect warm start incurs zero ops here).
* ``"chi_sinkhorn"``     - the pre-Newton chi-square balancing sweeps.
* ``"mirror_descent"``   - per-projection entry/exit rebalancing passes plus
                           driver-level finalization (materialize + round).
* ``"sinkhorn"``         - sweeps of the log-domain Sinkhorn baseline.

The tally is process-global; one solve runs per process in benchmarks, so
no locking is needed.
"""

from __future__ import annotations

from contextlib import contextmanager

_by_category: dict[str, int] = {}
_stack: list[str] = []


def add(passes=1):
    """Add ``passes`` O(n^2) passes to the active category."""
    cat = _stack[-1] if _stack else "other"
    _by_category[cat] = _by_category.get(cat, 0) + passes


@contextmanager
def category(name):
    """Attribute the passes made inside the block to ``name``."""
    _stack.append(name)
    try:
        yield
    finally:
        _stack.pop()


def reset():
    _by_category.clear()
    _stack.clear()


def snapshot():
    return dict(_by_category)


def total():
    return sum(_by_category.values())
