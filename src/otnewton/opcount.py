"""Instrumentation: counting O(n^2) primitive operations by subroutine.

The hardware-independent cost metric used throughout the benchmarks is the
number of primitive operations that touch every entry of an n-by-n matrix
once: a matrix-vector product, an elementwise matrix exponential, a row or
column reduction, a broadcast add of a vector onto a matrix, and so on.
The convention is fixed where the passes happen: each function that makes
a pass calls :func:`add` with its own count, and no caller adds passes on
behalf of a callee.  The counting functions are the dense kernels in
``_kernels`` (a product with a materialized plan, ``plan_matvec``, is one
pass, whether it serves ``newton.DiscountedSystem`` or a log sum from the
anchored plan; the length-n scalings around it are not passes, and the log
kernel ``-gamma C`` is formed inside the kernels' tiles, not in a pass of
its own; the final plan's cost, ``plan_cost``, is one pass too, and
rounding it, ``round_plan``, 5, or 6 with a rank-one repair).  A
kernel on a sparse plan (``_kernels.SparsePlan``) counts as the dense pass
it replaces, although it touches only the nonzeros: the count stays a
measure of the algorithm, not of the storage.  So does a small dense
``newton.DiscountedSystem`` that forms its round-trip matrix K (at most
``newton.EXPLICIT_MAX_N`` rows): a product with K or with F(rho) counts
the 2 passes of the two plan products it replaces, reading diag(K) the
squared product's 2, the transposed product that gives the column step on
return none (its round trip counted it), and forming K nothing.  A sparse build
that stops past its limit counts its 4 passes before the dense one.

The convention is identical for every solver, so totals are comparable
across configurations.  Counts are attributed to the subroutine category
active at call time:

* ``"newton_solve"``     - discounted-system construction, CG iterations,
                           undiscounted residual checks, the column sums at
                           step sizes 0 and 1, and the post-step row-sum
                           refresh.
* ``"line_search"``      - column-sum re-evaluations after a backtrack only
                           (a perfect warm start incurs zero ops here).
* ``"chi_sinkhorn"``     - the pre-Newton chi-square balancing sweeps.
* ``"mirror_descent"``   - per-projection entry/exit rebalancing passes,
                           including the column maxima and the
                           materialization that anchor the projection's
                           plan, plus driver-level finalization (scale the
                           anchored plan in place + round).
* ``"sinkhorn"``         - sweeps of the Sinkhorn baseline, including the
                           column maxima and the materialization that
                           anchor its plan.

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
