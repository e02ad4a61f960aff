import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from otnewton._kernels import BLOCK
from otnewton.errors import DimensionError, DomainError, ParseError
from otnewton.problems import (
    Problem,
    TraceRow,
    gen_marginal,
    grid_points_cost,
    load_problem,
    read_trace,
    save_problem,
    write_trace,
)


def cdist_grid_cost(n, metric, side=None):
    """scipy's pairwise distances of the grid points, normalized to max 1:
    the matrix that grid_points_cost's tiles must equal bit for bit."""
    if side is None:
        side = int(np.ceil(np.sqrt(n)))
    k = np.arange(n)
    pts = np.stack([k // side, k % side], axis=1).astype(np.float64)
    C = cdist(pts, pts, "cityblock" if metric.lower() == "l1" else "sqeuclidean")
    m = C.max()
    if m > 0.0:
        C /= m
    return C


def traced_peak(fn, *args):
    """Bytes ``fn(*args)`` holds at its ``tracemalloc`` peak."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGridCost:
    def test_single_point(self):
        np.testing.assert_array_equal(grid_points_cost(1, "l1"), [[0.0]])

    def test_two_by_two_l1(self):
        C = grid_points_cost(2 * 2, "l1")
        # points (0,0),(0,1),(1,0),(1,1); corner-to-corner distance 2 is the max
        assert C[0, 3] == 1.0
        assert C[0, 1] == 0.5
        np.testing.assert_array_equal(C, C.T)
        np.testing.assert_array_equal(np.diag(C), np.zeros(4))

    def test_two_by_two_l2sq(self):
        C = grid_points_cost(2 * 2, "l2sq")
        assert C[0, 3] == 1.0
        assert C[0, 1] == 0.5

    def test_zero_side_rejected(self):
        with pytest.raises(DimensionError):
            grid_points_cost(0 * 0, "l1")

    @pytest.mark.parametrize("side", [2, 3, 4, 5])
    @pytest.mark.parametrize("metric", ["l1", "l2sq"])
    def test_symmetric_zero_diag_unit_max(self, side, metric):
        C = grid_points_cost(side * side, metric)
        np.testing.assert_array_equal(C, C.T)
        np.testing.assert_array_equal(np.diag(C), np.zeros(side * side))
        assert C.max() == 1.0

    def test_partial_grid_prefix_consistency(self):
        # first n points of the square grid, same normalization rule
        full_raw = grid_points_cost(9, "l1", side=3) * 4.0  # max L1 distance on 3x3
        sub = full_raw[:5, :5]
        np.testing.assert_allclose(grid_points_cost(5, "l1", side=3), sub / sub.max())

    # One point, a grid one short of full, more than one tile, and more
    # points than the given grid holds.
    @pytest.mark.parametrize("n, side", [(1, None), (48, 7), (BLOCK + 17, None),
                                         (BLOCK + 17, 7), (100, 7)])
    @pytest.mark.parametrize("metric", ["l1", "l2sq", "L2SQ"])
    def test_tiles_match_broadcast_formula_bitwise(self, n, side, metric):
        got = grid_points_cost(n, metric, side=side)
        assert got.tobytes() == cdist_grid_cost(n, metric, side).tobytes()

    def test_unknown_metric_rejected_before_allocation(self):
        n = 4 * BLOCK

        def build():
            with pytest.raises(DomainError, match="unknown metric"):
                grid_points_cost(n, "linf")

        assert traced_peak(build) < n * n

    def test_peak_is_one_matrix_and_one_tile(self):
        n = 4 * BLOCK
        peak = traced_peak(grid_points_cost, n, "l1")
        # numpy holds two 8192-element iteration buffers when an operand broadcasts.
        assert peak <= 8 * (n * n + BLOCK * BLOCK + 8 * n) + 2 * 8 * 8192


class TestGenMarginal:
    def test_uniform(self):
        np.testing.assert_array_equal(gen_marginal(4, "uniform", 99), np.full(4, 0.25))

    @pytest.mark.parametrize("kind", ["smooth-random", "spiky-random"])
    def test_deterministic(self, kind):
        a = gen_marginal(64, kind, 7)
        b = gen_marginal(64, kind, 7)
        np.testing.assert_array_equal(a, b)

    def test_spiky_positive_simplex(self):
        m = gen_marginal(100, "spiky-random", 7)
        assert m.min() > 0.0
        assert abs(m.sum() - 1.0) <= 1e-12

    def test_smooth_positive_simplex(self):
        m = gen_marginal(100, "smooth-random", 3)
        assert m.min() > 0.0
        assert abs(m.sum() - 1.0) <= 1e-12


class TestValidate:
    def _problem(self, C):
        return Problem(C=C, r=np.full(3, 1 / 3), c=np.full(3, 1 / 3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry(self, bad):
        C = grid_points_cost(3, "l1")
        C[1, 2] = bad
        with pytest.raises(DomainError, match="^cost matrix must be finite$"):
            self._problem(C)

    @pytest.mark.parametrize("bad", [-0.25, 1.5])
    def test_out_of_range_entry(self, bad):
        C = grid_points_cost(3, "l1")
        C[2, 0] = bad
        with pytest.raises(DomainError, match=r"^cost entries must lie in \[0, 1\]$"):
            self._problem(C)

    def test_non_finite_reported_before_range(self):
        C = grid_points_cost(3, "l1")
        C[0, 1], C[1, 0] = 2.0, np.nan
        with pytest.raises(DomainError, match="finite"):
            self._problem(C)

    def test_nan_marginal(self):
        r = np.array([0.5, np.nan, 0.5])
        with pytest.raises(DomainError, match="^marginal r sums to nan, not 1$"):
            Problem(C=grid_points_cost(3, "l1"), r=r, c=np.full(3, 1 / 3))


class TestProblemIO:
    def _problem(self, n=4, seed=1):
        side = int(np.ceil(np.sqrt(n)))
        return Problem(C=grid_points_cost(n, "l1", side=side),
                       r=gen_marginal(n, "smooth-random", seed),
                       c=gen_marginal(n, "spiky-random", seed + 1),
                       label="t")

    def test_round_trip_exact(self, tmp_path):
        prob = self._problem()
        path = tmp_path / "p.otp"
        save_problem(prob, path)
        back = load_problem(path)
        np.testing.assert_array_equal(back.C, prob.C)
        np.testing.assert_array_equal(back.r, prob.r)
        np.testing.assert_array_equal(back.c, prob.c)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.otp"
        path.write_text("2 3\n0.5 0.5\n0.5 0.5\n0 1\n1 0\n")
        with pytest.raises(ParseError, match="line 1"):
            load_problem(path)

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "bad.otp"
        path.write_text("OTP 3\n0.5 0.5\n0.5 0.5\n0 1\n1 0\n")
        with pytest.raises(ParseError):
            load_problem(path)

    def test_non_simplex_marginal(self, tmp_path):
        path = tmp_path / "bad.otp"
        path.write_text("OTP 2\n0.5 0.4\n0.5 0.5\n0 1\n1 0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_problem(path)

    def test_nan_marginal(self, tmp_path):
        path = tmp_path / "bad.otp"
        path.write_text("OTP 2\n0.5 nan\n0.5 0.5\n0 1\n1 0\n")
        with pytest.raises(ParseError, match="^line 2: non-finite value in row marginal"):
            load_problem(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_cost(self, tmp_path, bad):
        path = tmp_path / "bad.otp"
        path.write_text(f"OTP 2\n0.5 0.5\n0.5 0.5\n0 {bad}\n1 0\n")
        with pytest.raises(ParseError, match="^line 4: non-finite value in cost row 0"):
            load_problem(path)

    def test_near_simplex_renormalized(self, tmp_path):
        path = tmp_path / "ok.otp"
        path.write_text(f"OTP 2\n0.5 {0.5 + 1e-10}\n0.5 0.5\n0 1\n1 0\n")
        prob = load_problem(path)
        assert prob.r.sum() == pytest.approx(1.0, abs=1e-15)


class TestTraceIO:
    def _rows(self, k):
        return [TraceRow(t=i + 1, gamma=2.0 ** i, eps_d=0.1 / (i + 1), newton_steps=i,
                         cg_iters=3 * i, sinkhorn_steps=1, linesearch_backtracks=0,
                         grad_norm_l1=1e-7 * (i + 1), rho_final=0.75, delta_min=0.97,
                         q=2.0, ops_n2=11 * (i + 1), wall_ms=1.25)
                for i in range(k)]

    def test_empty_run_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace([], path)
        assert path.read_bytes() == (
            b"t,gamma,eps_d,newton_steps,cg_iters,sinkhorn_steps,linesearch_backtracks,"
            b"grad_norm_l1,rho_final,delta_min,q,ops_n2,wall_ms\r\n")

    def test_three_rows_four_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(self._rows(3), path)
        assert len(path.read_text().strip().split("\n")) == 4

    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = self._rows(3)
        write_trace(rows, path)
        assert read_trace(path) == rows
