import math

import numpy as np
import pytest
import scipy.linalg
from dense_reference import dense_F, dense_plan, dense_prc

from otnewton import newton, opcount
from otnewton.dual import DualState
from otnewton.errors import ConditioningError, NonconvergenceError, StagnationError
from otnewton.newton import (EXPLICIT_MAX_N, DiscountedSystem, newton_solve, next_rho0,
                             pcg_solve)
from otnewton.problems import Problem, gen_marginal, grid_points_cost


def random_state(n, seed=0, gamma=4.0):
    """A random dual state with strictly positive plan entries."""
    C = grid_points_cost(n, "l1") if n > 1 else np.zeros((1, 1))
    r = gen_marginal(n, "smooth-random", seed)
    c = gen_marginal(n, "spiky-random", seed + 100)
    rng = np.random.default_rng(seed + 7)
    return DualState(Problem(C=C, r=r, c=c), gamma,
                     u=np.log(r) + 0.3 * rng.standard_normal(n),
                     v=np.log(c) + 0.3 * rng.standard_normal(n))


def random_system(n, seed=0, gamma=4.0):
    """System from a random dual state with strictly positive plan entries."""
    return DiscountedSystem.from_state(random_state(n, seed, gamma))


@pytest.fixture(params=[64, 144], ids=lambda n: f"n{n}")
def n(request):
    """A dense system size on each side of ``EXPLICIT_MAX_N``: the explicit
    round-trip matrix at 64, the two plan products at 144."""
    return request.param


def independence_system(r, c):
    P = np.outer(r, c)
    return DiscountedSystem(P, P.sum(axis=1), P.sum(axis=0))


def prc_spectrum(sys):
    """Ascending eigenvalues of P_rc, from its symmetric similar form
    D(rP)^1/2 P_rc D(rP)^-1/2 = G G^T."""
    G = dense_plan(sys) / (np.sqrt(sys.rP)[:, None] * np.sqrt(sys.cP)[None, :])
    return np.linalg.eigvalsh(G @ G.T)


class TestOperators:
    def test_prc_fixes_ones(self, n):
        sys = random_system(n, seed=1)
        np.testing.assert_allclose(sys.round_trip(np.ones(n)) / sys.rP, np.ones(n), atol=1e-12)

    def test_prc_independence_rank_one(self):
        sys = independence_system(np.array([0.5, 0.5]), np.array([0.3, 0.7]))
        out = sys.round_trip(np.array([1.0, -1.0])) / sys.rP
        np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-15)

    def test_prc_matches_dense(self, n):
        sys = random_system(n, seed=2)
        d = np.random.default_rng(3).standard_normal(n)
        np.testing.assert_allclose(sys.round_trip(d) / sys.rP, dense_prc(sys) @ d, rtol=1e-12)

    def test_pc_fixes_ones(self, n):
        sys = random_system(n, seed=4)
        np.testing.assert_allclose(sys.apply_pc(np.ones(n)), np.ones(n), atol=1e-12)

    def test_pc_independence(self):
        r = np.array([0.6, 0.4])
        c = np.array([0.3, 0.7])
        sys = independence_system(r, c)
        d = np.array([1.0, 2.0])
        np.testing.assert_allclose(sys.apply_pc(d), np.full(2, r @ d), rtol=1e-14)

    def test_pc_matches_dense(self, n):
        sys = random_system(n, seed=5)
        d = np.random.default_rng(6).standard_normal(n)
        dense = (dense_plan(sys).T / sys.cP[:, None]) @ d
        np.testing.assert_allclose(sys.apply_pc(d), dense, rtol=1e-12)

    def test_F_at_rho_zero_is_diagonal(self, n):
        sys = random_system(n, seed=7)
        d = np.random.default_rng(8).standard_normal(n)
        np.testing.assert_allclose(sys.apply_F(0.0, d), sys.rP * d, rtol=1e-14)

    def test_F_on_ones_shrinks_by_rho(self, n):
        sys = random_system(n, seed=9)
        for rho in (0.0, 0.5, 0.9):
            np.testing.assert_allclose(sys.apply_F(rho, np.ones(n)),
                                       (1.0 - rho) * sys.rP, rtol=0, atol=1e-13)

    def test_F_symmetry_and_gerschgorin_bounds(self, n):
        sys = random_system(n, seed=10)
        rng = np.random.default_rng(11)
        rho = 0.9
        for _ in range(5):
            x, y = rng.standard_normal((2, n))
            assert sys.apply_F(rho, x) @ y == pytest.approx(x @ sys.apply_F(rho, y), rel=1e-12)
        evals = np.linalg.eigvalsh(dense_F(sys, rho))
        assert evals.min() >= (1.0 - rho) * sys.rP.min() - 1e-12
        assert evals.max() <= (1.0 + rho) * sys.rP.max() + 1e-12

    def test_diag_prc_hand_value(self):
        sys = DiscountedSystem(np.full((2, 2), 0.25), np.array([0.5, 0.5]),
                               np.array([0.5, 0.5]))
        np.testing.assert_allclose(sys.diag_prc(), [0.5, 0.5], rtol=1e-15)

    def test_diag_prc_near_identity_plan(self):
        # a plan close to a one-to-one matching makes P_rc nearly the identity
        P = np.eye(4) * 0.25 + 1e-9
        sys = DiscountedSystem(P, P.sum(axis=1), P.sum(axis=0))
        assert sys.diag_prc().min() > 1.0 - 1e-6

    def test_diag_prc_matches_dense(self, n):
        sys = random_system(n, seed=12)
        np.testing.assert_allclose(sys.diag_prc(), np.diag(dense_prc(sys)), rtol=1e-12)
        mu = sys.diag_prc()
        assert np.all(mu > 0.0) and np.all(mu <= 1.0 + 1e-15)


class TestExplicitSystem:
    """A dense system of at most ``EXPLICIT_MAX_N`` rows applies its round
    trip as one product with ``K``: the same operators as two plan
    products, to 1e-13 of their scale, counted as the same passes."""

    @staticmethod
    def both_systems(n, monkeypatch):
        # Offsets on both sides, so the scalings by e^a and e^b enter K.
        state = random_state(n, seed=80)
        state.anchored_plan()  # anchors at the column maxima; u then moves off it
        state.set_potentials(state.u + np.random.default_rng(81).uniform(-1, 1, n), state.v)
        explicit = DiscountedSystem.from_state(state)
        monkeypatch.setattr(newton, "EXPLICIT_MAX_N", 0)
        plain = DiscountedSystem.from_state(state)
        assert explicit._K is not None and plain._K is None
        assert explicit.P is plain.P
        return explicit, plain

    @staticmethod
    def passes(fn, *args):
        before = opcount.total()
        return fn(*args), opcount.total() - before

    @pytest.mark.parametrize("n", [16, EXPLICIT_MAX_N])
    def test_matches_two_product_system(self, n, monkeypatch):
        explicit, plain = self.both_systems(n, monkeypatch)
        d = np.random.default_rng(82).standard_normal(n)
        abs_d = np.abs(d)
        cases = (  # (operator, its scale: the plain operator on |d|)
            (lambda s: s.round_trip(d), lambda: plain.round_trip(abs_d)),
            (lambda s: s.apply_F(0.9, d),
             lambda: plain.rP * abs_d + 0.9 * plain.round_trip(abs_d)),
            (lambda s: s.apply_F(1.0, d), lambda: plain.rP * abs_d + plain.round_trip(abs_d)),
            (lambda s: s.apply_pc(d), lambda: plain.apply_pc(abs_d)),
            (lambda s: s.diag_prc(), plain.diag_prc),
        )
        for op, scale in cases:
            got, got_passes = self.passes(op, explicit)
            ref, ref_passes = self.passes(op, plain)
            assert got_passes == ref_passes > 0
            assert np.all(np.abs(got - ref) <= 1e-13 * scale())

    def test_newton_solve_matches_and_counts_the_same(self, monkeypatch):
        n = 64
        explicit, plain = self.both_systems(n, monkeypatch)
        grad = np.random.default_rng(83).standard_normal(n) * 0.01
        grad -= grad.mean()
        got, got_passes = self.passes(newton_solve, grad, explicit, 1e-3)
        ref, ref_passes = self.passes(newton_solve, grad, plain, 1e-3)
        assert got_passes == ref_passes
        assert (got.cg_iters, got.rho_final) == (ref.cg_iters, ref.rho_final) and got.cg_iters
        scale = np.abs(ref.d_u).max()
        np.testing.assert_allclose(got.d_u, ref.d_u, rtol=0, atol=1e-9 * scale)
        np.testing.assert_allclose(got.d_v, ref.d_v, rtol=0, atol=1e-9 * scale)


class TestStochasticMatrixProperties:
    """Row-stochasticity, stationarity, reversibility of the round-trip matrix."""

    @pytest.mark.parametrize("seed", range(5))
    def test_row_stochastic(self, seed):
        sys = random_system(6, seed=seed)
        dense = dense_prc(sys)
        assert dense.min() > 0.0
        np.testing.assert_allclose(dense @ np.ones(6), np.ones(6), atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_stationary_distribution_is_row_sums(self, seed):
        sys = random_system(6, seed=seed)
        np.testing.assert_allclose(dense_prc(sys).T @ sys.rP, sys.rP, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_reversibility(self, seed):
        sys = random_system(6, seed=seed)
        dense = dense_prc(sys)
        lhs = np.diag(sys.rP) @ dense
        np.testing.assert_allclose(lhs, lhs.T, atol=1e-12)
        evals = np.linalg.eigvals(dense)
        assert np.abs(evals.imag).max() < 1e-10


class TestPreconditionedSpectrum:
    @pytest.mark.parametrize("rho", [0.5, 0.9, 0.99])
    def test_eigenvalue_bounds(self, rho):
        sys = random_system(8, seed=20)
        mu_min = sys.diag_prc().min()
        M = sys.rP * (1.0 - rho * sys.diag_prc())
        F = dense_F(sys, rho)
        Fhat = F / np.sqrt(M)[:, None] / np.sqrt(M)[None, :]
        evals = np.linalg.eigvalsh(Fhat)
        half_width = rho * (1.0 - mu_min) / (1.0 - rho * mu_min)
        assert evals.min() >= 1.0 - half_width - 1e-10
        assert evals.max() <= 1.0 + half_width + 1e-10


class TestPcgSolve:
    def test_diagonal_system_one_iteration(self, n):
        sys = random_system(n, seed=30)
        b = np.random.default_rng(31).standard_normal(n)
        d, iters = pcg_solve(sys, 0.0, b, tol_l1=1e-12)
        assert iters <= 1
        np.testing.assert_allclose(d, b / sys.rP, rtol=1e-10)

    def test_independence_matches_dense(self):
        sys = independence_system(np.array([0.6, 0.4]), np.array([0.5, 0.5]))
        grad = np.array([-0.05, 0.05])
        d, _ = pcg_solve(sys, 0.5, -grad, tol_l1=1e-14)
        ref = scipy.linalg.solve(dense_F(sys, 0.5), -grad, assume_a="pos")
        np.testing.assert_allclose(d, ref, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("rho", [0.0, 0.9, 0.99])
    def test_matches_dense_solve(self, rho, n):
        sys = random_system(n, seed=33)
        b = np.random.default_rng(34).standard_normal(n) * 0.01
        d, _ = pcg_solve(sys, rho, b, tol_l1=1e-14)
        ref = scipy.linalg.solve(dense_F(sys, rho), b, assume_a="pos")
        rel = np.abs(d - ref).max() / np.abs(ref).max()
        assert rel <= 1e-8

    def test_warm_start_zero_iterations(self, n):
        sys = random_system(n, seed=35)
        b = np.random.default_rng(36).standard_normal(n)
        d, _ = pcg_solve(sys, 0.7, b, tol_l1=1e-12)
        d2, iters = pcg_solve(sys, 0.7, b, tol_l1=1e-10, d0=d)
        assert iters == 0
        np.testing.assert_array_equal(d2, d)

    def test_budget_exhaustion_carries_best(self, n):
        sys = random_system(n, seed=37)
        b = np.random.default_rng(38).standard_normal(n)
        with pytest.raises(NonconvergenceError) as err:
            pcg_solve(sys, 0.9999, b, tol_l1=1e-15, max_iters=2)
        assert err.value.best is not None
        assert err.value.best.shape == (n,)

    def test_a_second_solve_keeps_the_first_results(self, n):
        # The loop works in buffers: neither a returned direction nor a
        # NonconvergenceError's best may be one that a later solve reuses.
        sys = random_system(n, seed=37)
        b = np.random.default_rng(38).standard_normal(n)
        d, iters = pcg_solve(sys, 0.9, b, tol_l1=1e-10)
        with pytest.raises(NonconvergenceError) as err:
            pcg_solve(sys, 0.9999, b, tol_l1=1e-15, max_iters=2)
        assert iters > 2
        kept, best = d.copy(), err.value.best.copy()
        pcg_solve(sys, 0.5, -b, tol_l1=1e-10)
        pcg_solve(sys, 0.9, 2.0 * b, tol_l1=1e-10, d0=d)
        with pytest.raises(NonconvergenceError):
            pcg_solve(sys, 0.9999, -b, tol_l1=1e-15, max_iters=3)
        np.testing.assert_array_equal(d, kept)
        np.testing.assert_array_equal(err.value.best, best)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan])
    def test_rejects_bad_inputs(self, tol):
        # A NaN tolerance is refused at once, not after 10 n iterations.
        sys = random_system(4, seed=39)
        b = np.ones(4)
        with pytest.raises(ConditioningError):
            pcg_solve(sys, 1.0, b, tol_l1=1e-10)
        with pytest.raises(ConditioningError, match="tol_l1 must be positive"):
            pcg_solve(sys, 0.5, b, tol_l1=tol)
        with pytest.raises(ConditioningError, match="eta must be positive"):
            newton_solve(b - 1.5, sys, eta=tol)


class TestNonFiniteValues:
    """A NaN or infinite sum, or a NaN that reaches CG, ends the solve at
    once with ``ConditioningError``, not after ``10 n`` CG iterations."""

    @staticmethod
    def uniform_plan(n=64):
        P = np.full((n, n), 1.0 / n ** 2)
        return P, P.sum(axis=1), P.sum(axis=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("side", ["rP", "cP"])
    def test_system_rejects_a_sum(self, side, bad):
        P, rP, cP = self.uniform_plan()
        {"rP": rP, "cP": cP}[side][3] = bad
        with pytest.raises(ConditioningError):
            DiscountedSystem(P, rP, cP)

    def test_nan_preconditioner_is_refused(self):
        P, rP, cP = self.uniform_plan()
        P[3, 5] = math.nan  # diag_prc is NaN in row 3
        with pytest.raises(ConditioningError, match="preconditioner"):
            pcg_solve(DiscountedSystem(P, rP, cP), 0.5, np.ones(64), tol_l1=1e-10)

    def test_nan_curvature_is_refused(self):
        b = np.ones(64)
        b[3] = math.nan
        with pytest.raises(ConditioningError, match="curvature"):
            pcg_solve(DiscountedSystem(*self.uniform_plan()), 0.5, b, tol_l1=1e-10)


class TestNewtonSolve:
    def test_zero_gradient_short_circuits(self):
        sys = random_system(6, seed=40)
        res = newton_solve(np.zeros(6), sys, eta=0.5, rho0=0.25)
        np.testing.assert_array_equal(res.d_u, np.zeros(6))
        assert res.cg_iters == 0
        assert res.rho_final == 0.25

    def test_independence_jacobi_is_exact(self):
        # flat plan: P_rc d is constant, and the Jacobi direction for a
        # zero-sum gradient already has zero undiscounted residual
        sys = DiscountedSystem(np.full((2, 2), 0.25), np.array([0.5, 0.5]),
                               np.array([0.5, 0.5]))
        grad = np.array([-0.1, 0.1])
        res = newton_solve(grad, sys, eta=0.25, rho0=0.0)
        np.testing.assert_allclose(res.d_u, [0.2, -0.2], rtol=1e-14)
        assert res.cg_iters == 0
        assert res.rho_final == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_forcing_inequality_at_exit(self, seed):
        sys = random_system(12, seed=seed, gamma=8.0)
        rng = np.random.default_rng(seed + 50)
        grad = rng.standard_normal(12) * 0.01
        grad -= grad.mean()  # zero-sum like a real marginal mismatch
        eta = 0.3
        res = newton_solve(grad, sys, eta=eta)
        resid = sys.apply_F(1.0, res.d_u) + grad
        assert np.abs(resid).sum() <= eta * np.abs(grad).sum() + 1e-15
        assert res.undiscounted_residual_l1 == pytest.approx(np.abs(resid).sum(), rel=1e-9)

    def test_rho_anneals_on_quarter_grid(self):
        # the discount sequence is 0, 3/4, 15/16, ... so 1 - rho is a power of 4
        sys = random_system(16, seed=41, gamma=16.0)
        rng = np.random.default_rng(42)
        grad = rng.standard_normal(16) * 0.01
        grad -= grad.mean()
        res = newton_solve(grad, sys, eta=0.01)
        k = math.log(1.0 - res.rho_final) / math.log(4.0)
        assert k == pytest.approx(round(k), abs=1e-9)


    @pytest.mark.parametrize("eta_max", [0.99, 1e-6])
    def test_relaxed_exit_at_the_discount_cap(self, eta_max, monkeypatch):
        # With the cap above 1 - rho0, the first direction is at the cap: it
        # misses the forcing target 1e-12 and is returned, flagged, when its
        # residual is within ETA_MAX of the gradient norm; otherwise the
        # solve stagnates.
        monkeypatch.setattr(newton, "RHO_CAP", 0.5)
        monkeypatch.setattr(newton, "ETA_MAX", eta_max)
        sys = random_system(12, seed=3, gamma=8.0)
        grad = np.random.default_rng(53).standard_normal(12) * 0.01
        grad -= grad.mean()
        d = -grad / sys.rP
        residual = np.abs(sys.apply_F(1.0, d) + grad).sum()
        assert 1e-6 * np.abs(grad).sum() < residual < 0.99 * np.abs(grad).sum()
        if eta_max == 0.99:
            res = newton_solve(grad, sys, eta=1e-12, rho0=0.75)
            assert res.relaxed and res.cg_iters == 0
            np.testing.assert_array_equal(res.d_u, d)
            assert res.undiscounted_residual_l1 == pytest.approx(residual, rel=1e-12)
        else:
            with pytest.raises(StagnationError):
                newton_solve(grad, sys, eta=1e-12, rho0=0.75)


class TestNextRho0:
    def test_values(self):
        assert next_rho0(0.9) == pytest.approx(0.6, rel=1e-12)
        assert next_rho0(0.0) == 0.0
        assert next_rho0(0.75) == 0.0

    def test_inverts_one_annealing_step(self):
        rho = 0.9375
        annealed = 1.0 - (1.0 - next_rho0(rho)) / 4.0
        assert annealed == pytest.approx(rho, rel=1e-12)


class TestLambda2:
    def test_independence_is_rank_one(self):
        sys = independence_system(np.array([0.25, 0.35, 0.4]), np.array([0.3, 0.3, 0.4]))
        assert prc_spectrum(sys)[-2] == pytest.approx(0.0, abs=1e-10)

    def test_leading_eigenvalue_is_one(self):
        sys = random_system(10, seed=60)
        S = dense_prc(sys)
        evals = np.sort(np.linalg.eigvals(S).real)
        assert evals[-1] == pytest.approx(1.0, abs=1e-10)
        sym = prc_spectrum(sys)
        assert sym[-1] == pytest.approx(1.0, abs=1e-8)
        assert sym[-2] == pytest.approx(evals[-2], abs=1e-9)

    def test_near_decoupled_blocks_push_lambda2_to_one(self):
        # two almost-isolated blocks: mixing across them is nearly impossible
        A = np.full((2, 2), 0.25)
        eps = 1e-8
        P = np.block([[A, np.full((2, 2), eps)], [np.full((2, 2), eps), A]])
        sys = DiscountedSystem(P, P.sum(axis=1), P.sum(axis=0))
        assert prc_spectrum(sys)[-2] > 1.0 - 1e-6


class TestResidualIdentity:
    """The full 2n Newton residual collapses to its row half when the column
    half of the gradient is zero and d_v is the free back-substitution."""

    @pytest.mark.parametrize("seed", range(4))
    def test_dense_identity(self, seed):
        n = 8
        sys = random_system(n, seed=seed)
        rng = np.random.default_rng(seed + 70)
        # target marginals: columns already balanced, rows mismatched
        r_target = sys.rP * (1.0 + 0.05 * rng.standard_normal(n))
        grad_u = sys.rP - r_target
        d_u = rng.standard_normal(n)
        d_v = -sys.apply_pc(d_u)
        P = dense_plan(sys)
        hessian = np.block([[np.diag(sys.rP), P], [P.T, np.diag(sys.cP)]])
        e = hessian @ np.concatenate([d_u, d_v]) + np.concatenate([grad_u, np.zeros(n)])
        np.testing.assert_allclose(e[n:], 0.0, atol=1e-12)
        e_u1 = sys.apply_F(1.0, d_u) + grad_u
        np.testing.assert_allclose(e[:n], e_u1, atol=1e-12)
