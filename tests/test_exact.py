import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqrpg.exact
from lqrpg import (
    InstabilityError,
    NumericError,
    closed_loop,
    exact_quantities,
    finite_horizon_quantities,
    gradient_domination_mu,
    paper3x3,
    scalar_s1,
    solve_dare,
    solve_discrete_lyapunov,
)
from conftest import random_plant, random_stabilizing_gain


class TestLyapunov:
    def test_scalar_solution(self):
        X = solve_discrete_lyapunov(np.array([[0.5]]), np.array([[1.0]]))
        assert X[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_residual_random(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            M = rng.normal(size=(n, n))
            M *= 0.9 / max(np.max(np.abs(np.linalg.eigvals(M))), 1e-6)
            W = rng.normal(size=(n, n))
            W = W @ W.T + np.eye(n)
            X = solve_discrete_lyapunov(M, W)
            np.testing.assert_allclose(X, M @ X @ M.T + W, atol=1e-8)
            np.testing.assert_allclose(X, X.T)

    def test_unstable_raises(self):
        with pytest.raises(InstabilityError):
            solve_discrete_lyapunov(np.array([[1.0]]), np.array([[1.0]]))

    def test_large_dimension_fixed_point(self, rng):
        n = 40
        M = 0.5 * np.eye(n)
        W = np.eye(n)
        X = solve_discrete_lyapunov(M, W)
        np.testing.assert_allclose(X, (4.0 / 3.0) * np.eye(n), atol=1e-9)


class TestLyapunovCheck:
    """The solve passes a normwise backward-error test, so a wrong solution
    is refused and an accurate one is accepted however large it is."""

    M = np.array([[0.5, 1.0], [0.0, 0.3]])  # not normal: M X M' != M' X M
    W = np.array([[2.0, 0.5], [0.5, 1.0]])

    @pytest.mark.parametrize("wrong", [
        lambda solve, a, b: solve(a, b) * (1 + 1e-8),
        lambda solve, a, b: solve(a.swapaxes(-1, -2), b),  # X = M' X M + W
    ], ids=["scaled", "transposed"])
    def test_wrong_solutions_are_refused(self, wrong, monkeypatch):
        solve_discrete_lyapunov(self.M, self.W)
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: wrong(solve, a, b))
        with pytest.raises(NumericError, match="Lyapunov residual"):
            solve_discrete_lyapunov(self.M, self.W)

    def test_accurate_ill_conditioned_solution_is_accepted(self):
        """||X|| = 2.5e12 from ||W|| = 1.4: the residual, 5e-9, is past the
        former 1e-10 max(1, ||W||) but within 2^14 u ||M||^2 ||X||."""
        M, W = np.array([[0.999, 100.0], [0.0, 0.999]]), np.eye(2)
        X = solve_discrete_lyapunov(M, W)
        assert np.linalg.norm(X - M @ X @ M.T - W) > 1e-10 * np.linalg.norm(W)
        # Smith's doubling: the series sum_k M^k W M'^k, 2^40 terms.
        ref, P = W.copy(), M.copy()
        for _ in range(40):
            ref, P = ref + P @ ref @ P.T, P @ P
        np.testing.assert_allclose(X, ref, rtol=1e-12)


class TestExactQuantities:
    def test_scalar_goldens_half(self):
        q = exact_quantities(scalar_s1(), [[-0.5]])
        assert q.P[0, 0] == pytest.approx(1.25, rel=1e-12)
        assert q.Sigma[0, 0] == pytest.approx(1.0, rel=1e-12)
        assert q.cost == pytest.approx(1.25, rel=1e-12)
        assert q.E[0, 0] == pytest.approx(-0.5, rel=1e-12)
        assert q.grad[0, 0] == pytest.approx(-1.0, rel=1e-12)

    def test_scalar_goldens_zero(self):
        q = exact_quantities(scalar_s1(), [[0.0]])
        assert q.P[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert q.cost == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert q.E[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert q.grad[0, 0] == pytest.approx(16.0 / 9.0, rel=1e-12)

    def test_cost_trace_identity(self, rng):
        for _ in range(20):
            p = random_plant(rng)
            K = random_stabilizing_gain(p, rng)
            q = exact_quantities(p, K)
            Q_K = p.Q + K.T @ p.R @ K
            assert q.cost == pytest.approx(float(np.trace(Q_K @ q.Sigma)), rel=1e-8)

    def test_gradient_matches_finite_differences(self, rng):
        p = random_plant(rng, 3, 2)
        K = random_stabilizing_gain(p, rng)
        q = exact_quantities(p, K)
        eps = 1e-6
        fd = np.zeros_like(K)
        for i in range(K.shape[0]):
            for j in range(K.shape[1]):
                Kp, Km = K.copy(), K.copy()
                Kp[i, j] += eps
                Km[i, j] -= eps
                fd[i, j] = (exact_quantities(p, Kp).cost
                            - exact_quantities(p, Km).cost) / (2 * eps)
        np.testing.assert_allclose(q.grad, fd, rtol=1e-5, atol=1e-8)

    def test_unstable_gain_raises(self):
        with pytest.raises(InstabilityError):
            exact_quantities(scalar_s1(), [[1.0]])

    def test_lyapunov_solves_match_public_solver_bitwise(self, rng):
        for _ in range(20):
            p = random_plant(rng)
            K = random_stabilizing_gain(p, rng)
            q = exact_quantities(p, K)
            A_K = p.A + p.B @ K
            Q_K = p.Q + K.T @ p.R @ K
            np.testing.assert_array_equal(q.P, solve_discrete_lyapunov(A_K.T, Q_K))
            np.testing.assert_array_equal(q.Sigma, solve_discrete_lyapunov(A_K, p.Sigma_w))


def _reference_lyapunov(M, W):
    """The single-matrix Kronecker solve: np.kron and a vector right side."""
    n = M.shape[0]
    x = np.linalg.solve(np.eye(n * n) - np.kron(M, M), W.reshape(n * n, order="F"))
    X = x.reshape((n, n), order="F")
    return 0.5 * (X + X.T)


def _reference_quantities(p, K):
    A_K = p.A + p.B @ K
    P = _reference_lyapunov(A_K.T, p.Q + K.T @ p.R @ K)
    Sigma = _reference_lyapunov(A_K, p.Sigma_w)
    E = (p.R + p.B.T @ P @ p.B) @ K + p.B.T @ P @ p.A
    return P, Sigma, E, float(np.trace(P @ p.Sigma_w)), 2.0 * E @ Sigma


class TestExactStack:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 6), st.floats(0.0, 1.5))
    @settings(max_examples=60, deadline=None)
    def test_stack_matches_single_gains_bitwise(self, seed, n_x, n_u, m, spread):
        """The batched core, member by member, is exact_quantities and the
        single-matrix Kronecker solve bit for bit; its mask is closed_loop's."""
        rng = np.random.default_rng(seed)
        p = random_plant(rng, n_x, n_u)
        K_star = solve_dare(p).K_star
        Ks = K_star + spread * rng.normal(size=(m, n_u, n_x))
        # One member far outside the stability region.
        Ks[rng.integers(m)] = 100.0 * rng.normal(size=(n_u, n_x))
        s = lqrpg.exact._exact_stack(p, Ks)
        j = 0
        for K, rho in zip(Ks, s.rho):
            _, rep = closed_loop(p, K)
            assert rho == rep.spectral_radius
            if not rep.is_stabilizing:
                with pytest.raises(InstabilityError):
                    exact_quantities(p, K)
                continue
            q = exact_quantities(p, K)
            got = (s.P[j], s.Sigma[j], s.E[j], s.cost[j], s.grad[j])
            for a, b, c in zip(got, (q.P, q.Sigma, q.E, q.cost, q.grad),
                               _reference_quantities(p, K)):
                np.testing.assert_array_equal(a, b)
                np.testing.assert_array_equal(a, c)
            j += 1
        assert j == len(s.cost) == len(s.P)

    def test_chunked_solve_matches_single_solves(self, rng, monkeypatch):
        """Stacks longer than one chunk solve each member as alone."""
        monkeypatch.setattr(lqrpg.exact, "_KRON_MAX_DIM", 3)  # chunks of 5 at n = 2
        M = 0.4 * rng.normal(size=(12, 2, 2))
        W = np.eye(2) + 0.1 * np.arange(12)[:, None, None] * np.ones((2, 2))
        X = lqrpg.exact._lyapunov(M, W)
        for Mj, Wj, Xj in zip(M, W, X):
            np.testing.assert_array_equal(Xj, _reference_lyapunov(Mj, Wj))


class TestOptimalSolution:
    def test_scalar_goldens(self):
        opt = solve_dare(scalar_s1())
        assert opt.P_star[0, 0] == pytest.approx(1.132782218537283, rel=1e-10)
        assert opt.K_star[0, 0] == pytest.approx(-0.26556443707463345, rel=1e-9)
        assert opt.C_star == pytest.approx(1.132782218537283, rel=1e-10)
        assert opt.Sigma_star[0, 0] == pytest.approx(1.0581563059, rel=1e-8)

    def test_optimal_is_stationary(self, rng):
        for _ in range(10):
            p = random_plant(rng)
            opt = solve_dare(p)
            q = exact_quantities(p, opt.K_star)
            assert np.linalg.norm(q.grad, "fro") < 1e-7 * max(1.0, q.cost)
            assert q.cost == pytest.approx(opt.C_star, rel=1e-9)

    def test_optimal_beats_perturbations(self, rng):
        p = random_plant(rng, 2, 2)
        opt = solve_dare(p)
        for _ in range(10):
            K = random_stabilizing_gain(p, rng, spread=0.1)
            assert exact_quantities(p, K).cost >= opt.C_star - 1e-9

    def test_solved_once_per_plant(self):
        p = paper3x3()
        opt = solve_dare(p)
        assert solve_dare(p) is opt
        for m in (opt.K_star, opt.P_star, opt.Sigma_star):
            assert not m.flags.writeable
        assert solve_dare(paper3x3()) is not opt

    def test_riccati_residual(self, rng):
        for p in [paper3x3(), scalar_s1()] + [random_plant(rng) for _ in range(20)]:
            P = solve_dare(p).P_star
            BtPA = p.B.T @ P @ p.A
            resid = (p.Q + p.A.T @ P @ p.A - P
                     - BtPA.T @ np.linalg.solve(p.R + p.B.T @ P @ p.B, BtPA))
            assert np.linalg.norm(resid, "fro") <= 1e-9 * max(1.0, np.linalg.norm(P, "fro"))

    def test_unstable_open_loop_paper_plant(self):
        opt = solve_dare(paper3x3())
        rho = np.max(np.abs(np.linalg.eigvals(paper3x3().A + opt.K_star)))
        assert rho < 1.0


class TestGradientDomination:
    def test_scalar_mu_golden(self):
        assert gradient_domination_mu(scalar_s1()) == pytest.approx(
            0.26453907641286, rel=1e-9
        )

    def test_domination_inequality_scalar(self):
        p = scalar_s1()
        mu = gradient_domination_mu(p)
        opt = solve_dare(p)
        q = exact_quantities(p, [[0.0]])
        gap = q.cost - opt.C_star
        assert gap == pytest.approx(0.20055111479605037, rel=1e-8)
        assert gap <= mu * np.linalg.norm(q.grad, "fro") ** 2 + 1e-12


class TestFiniteHorizon:
    def test_converges_to_infinite_horizon(self):
        p = scalar_s1()
        q = exact_quantities(p, [[-0.5]])
        prev = None
        for l in (10, 100, 1000):
            Sigma_l, C_l = finite_horizon_quantities(p, [[-0.5]], l)
            err = abs(C_l - q.cost)
            if prev is not None:
                assert err <= prev + 1e-15
            prev = err
        assert prev < 1e-6

    def test_unstable_gain_raises_like_exact_quantities(self):
        with pytest.raises(InstabilityError) as inf_h:
            exact_quantities(scalar_s1(), [[1.0]])
        with pytest.raises(InstabilityError) as fin_h:
            finite_horizon_quantities(scalar_s1(), [[1.0]], 10)
        assert str(fin_h.value) == str(inf_h.value)
        assert fin_h.value.spectral_radius == inf_h.value.spectral_radius == 1.5

    def test_single_step_is_initial_covariance(self):
        p = scalar_s1()
        Sigma_1, C_1 = finite_horizon_quantities(p, [[-0.5]], 1)
        np.testing.assert_allclose(Sigma_1, p.Sigma_0)
