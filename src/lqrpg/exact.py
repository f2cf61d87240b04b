"""Exact model-based quantities for the average-cost LQR.

Everything here is deterministic linear algebra: discrete Lyapunov solves,
the closed-loop cost/gradient identities, the Riccati fixed point, and exact
finite-horizon truncations. These functions serve as oracles for the
sampling-based estimators elsewhere in the package.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, InstabilityError, NumericError
from .plants import PlantModel, closed_loop, spectral_radius

__all__ = [
    "solve_discrete_lyapunov",
    "ClosedLoopQuantities",
    "exact_quantities",
    "OptimalSolution",
    "solve_dare",
    "gradient_domination_mu",
    "finite_horizon_quantities",
]

# Above this state dimension the vectorized Kronecker solve becomes costly;
# fall back to fixed-point iteration.
_KRON_MAX_DIM = 32
# Riccati value iteration stops at this relative Frobenius update.
_DARE_TOL = 1e-12
_DARE_MAX_ITER = 100_000


def _symmetrize(X: np.ndarray) -> np.ndarray:
    return 0.5 * (X + X.swapaxes(-1, -2))


def solve_discrete_lyapunov(M: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Solve X = M X M' + W for Schur-stable M.

    Checks shapes, finiteness and the spectral radius of M, then solves in
    the core shared with ``exact_quantities``: (I - M (x) M) vec(X) = vec(W)
    at desk scale, fixed-point iteration beyond ``_KRON_MAX_DIM``. The result
    is symmetrized and passes the core's backward-error test.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    W = np.atleast_2d(np.asarray(W, dtype=float))
    n = M.shape[0]
    if M.shape != (n, n) or W.shape != (n, n):
        raise NumericError(f"incompatible shapes {M.shape}, {W.shape}")
    if not (np.all(np.isfinite(M)) and np.all(np.isfinite(W))):
        raise NumericError("non-finite entries in Lyapunov data")
    rho = float(spectral_radius(M))
    if rho >= 1.0:
        raise InstabilityError(
            f"spectral radius {rho:.6g} >= 1: Lyapunov series diverges",
            spectral_radius=rho,
        )
    return _lyapunov(M[None], W[None])[0]


def _lyapunov(M: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Solver core: X_j = M_j X_j M_j' + W_j for stacks M and W of shape
    (m, n, n), every M_j known to be Schur stable. W = Q + K'RK can overflow
    for a finite K when n_u > n_x. Each X_j must pass the backward-error test
    ||X - M X M' - W||_F <= 2^14 u (||M||_F^2 ||X||_F + ||W||_F), u = 2^-53
    (Higham 2002, ch. 16), which admits the fixed point's 1e-12 truncation."""
    if not (np.all(np.isfinite(M)) and np.all(np.isfinite(W))):
        raise NumericError("non-finite entries in Lyapunov data")
    m, n = M.shape[:2]
    X = np.empty(M.shape)
    if n <= _KRON_MAX_DIM:
        # Per matrix exactly the arithmetic of np.kron and a vector solve.
        # Chunks keep the stacked systems within one system's size at
        # _KRON_MAX_DIM (8 MB).
        step = max(1, _KRON_MAX_DIM**4 // n**4)
        for s in range(0, m, step):
            Mc = M[s:s + step]
            kron = (Mc[:, :, None, :, None] * Mc[:, None, :, None, :]).reshape(
                -1, n * n, n * n)
            vec_W = W[s:s + step].swapaxes(-1, -2).reshape(-1, n * n, 1)
            x = np.linalg.solve(np.eye(n * n) - kron, vec_W)
            X[s:s + step] = x.reshape(-1, n, n).swapaxes(-1, -2)
    else:
        for j in range(m):
            X[j] = W[j]
            term = W[j].copy()
            for _ in range(200_000):
                term = M[j] @ term @ M[j].T
                X[j] += term
                if np.linalg.norm(term, "fro") <= 1e-12 * np.linalg.norm(X[j], "fro"):
                    break
            else:
                raise ConvergenceError("Lyapunov fixed point did not converge")

    X = _symmetrize(X)
    R = X - M @ X @ M.swapaxes(-1, -2) - W
    resid, M_F, X_F, W_F = np.linalg.norm(np.stack([R, M, X, W]), "fro", axis=(-2, -1))
    if np.any(resid > 2.0**14 * 2.0**-53 * (M_F**2 * X_F + W_F)):
        raise NumericError(f"Lyapunov residual {resid.max():.3e} above tolerance")
    return X


@dataclass(frozen=True)
class ClosedLoopQuantities:
    """Exact P_K, Sigma_K, E_K, cost, and gradient for a stabilizing gain."""

    P: np.ndarray
    Sigma: np.ndarray
    E: np.ndarray
    cost: float
    grad: np.ndarray


def _not_stabilizing(rho: float) -> InstabilityError:
    return InstabilityError(
        f"gain is not stabilizing (spectral radius {rho:.6g})", spectral_radius=rho,
    )


def _stable_closed_loop(plant: PlantModel, K) -> tuple[np.ndarray, ...]:
    """(K, A + BK, Q + K'RK) for a valid gain whose spectral radius, taken
    once by ``closed_loop``, is below 1; ``InstabilityError`` otherwise."""
    K = plant.check_gain(K)
    A_K, rep = closed_loop(plant, K)
    if not rep.is_stabilizing:
        raise _not_stabilizing(rep.spectral_radius)
    return K, A_K, plant.Q + K.T @ plant.R @ K


class _Stack(NamedTuple):
    """Spectral radii of a stack of gains, and the exact quantities of its
    stable members (radius below 1), stacked in order; ``cost`` is a vector."""

    rho: np.ndarray
    P: np.ndarray
    Sigma: np.ndarray
    E: np.ndarray
    cost: np.ndarray
    grad: np.ndarray


def _exact_stack(plant: PlantModel, Ks: np.ndarray) -> _Stack:
    """``exact_quantities`` for a stack of valid gains (m, n_u, n_x) at once,
    member by member bitwise equal to it; unstable members are skipped."""
    A_K = plant.A + plant.B @ Ks
    rho = spectral_radius(A_K)
    stable = rho < 1.0
    if not stable.all():
        A_K, Ks = A_K[stable], Ks[stable]
    Q_K = plant.Q + Ks.swapaxes(-1, -2) @ plant.R @ Ks
    # Both Lyapunov equations of every member in one stacked solve.
    m = len(A_K)
    X = _lyapunov(np.concatenate([A_K.swapaxes(-1, -2), A_K]),
                  np.concatenate([Q_K, np.broadcast_to(plant.Sigma_w, A_K.shape)]))
    P, Sigma = X[:m], X[m:]
    BtP = plant.B.T @ P
    E = (plant.R + BtP @ plant.B) @ Ks + BtP @ plant.A
    cost = np.trace(P @ plant.Sigma_w, axis1=-2, axis2=-1)
    grad = 2.0 * E @ Sigma
    return _Stack(rho, P, Sigma, E, cost, grad)


def exact_quantities(plant: PlantModel, K: np.ndarray) -> ClosedLoopQuantities:
    """Compute the closed-loop value matrix, average covariance, cost, and
    gradient for a stabilizing gain.

    P solves P = Q_K + A_K' P A_K, Sigma solves Sigma = Sigma_w + A_K Sigma A_K',
    E = (R + B'PB)K + B'PA, cost = Tr(P Sigma_w), grad = 2 E Sigma.
    """
    s = _exact_stack(plant, plant.check_gain(K)[None])
    if not s.rho[0] < 1.0:
        raise _not_stabilizing(float(s.rho[0]))
    return ClosedLoopQuantities(P=s.P[0], Sigma=s.Sigma[0], E=s.E[0],
                                cost=float(s.cost[0]), grad=s.grad[0])


@dataclass(frozen=True)
class OptimalSolution:
    """Optimal gain and associated value matrix, covariance, and cost."""

    K_star: np.ndarray
    P_star: np.ndarray
    Sigma_star: np.ndarray
    C_star: float


def solve_dare(plant: PlantModel) -> OptimalSolution:
    """Riccati fixed point by value iteration from P = Q, solved once per plant.

    Iterates P <- Q + A'PA - A'PB (R + B'PB)^{-1} B'PA until the relative
    Frobenius update falls below ``_DARE_TOL``. Value iteration needs no
    initial stabilizing gain, which matters for unstable open-loop plants.
    A frozen plant with read-only arrays determines its solution, so the
    first call stores it, read-only, on the plant and later calls return it.
    """
    opt = getattr(plant, "_optimum", None)
    if opt is not None:
        return opt
    A, B, Q, R = plant.A, plant.B, plant.Q, plant.R
    P = Q.copy()
    for _ in range(_DARE_MAX_ITER):
        BtP = B.T @ P
        G = R + BtP @ B
        P_next = Q + A.T @ P @ A - A.T @ P @ B @ np.linalg.solve(G, BtP @ A)
        P_next = _symmetrize(P_next)
        resid = np.linalg.norm(P_next - P, "fro")
        P = P_next
        if resid <= _DARE_TOL * max(np.linalg.norm(P, "fro"), np.finfo(float).tiny):
            break
    else:
        raise ConvergenceError(
            f"Riccati iteration did not converge in {_DARE_MAX_ITER} iterations",
            residual=resid,
        )
    G = R + B.T @ P @ B
    K_star = -np.linalg.solve(G, B.T @ P @ A)
    Sigma_star = solve_discrete_lyapunov(A + B @ K_star, plant.Sigma_w)
    C_star = float(np.trace(P @ plant.Sigma_w))
    for m in (K_star, P, Sigma_star):
        m.setflags(write=False)
    opt = OptimalSolution(K_star=K_star, P_star=P, Sigma_star=Sigma_star, C_star=C_star)
    # Two threads may race here; the loser only repeats the same solve.
    object.__setattr__(plant, "_optimum", opt)
    return opt


def gradient_domination_mu(plant: PlantModel) -> float:
    """Constant mu in the gradient-domination inequality
    C(K) - C(K*) <= mu * ||grad C(K)||_F^2.

    mu = (1/4) ||Sigma_{K*}|| ||Sigma_w^{-2}|| ||R^{-1}||.
    """
    opt = solve_dare(plant)
    norm_sigma_star = float(np.linalg.norm(opt.Sigma_star, 2))
    sw_inv = np.linalg.inv(plant.Sigma_w)
    norm_sw_inv2 = float(np.linalg.norm(sw_inv @ sw_inv, 2))
    norm_r_inv = float(np.linalg.norm(np.linalg.inv(plant.R), 2))
    return 0.25 * norm_sigma_star * norm_sw_inv2 * norm_r_inv


def finite_horizon_quantities(
    plant: PlantModel, K: np.ndarray, l: int
) -> tuple[np.ndarray, float]:
    """Exact l-step averages (Sigma_K^(l), C^(l)) via the covariance recursion
    Sigma_{t+1} = A_K Sigma_t A_K' + Sigma_w from Sigma_0. No sampling."""
    if l < 1:
        raise NumericError(f"horizon must be >= 1, got {l}")
    K, A_K, Q_K = _stable_closed_loop(plant, K)
    Sigma_t = plant.Sigma_0.copy()
    acc = Sigma_t.copy()
    for _ in range(l - 1):
        Sigma_t = A_K @ Sigma_t @ A_K.T + plant.Sigma_w
        acc += Sigma_t
    Sigma_l = _symmetrize(acc / l)
    C_l = float(np.trace(Q_K @ Sigma_l))
    return Sigma_l, C_l
