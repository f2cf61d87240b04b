"""Shared fixtures and random problem generators."""
from __future__ import annotations

import numpy as np
import pytest

from lqrpg import PlantModel, solve_dare


def pbh_margin(A: np.ndarray, B: np.ndarray) -> float:
    """Smallest singular value of [A - lambda I, B] over the eigenvalues
    |lambda| >= 1 of A (inf if A is Schur stable): the distance of (A, B)
    from losing stabilizability in the Popov-Belevitch-Hautus test."""
    eye = np.eye(A.shape[0])
    return min((np.linalg.svd(np.hstack([A - lam * eye, B]), compute_uv=False)[-1]
                for lam in np.linalg.eigvals(A) if abs(lam) >= 1.0),
               default=np.inf)


def random_plant(rng: np.random.Generator, n_x: int | None = None,
                 n_u: int | None = None) -> PlantModel:
    """A random well-conditioned plant with positive-definite weights."""
    n_x = n_x or int(rng.integers(1, 5))
    n_u = n_u or int(rng.integers(1, n_x + 1))
    while True:
        A = rng.normal(scale=0.6, size=(n_x, n_x))
        B = rng.normal(scale=1.0, size=(n_x, n_u))
        # Guard against (numerically) uncontrollable B.
        B += 0.3 * np.sign(B + 1e-12)
        # A barely reachable unstable mode makes K* and Sigma* huge (||Sigma*||
        # ~1e8), past what solve_dare can certify: redraw such (A, B).
        if pbh_margin(A, B) >= 0.1:
            break

    def spd(n, lo=0.5, hi=1.5):
        M = rng.normal(size=(n, n))
        return M @ M.T + lo * np.eye(n) + (hi - lo) * rng.random() * np.eye(n)

    return PlantModel(A=A, B=B, Q=spd(n_x), R=spd(n_u),
                      Sigma_w=spd(n_x), Sigma_0=spd(n_x))


def random_stabilizing_gain(plant: PlantModel, rng: np.random.Generator,
                            spread: float = 0.2) -> np.ndarray:
    """Optimal gain plus a perturbation kept inside the stability region."""
    K_star = solve_dare(plant).K_star
    for _ in range(100):
        K = K_star + spread * rng.normal(size=K_star.shape)
        rho = np.max(np.abs(np.linalg.eigvals(plant.A + plant.B @ K)))
        if rho < 0.98:
            return K
        spread *= 0.5
    return K_star


def assert_same_trace(a, b):
    """Bitwise equal records (repr round-trips every float) and final gain."""
    assert repr(a.records) == repr(b.records)
    assert a.terminal_reason == b.terminal_reason
    assert a.K_final.tobytes() == b.K_final.tobytes()


@pytest.fixture
def rng():
    return np.random.default_rng(20250826)
