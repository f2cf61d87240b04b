"""Plant description for the average-cost LQR problem.

A plant is the tuple (A, B, Q, R, Sigma_w, Sigma_0) of the stochastic LTI
system x_{t+1} = A x_t + B u_t + w_t with w_t ~ N(0, Sigma_w), initial state
x_0 ~ N(0, Sigma_0), and stage cost x'Qx + u'Ru.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "PlantModel",
    "StabilityReport",
    "closed_loop",
    "scalar_s1",
    "paper3x3",
]


def _as_matrix(x, name: str) -> np.ndarray:
    m = np.atleast_2d(np.asarray(x, dtype=float))
    if m.ndim != 2:
        raise ConfigurationError(f"{name} must be a 2-D matrix, got shape {m.shape}")
    return m


def _check_symmetric(m: np.ndarray, name: str) -> None:
    if m.shape[0] != m.shape[1]:
        raise ConfigurationError(f"{name} must be square, got shape {m.shape}")
    if not np.allclose(m, m.T, rtol=1e-10, atol=1e-12):
        raise ConfigurationError(f"{name} must be symmetric")


def smallest_eigenvalue(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (m + m.T))[0])


@dataclass(frozen=True)
class PlantModel:
    """Immutable problem data. Q, R, Sigma_w must be positive definite,
    Sigma_0 positive semidefinite."""

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    Sigma_w: np.ndarray
    Sigma_0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", _as_matrix(self.A, "A"))
        object.__setattr__(self, "B", _as_matrix(self.B, "B"))
        object.__setattr__(self, "Q", _as_matrix(self.Q, "Q"))
        object.__setattr__(self, "R", _as_matrix(self.R, "R"))
        object.__setattr__(self, "Sigma_w", _as_matrix(self.Sigma_w, "Sigma_w"))
        object.__setattr__(self, "Sigma_0", _as_matrix(self.Sigma_0, "Sigma_0"))
        for m in ("A", "B", "Q", "R", "Sigma_w", "Sigma_0"):
            getattr(self, m).setflags(write=False)

        n_x = self.A.shape[0]
        if self.A.shape != (n_x, n_x):
            raise ConfigurationError(f"A must be square, got {self.A.shape}")
        if self.B.shape[0] != n_x:
            raise ConfigurationError(
                f"B must have {n_x} rows to match A, got {self.B.shape}"
            )
        n_u = self.B.shape[1]
        for name, dim in (("Q", n_x), ("R", n_u), ("Sigma_w", n_x), ("Sigma_0", n_x)):
            m = getattr(self, name)
            _check_symmetric(m, name)
            if m.shape[0] != dim:
                raise ConfigurationError(
                    f"{name} must be {dim}x{dim}, got {m.shape}"
                )
        for name in ("Q", "R"):
            lam = smallest_eigenvalue(getattr(self, name))
            if lam <= 0:
                raise ConfigurationError(
                    f"{name} must be positive definite (smallest eigenvalue {lam:.3e})"
                )
        # Sigma_w = 0 is allowed so noise-free rollouts stay expressible; the
        # certificate formulas reject degenerate noise themselves.
        for name in ("Sigma_w", "Sigma_0"):
            if smallest_eigenvalue(getattr(self, name)) < -1e-12:
                raise ConfigurationError(f"{name} must be positive semidefinite")

    def __setstate__(self, state):
        # Unpickled arrays are writable; solve_dare's cache needs them frozen.
        self.__dict__.update(state)
        opt = state.get("_optimum")
        for m in [*state.values(), *(vars(opt).values() if opt else ())]:
            if isinstance(m, np.ndarray):
                m.setflags(write=False)

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]

    def check_gain(self, K: np.ndarray) -> np.ndarray:
        """Validate the shape of a feedback gain (n_u x n_x) and return it."""
        K = _as_matrix(K, "K")
        if K.shape != (self.n_u, self.n_x):
            raise ConfigurationError(
                f"gain must be {self.n_u}x{self.n_x}, got {K.shape}"
            )
        return K


@dataclass(frozen=True)
class StabilityReport:
    """Spectral radius of a closed-loop matrix A + BK, from one eigenvalue
    computation, and whether it is below 1."""

    spectral_radius: float
    is_stabilizing: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "is_stabilizing", self.spectral_radius < 1.0)


def spectral_radius(M: np.ndarray):
    """Largest eigenvalue modulus of a square matrix, or of each matrix in a
    stack (..., n, n); one batched eigenvalue computation."""
    return np.max(np.abs(np.linalg.eigvals(M)), axis=-1)


def stability_report(M: np.ndarray) -> StabilityReport:
    return StabilityReport(spectral_radius=float(spectral_radius(M)))


def closed_loop(plant: PlantModel, K: np.ndarray):
    """Return (A + BK, StabilityReport).

    Stability is judged by the spectral radius, the solvability condition of
    the closed-loop Lyapunov series.
    """
    K = plant.check_gain(K)
    A_K = plant.A + plant.B @ K
    return A_K, stability_report(A_K)


def scalar_s1(noise_scale: float = 1.0) -> PlantModel:
    """Scalar benchmark: a=0.5, b=1, q=1, r=1, noise variance ``noise_scale``
    and unit initial variance."""
    one = np.array([[1.0]])
    return PlantModel(
        A=np.array([[0.5]]), B=one, Q=one, R=one, Sigma_w=noise_scale * one,
        Sigma_0=one,
    )


def paper3x3(noise_scale: float = 1.0, sigma0_scale: float = 1.0) -> PlantModel:
    """Unstable 3x3 tridiagonal benchmark plant with B = I, Q = 0.001 I, R = I.

    ``noise_scale`` scales Sigma_w = noise_scale * I; ``sigma0_scale`` scales
    Sigma_0 likewise.
    """
    A = np.array(
        [
            [1.01, 0.01, 0.00],
            [0.01, 1.01, 0.01],
            [0.00, 0.01, 1.01],
        ]
    )
    eye = np.eye(3)
    return PlantModel(
        A=A,
        B=eye,
        Q=0.001 * eye,
        R=eye,
        Sigma_w=noise_scale * eye,
        Sigma_0=sigma0_scale * eye,
    )
