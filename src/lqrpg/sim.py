"""Seeded stochastic simulation of the closed-loop plant.

Every random draw comes from a counter-style substream keyed by
(master_seed, run_id, rollout_id, purpose), so rollouts are bit-reproducible
no matter how callers parallelize. The :class:`RolloutOracle` wraps a plant
behind an interface that never exposes (A, B, Sigma_w), which is the
model-free contract the estimators rely on: it rolls out whole batches and
prices them with :func:`empirical_cost`, the one stage-cost formula.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, OverflowedRollout
from .plants import PlantModel

__all__ = [
    "Purpose",
    "SeedSpec",
    "RolloutConfig",
    "Trajectory",
    "sample_sphere_perturbation",
    "sample_initial_state",
    "simulate",
    "simulate_batch",
    "empirical_cost",
    "empirical_covariance",
    "default_initial_state_bound",
    "RolloutOracle",
]


_MAX_REJECTIONS = 1_000_000


class Purpose(enum.IntEnum):
    PERTURBATION = 0
    INITIAL_STATE = 1
    NOISE = 2
    BASELINE = 3


@dataclass(frozen=True)
class SeedSpec:
    """Root of the deterministic stream hierarchy."""

    master_seed: int

    def generator(
        self, run_id: int, rollout_id: int, purpose: Purpose
    ) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=self.master_seed,
            spawn_key=(int(run_id), int(rollout_id), int(purpose)),
        )
        return np.random.default_rng(ss)


@dataclass(frozen=True)
class RolloutConfig:
    """Estimator knobs: rollouts n, length l, exploration radius r, initial
    state bound L0."""

    n: int
    l: int
    r: float
    L0: float

    def __post_init__(self):
        if self.n < 1:
            raise ConfigurationError(f"n must be >= 1, got {self.n}")
        if self.l < 1:
            raise ConfigurationError(f"l must be >= 1, got {self.l}")
        if not self.r > 0:
            raise ConfigurationError(f"r must be positive, got {self.r}")
        if not self.L0 > 0:
            raise ConfigurationError(f"L0 must be positive, got {self.L0}")


@dataclass(frozen=True)
class Trajectory:
    """States of one simulated rollout plus provenance."""

    states: np.ndarray  # (l, n_x)
    gain_used: np.ndarray
    seed_label: tuple = field(default=())


def sample_sphere_perturbation(
    n_u: int, n_x: int, r: float, rng: np.random.Generator
) -> np.ndarray:
    """Uniform draw from the Frobenius sphere of radius r in R^{n_u x n_x}.

    Gaussian fill then normalize: exact rotation invariance, exact norm.
    """
    if not r > 0:
        raise ConfigurationError(f"exploration radius must be positive, got {r}")
    while True:
        G = rng.standard_normal((n_u, n_x))
        nrm = np.linalg.norm(G, "fro")
        if nrm > 0:
            return (r / nrm) * G


def _psd_factor(Sigma: np.ndarray) -> np.ndarray:
    """L with L L' = Sigma for a PSD matrix (eigen square root)."""
    vals, vecs = np.linalg.eigh(0.5 * (Sigma + Sigma.T))
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals)


def sample_initial_state(
    Sigma_0: np.ndarray,
    L0: float,
    rng: np.random.Generator,
    max_rejections: int = _MAX_REJECTIONS,
) -> tuple[np.ndarray, int]:
    """Draw x0 ~ N(0, Sigma_0) by rejection until ||x0|| <= L0.

    Returns (x0, rejection_count). Raises if acceptance looks hopeless.
    """
    Sigma_0 = np.atleast_2d(np.asarray(Sigma_0, dtype=float))
    return _bounded_draw(_psd_factor(Sigma_0), L0, rng, max_rejections)


def _bounded_draw(
    L: np.ndarray, L0: float, rng: np.random.Generator, max_rejections: int
) -> tuple[np.ndarray, int]:
    """Rejection loop of :func:`sample_initial_state` for a factor L of
    Sigma_0."""
    if not L0 > 0:
        raise ConfigurationError(f"L0 must be positive, got {L0}")
    n_x = L.shape[1]
    rejections = 0
    while True:
        x0 = L @ rng.standard_normal(n_x)
        if np.linalg.norm(x0) <= L0:
            return x0, rejections
        rejections += 1
        if rejections >= max_rejections:
            raise ConfigurationError(
                f"initial-state acceptance probability below "
                f"{1.0 / max_rejections:.0e}: L0={L0} too small for Sigma_0"
            )


def simulate(
    plant: PlantModel,
    K: np.ndarray,
    x0: np.ndarray,
    l: int,
    rng: np.random.Generator,
    seed_label: tuple = (),
) -> Trajectory:
    """Roll out x_{t+1} = (A + BK) x_t + w_t for l states starting at x0.

    K need not be stabilizing; a non-finite state raises
    :class:`OverflowedRollout` carrying the step index so divergence stays
    observable.
    """
    if l < 1:
        raise ConfigurationError(f"l must be >= 1, got {l}")
    K = plant.check_gain(K)
    noises = rng.standard_normal((l - 1, plant.n_x)) @ _psd_factor(plant.Sigma_w).T
    x0 = np.asarray(x0, dtype=float).reshape(plant.n_x)
    return _trajectory(
        simulate_batch(plant, K[None, :, :], x0[None, :], l, noises[None, :, :]),
        K, seed_label,
    )


def _trajectory(batch: tuple[np.ndarray, np.ndarray], K: np.ndarray,
                seed_label: tuple) -> Trajectory:
    """The one rollout of a (states, overflow) batch, or OverflowedRollout."""
    states, overflow = batch
    if overflow[0] >= 0:
        raise OverflowedRollout(
            f"state overflowed at step {overflow[0]}", step=int(overflow[0])
        )
    return Trajectory(states=states[0], gain_used=K, seed_label=seed_label)


def simulate_batch(
    plant: PlantModel,
    Ks: np.ndarray,
    x0s: np.ndarray,
    l: int,
    noises: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized rollouts: one closed loop per row of ``Ks``.

    ``noises`` has shape (n, l-1, n_x) and must come from per-rollout
    substreams so that results match n calls to :func:`simulate` bit for bit.
    Returns (states (n, l, n_x), overflow_step (n,)) where overflow_step is
    -1 for finite rollouts and the first bad step index otherwise; states of
    an overflowed rollout are zeroed from that step on.
    """
    Ks = np.asarray(Ks, dtype=float)
    n = Ks.shape[0]
    A_Ks = plant.A[None, :, :] + np.einsum("ij,kjm->kim", plant.B, Ks)
    states = np.empty((n, l, plant.n_x))
    states[:, 0, :] = x0s
    overflow = np.full(n, -1, dtype=int)
    alive = np.ones(n, dtype=bool)
    x = np.array(x0s, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, l):
            x = np.einsum("kij,kj->ki", A_Ks, x) + noises[:, t - 1, :]
            bad = ~np.all(np.isfinite(x), axis=1) & alive
            if np.any(bad):
                overflow[bad] = t
                alive &= ~bad
                x[~alive] = 0.0
            states[:, t, :] = x
            states[~alive, t, :] = 0.0
    return states, overflow


def empirical_cost(states: np.ndarray, Q: np.ndarray, R: np.ndarray, K: np.ndarray):
    """Time-averaged stage cost (1/l) sum_t x_t' (Q + K'RK) x_t.

    ``states`` is one trajectory (l, n_x) or a batch (n, l, n_x); ``K`` is
    one gain or one gain per trajectory (n, n_u, n_x). A batch gives costs
    of shape (n,), each bit-identical to the cost of its trajectory alone.
    """
    Q_K = Q + np.swapaxes(K, -1, -2) @ R @ K
    return np.einsum("...ti,...ij,...tj->...", states, Q_K, states) / states.shape[-2]


def empirical_covariance(states: np.ndarray) -> np.ndarray:
    """Time-averaged outer product (1/l) sum_t x_t x_t' (symmetric PSD)."""
    S = states.T @ states / states.shape[0]
    return 0.5 * (S + S.T)


def default_initial_state_bound(Sigma_0: np.ndarray) -> float:
    """Default L0 = 3 sqrt(Tr Sigma_0); 1.0 for a degenerate Sigma_0."""
    tr = float(np.trace(np.atleast_2d(Sigma_0)))
    return 3.0 * np.sqrt(tr) if tr > 0 else 1.0


class RolloutOracle:
    """Opaque handle to the closed-loop system.

    Exposes only sampling, batched rollouts and their (Q, R) stage costs;
    the plant matrices stay private so estimator code cannot read
    (A, B, Sigma_w). The factors of Sigma_0 and Sigma_w are computed once,
    here, and every draw reuses them.
    """

    def __init__(self, plant: PlantModel, seeds: SeedSpec, L0: float | None = None):
        self._plant = plant
        self._seeds = seeds
        self._L0 = default_initial_state_bound(plant.Sigma_0) if L0 is None else L0
        self._factor_0 = _psd_factor(plant.Sigma_0)
        self._factor_w = _psd_factor(plant.Sigma_w)
        self.n_x = plant.n_x
        self.n_u = plant.n_u

    @property
    def L0(self) -> float:
        return self._L0

    @property
    def seeds(self) -> SeedSpec:
        return self._seeds

    def draw_perturbation(self, r: float, run_id: int, rollout_id: int) -> np.ndarray:
        rng = self._seeds.generator(run_id, rollout_id, Purpose.PERTURBATION)
        return sample_sphere_perturbation(self.n_u, self.n_x, r, rng)

    def draw_initial_state(self, run_id: int, rollout_id: int) -> np.ndarray:
        rng = self._seeds.generator(run_id, rollout_id, Purpose.INITIAL_STATE)
        x0, _ = _bounded_draw(self._factor_0, self._L0, rng, _MAX_REJECTIONS)
        return x0

    def rollout(
        self,
        K: np.ndarray,
        x0: np.ndarray,
        l: int,
        run_id: int,
        rollout_id: int,
        purpose: Purpose = Purpose.NOISE,
    ) -> Trajectory:
        """One rollout: a batch of one, raising OverflowedRollout on overflow."""
        K = self._plant.check_gain(K)
        x0 = np.asarray(x0, dtype=float).reshape(self.n_x)
        batch = self.rollout_batch(K[None], x0[None], l, run_id, [rollout_id], purpose)
        return _trajectory(batch, K, (run_id, rollout_id, int(purpose)))

    def rollout_batch(
        self,
        Ks: np.ndarray,
        x0s: np.ndarray,
        l: int,
        run_id: int,
        rollout_ids,
        purpose: Purpose = Purpose.NOISE,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched rollouts, one noise substream per rollout id."""
        if l < 1:
            raise ConfigurationError(f"l must be >= 1, got {l}")
        noises = np.empty((len(rollout_ids), l - 1, self.n_x))
        for j, rid in enumerate(rollout_ids):
            rng = self._seeds.generator(run_id, rid, purpose)
            noises[j] = rng.standard_normal((l - 1, self.n_x)) @ self._factor_w.T
        return simulate_batch(self._plant, Ks, x0s, l, noises)

    def stage_cost(self, states: np.ndarray, Ks: np.ndarray) -> np.ndarray:
        """Empirical (Q, R) costs (n,) of a batch of states (n, l, n_x) under
        the gains that produced them: Ks (n, n_u, n_x) or one shared gain."""
        return empirical_cost(states, self._plant.Q, self._plant.R, Ks)
