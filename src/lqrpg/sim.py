"""Seeded stochastic simulation of the closed-loop plant.

Every random draw comes from a substream keyed by
(master_seed, run_id, rollout_id, purpose), so rollouts are bit-reproducible
no matter how callers parallelize. The substream of a key is the PCG64 stream
that ``np.random.SeedSequence(master_seed, spawn_key=(run_id, rollout_id,
purpose))`` seeds, bit for bit; :meth:`SeedSpec.draw` derives those states
for a whole batch of rollout ids at once. The :class:`RolloutOracle` wraps a
plant behind an interface that never exposes (A, B, Sigma_w), which is the
model-free contract the estimators rely on: it draws and rolls out whole
batches and prices them with :func:`empirical_cost`, the one stage-cost
formula.
"""
from __future__ import annotations

import enum
import itertools
import operator
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


# SeedSequence's hash constants and pool size (NumPy's bit_generator.pyx)
# and PCG64's 128-bit LCG multiplier.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32 = (1 << 32) - 1
_M128 = (1 << 128) - 1
# Rollout ids hashed per array pass; bounds the memory a batch's states take.
_SEED_CHUNK = 256


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int, as SeedSequence
    splits its entropy and spawn key (0 is one word)."""
    n = operator.index(n)
    if n < 0:
        raise ConfigurationError(f"seed keys must be >= 0, got {n}")
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


# The hash works on 1-d uint32 arrays, which wrap silently; NumPy scalars
# would warn on the same, intended, overflow.
def _hashmix(value: np.ndarray, hash_const: int, mult: int):
    """SeedSequence's hashmix of ``value``; returns it and the next constant."""
    hash_const_next = hash_const * mult & _M32
    value = (value ^ hash_const) * hash_const_next
    return value ^ (value >> 16), hash_const_next


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


def _absorb(pool: list, word: np.ndarray, hash_const: int):
    """Mix one entropy word into every pool word, as SeedSequence mixes each
    word past the pool size."""
    mixed = []
    for p in pool:
        h, hash_const = _hashmix(word, hash_const, _MULT_A)
        mixed.append(_mix(p, h))
    return mixed, hash_const


def _word(w: int) -> np.ndarray:
    return np.array([w], dtype=np.uint32)


@dataclass(frozen=True)
class SeedSpec:
    """Root of the deterministic stream hierarchy.

    The substream of key (run_id, rollout_id, purpose) is the PCG64 stream
    of ``np.random.SeedSequence(master_seed, spawn_key=(run_id, rollout_id,
    purpose))``, bit for bit. The SeedSequence hash is computed here: the
    master seed's share of the pool once per instance, the key words of a
    batch of ids as uint32 array operations, and the PCG64 seeding step in
    Python ints; no SeedSequence or generator is built per id.
    """

    master_seed: int
    _share: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if operator.index(self.master_seed) < 0:
            raise ConfigurationError(
                f"master_seed must be >= 0, got {self.master_seed}")
        # With a spawn key, SeedSequence pads the entropy to the pool size.
        entropy = _uint32_words(self.master_seed)
        entropy += [0] * (_POOL_SIZE - len(entropy))
        hash_const = _INIT_A
        pool = []
        for w in entropy[:_POOL_SIZE]:
            h, hash_const = _hashmix(_word(w), hash_const, _MULT_A)
            pool.append(h)
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    h, hash_const = _hashmix(pool[src], hash_const, _MULT_A)
                    pool[dst] = _mix(pool[dst], h)
        for w in entropy[_POOL_SIZE:]:
            pool, hash_const = _absorb(pool, _word(w), hash_const)
        object.__setattr__(self, "_share", (pool, hash_const))

    def _states(self, run_id: int, rollout_ids, purpose: Purpose):
        """PCG64 state of each id's substream, in order, derived
        ``_SEED_CHUNK`` ids at a time."""
        key_pool, key_const = self._share
        for w in _uint32_words(run_id):
            key_pool, key_const = _absorb(key_pool, _word(w), key_const)
        tail = [_word(w) for w in _uint32_words(int(purpose))]
        ids = iter(rollout_ids)
        while chunk := [operator.index(k) for k in itertools.islice(ids, _SEED_CHUNK)]:
            if min(chunk) < 0:
                raise ConfigurationError(f"seed keys must be >= 0, got {min(chunk)}")
            # An id of w words shifts the purpose word's hash position by w.
            widths = [(k.bit_length() + 31) // 32 or 1 for k in chunk]
            seeds = [None] * len(chunk)
            for width in set(widths):
                rows = [j for j, w in enumerate(widths) if w == width]
                pool, hash_const = key_pool, key_const
                for i in range(width):
                    col = np.array([chunk[j] >> (32 * i) & _M32 for j in rows],
                                   dtype=np.uint32)
                    pool, hash_const = _absorb(pool, col, hash_const)
                for w in tail:
                    pool, hash_const = _absorb(pool, w, hash_const)
                # generate_state(4, uint64): 8 words cycled from the pool.
                hash_const, words = _INIT_B, []
                for i in range(2 * _POOL_SIZE):
                    h, hash_const = _hashmix(pool[i % _POOL_SIZE], hash_const, _MULT_B)
                    words.append(h)
                seed64 = np.stack(words, axis=1).astype("<u4").view("<u8")
                for j, (s0, s1, i0, i1) in zip(rows, seed64.tolist()):
                    seeds[j] = (s0 << 64 | s1, i0 << 64 | i1)
            for initstate, initseq in seeds:
                # pcg64_set_seed: two LCG steps from state 0.
                inc = (initseq << 1 | 1) & _M128
                yield {"bit_generator": "PCG64",
                       "state": {"state": ((inc + initstate) * _PCG64_MULT + inc) & _M128,
                                 "inc": inc},
                       "has_uint32": 0, "uinteger": 0}

    def draw(self, run_id: int, rollout_ids, purpose: Purpose, fn) -> np.ndarray:
        """``np.array([fn(g) for each rollout id])``, where g generates the
        id's substream of (run_id, purpose).

        One generator is set to each id's state in turn, so ``fn`` must not
        keep it; every ``fn(g)`` must have the same shape.
        """
        g = np.random.Generator(np.random.PCG64(0))
        out = None
        for j, state in enumerate(self._states(run_id, rollout_ids, purpose)):
            g.bit_generator.state = state
            x = fn(g)
            if out is None:
                out = np.empty((len(rollout_ids), *np.shape(x)), np.result_type(x))
            out[j] = x
        return np.array([]) if out is None else out

    def generator(
        self, run_id: int, rollout_id: int, purpose: Purpose
    ) -> np.random.Generator:
        """A new generator on the substream of one key."""
        g = np.random.Generator(np.random.PCG64(0))
        g.bit_generator.state = next(self._states(run_id, [rollout_id], purpose))
        return g


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

    def draw_perturbations(self, r: float, run_id: int, rollout_ids) -> np.ndarray:
        """Sphere perturbations (len(rollout_ids), n_u, n_x), one per id."""
        U = self._seeds.draw(
            run_id, rollout_ids, Purpose.PERTURBATION,
            lambda g: sample_sphere_perturbation(self.n_u, self.n_x, r, g))
        return U.reshape(len(rollout_ids), self.n_u, self.n_x)

    def draw_initial_states(self, run_id: int, rollout_ids) -> np.ndarray:
        """Bounded initial states (len(rollout_ids), n_x), one per id."""
        x0s = self._seeds.draw(
            run_id, rollout_ids, Purpose.INITIAL_STATE,
            lambda g: _bounded_draw(self._factor_0, self._L0, g, _MAX_REJECTIONS)[0])
        return x0s.reshape(len(rollout_ids), self.n_x)

    def draw_perturbation(self, r: float, run_id: int, rollout_id: int) -> np.ndarray:
        return self.draw_perturbations(r, run_id, [rollout_id])[0]

    def draw_initial_state(self, run_id: int, rollout_id: int) -> np.ndarray:
        return self.draw_initial_states(run_id, [rollout_id])[0]

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
        noises = self._seeds.draw(
            run_id, rollout_ids, purpose,
            lambda g: g.standard_normal((l - 1, self.n_x)) @ self._factor_w.T)
        return simulate_batch(self._plant, Ks, x0s, l,
                              noises.reshape(len(rollout_ids), l - 1, self.n_x))

    def stage_cost(self, states: np.ndarray, Ks: np.ndarray) -> np.ndarray:
        """Empirical (Q, R) costs (n,) of a batch of states (n, l, n_x) under
        the gains that produced them: Ks (n, n_u, n_x) or one shared gain."""
        return empirical_cost(states, self._plant.Q, self._plant.R, Ks)
