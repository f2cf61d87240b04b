"""Seeded stochastic simulation of the closed-loop plant.

Every random draw comes from a substream keyed by
(master_seed, run_id, rollout_id, purpose), so rollouts are bit-reproducible
no matter how callers parallelize. The substream of a key is the PCG64 stream
that ``np.random.SeedSequence(master_seed, spawn_key=(run_id, rollout_id,
purpose))`` seeds, bit for bit; :meth:`SeedSpec.draw` hashes the keys of a
whole batch of rollout ids at once, and PCG64's seeding of each, and writes
each id's state into the ``pcg64_random_t`` of one generator per call
(assumed to be (state, inc), checked once per call). The :class:`RolloutOracle`
wraps a plant behind an interface that never exposes
(A, B, Sigma_w), which is the model-free contract the estimators rely on: it
draws and rolls out whole batches and prices them with
:func:`empirical_cost`, the one stage-cost formula. A batch is one time-major
buffer (l, n, n_x), of noise, then states. :func:`_roll` rolls out a group
of oracles that share their master seed and n_x on the same ids, drawing
each coloring pass's normals once; :func:`_costs` streams such cost-only
batches through one reused buffer of a chunk of ids, with the whole batch's
bytes, and the importing process splits a batch of two or more chunks with
one forked child per other CPU. An oracle's batch methods are groups of one.
"""
from __future__ import annotations

import enum
import operator
import os
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


# SeedSequence's hash constants and pool size (NumPy's bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_M32 = (1 << 32) - 1
# Rollout ids hashed per array pass; a batch's noise is colored into its buffer
# by as many ids per pass, or by as many as fill _CHUNK_NORMALS if fewer (>= 1),
# so that a chunk's normals stay small next to one (l, n, n_x) state array.
_SEED_CHUNK, _CHUNK_NORMALS = 256, 2**17
# Bytes of states that _costs holds per streamed chunk.
_STREAM_BYTES = 2**22
_HOME_PID = os.getpid()  # the only process that forks chunk children
# einsum's buffer size in elements (NumPy's NPY_BUFSIZE), and the time steps
# that _batch_cost prices per array pass.
_EINSUM_BUFFER, _COST_CHUNK = 8192, 8


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


# The hash works on uint32 arrays, which wrap silently; NumPy scalars would
# warn on the same, intended, overflow.
def _hashmix(value: np.ndarray, hash_const: int, mult: int, k: int):
    """SeedSequence's hashmix k times in turn, of row i of ``value`` (which
    broadcasts to k rows); returns the k results and the next constant."""
    consts = [hash_const]
    for _ in range(k):
        consts.append(consts[-1] * mult & _M32)
    c = np.array(consts, dtype=np.uint32)[:, None]
    value = (value ^ c[:-1]) * c[1:]
    return value ^ (value >> 16), consts[-1]


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


def _absorb(pool: np.ndarray, word: np.ndarray, hash_const: int):
    """Mix one entropy word into every pool word (rows of ``pool``), as
    SeedSequence mixes each word past the pool size."""
    h, hash_const = _hashmix(word, hash_const, _MULT_A, _POOL_SIZE)
    return _mix(pool, h), hash_const


# PCG64's 128-bit LCG multiplier (NumPy's pcg64.h), high and low words.
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _mulhi(a: np.ndarray, b: int) -> np.ndarray:
    """The high 64 bits of each a·b, from 32-bit limbs (uint64 arrays wrap)."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _pcg64_states(words: np.ndarray) -> np.ndarray:
    """NumPy's pcg64_set_seed of each row (w0, w1, w2, w3) of uint64 words:
    inc = (w2:w3 << 1) | 1, state = ((inc + w0:w1)·MULT + inc) mod 2^128, as
    pcg64_random_t's words (state low, state high, inc low, inc high)."""
    w0, w1, w2, w3 = words.T
    inc_lo, inc_hi = w3 << 1 | 1, w2 << 1 | w3 >> 63
    lo = inc_lo + w1
    hi = inc_hi + w0 + (lo < inc_lo)
    state_lo = lo * _PCG_MULT_LO + inc_lo
    state_hi = (_mulhi(lo, _PCG_MULT_LO) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
                + inc_hi + (state_lo < inc_lo))
    return np.stack([state_lo, state_hi, inc_lo, inc_hi], axis=1)


def _state_view(bit_generator) -> np.ndarray:
    """The uint64 words of a live PCG64's pcg64_random_t, via its state's 1st field."""
    import ctypes
    address = ctypes.c_void_p.from_address(bit_generator.ctypes.state_address)
    return np.ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(address.value))


def _seeded(state: np.ndarray):
    """A Generator set in place to a row of :func:`_pcg64_states`, and the view
    that sets it to another; raises if PCG64 then reports another state."""
    from numpy.random import PCG64, Generator
    gen = Generator(PCG64(0))
    view = _state_view(gen.bit_generator)
    view[:] = state
    pcg = gen.bit_generator.state["state"]
    written = [hi << 64 | lo for lo, hi in state.reshape(2, 2).tolist()]
    if [pcg["state"], pcg["inc"]] != written:
        raise RuntimeError("PCG64's pcg64_random_t is not laid out as (state, inc)")
    return gen, view


@dataclass(frozen=True)
class SeedSpec:
    """Root of the deterministic stream hierarchy.

    The substream of key (run_id, rollout_id, purpose) is the PCG64 stream
    of ``np.random.SeedSequence(master_seed, spawn_key=(run_id, rollout_id,
    purpose))``, bit for bit. NumPy's SeedSequence mixes the master seed and
    run id once per batch; the rest of its hash, the rollout and purpose
    words of every id, runs here as uint32 array operations, and so does
    PCG64's seeding. One generator per call is set to each id's state in
    place, assuming ``pcg64_random_t`` is (state, inc) as little-endian
    128-bit words; each call raises if its first write disagrees with ``state``.
    """

    master_seed: int

    def __post_init__(self):
        if operator.index(self.master_seed) < 0:
            raise ConfigurationError(
                f"master_seed must be >= 0, got {self.master_seed}")

    def _words(self, run_id: int, rollout_ids, purpose: Purpose) -> np.ndarray:
        """The 4 uint64 seed words of each id's substream, (len(ids), 4),
        hashed ``_SEED_CHUNK`` ids at a time."""
        # NumPy's pool after the master seed, padded to the pool size, and the
        # run id; mixing them took _POOL_SIZE hash-constant steps per word.
        n_words = max(len(_uint32_words(self.master_seed)), _POOL_SIZE)
        n_words += len(_uint32_words(run_id))
        key_const = _INIT_A * pow(_MULT_A, _POOL_SIZE * n_words, 1 << 32) & _M32
        key_pool = np.random.SeedSequence(
            self.master_seed, spawn_key=(run_id,)).pool[:, None]
        purpose_word = np.array([purpose], dtype=np.uint32)
        ids = np.asarray(rollout_ids)
        if ids.dtype.kind not in "iu":  # ids of 2^64 and up, or to be checked
            ids = np.array([operator.index(k) for k in rollout_ids], dtype=object)
        if len(ids) and ids.min() < 0:
            raise ConfigurationError(f"seed keys must be >= 0, got {ids.min()}")
        # The 32-bit words of every id, low first, and each id's word count.
        id_words, rest, widths = [], ids, np.ones(len(ids), dtype=int)
        while True:
            id_words.append((rest & _M32).astype(np.uint32))
            rest = rest >> 32
            if not (more := rest != 0).any():
                break
            widths += more
        seeds = np.empty((len(ids), 4), dtype="<u8")
        for a in range(0, len(ids), _SEED_CHUNK):
            chunk = widths[a:a + _SEED_CHUNK]
            # An id of w words shifts the purpose word's hash position by w.
            for width in set(chunk.tolist()):
                rows = a + np.flatnonzero(chunk == width)
                pool, hash_const = key_pool, key_const
                for word in id_words[:width]:
                    pool, hash_const = _absorb(pool, word[rows], hash_const)
                pool, hash_const = _absorb(pool, purpose_word, hash_const)
                # generate_state(4, uint64): 8 words cycled from the pool.
                words, _ = _hashmix(np.tile(pool, (2, 1)), _INIT_B, _MULT_B,
                                    2 * _POOL_SIZE)
                seeds[rows] = np.ascontiguousarray(words.T, dtype="<u4").view("<u8")
        return seeds

    def draw(self, run_id: int, rollout_ids, purpose: Purpose, shape) -> np.ndarray:
        """Standard normals (len(rollout_ids), *shape): row j is the first
        normals of id j's substream of (run_id, purpose)."""
        states = _pcg64_states(self._words(run_id, rollout_ids, purpose))
        out = np.empty((len(states), *shape))
        if len(out):
            gen, state = _seeded(states[0])
            for state[:], row in zip(states, out):
                gen.standard_normal(out=row)
        return out

    def generator(
        self, run_id: int, rollout_id: int, purpose: Purpose
    ) -> np.random.Generator:
        """A new generator on the substream of one key."""
        words = self._words(run_id, [rollout_id], purpose)
        return _seeded(_pcg64_states(words)[0])[0]


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


def simulate_batch(
    plant: PlantModel, Ks: np.ndarray, x0s: np.ndarray, l: int, states: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized rollouts: one closed loop per row of ``Ks``, time-major.

    ``states`` (l, n, n_x) is stepped in place: rows 1..l-1 come in holding
    the noise, column k from rollout k's own substream
    (:func:`_roll`), row 0 is set to ``x0s``, and
    every row leaves holding the states. A rollout's states do not depend on
    the rest of its batch, bit for bit. Returns (states, overflow_step (n,))
    where overflow_step is -1 for finite rollouts and the first bad step
    index otherwise; states of an overflowed rollout are zeroed from that
    step on.
    """
    Ks = np.asarray(Ks, dtype=float)
    n = Ks.shape[0]
    A_Ks = plant.A[None, :, :] + np.einsum("ij,kjm->kim", plant.B, Ks)
    states[0] = x0s
    overflow = np.full(n, -1, dtype=int)
    Ax = np.empty((n, plant.n_x))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, l):
            np.einsum("kij,kj->ki", A_Ks, states[t - 1], out=Ax)
            np.add(Ax, states[t], out=states[t])
    # Every entry of A_K x gets an inf or NaN term from a non-finite entry of
    # x, so a rollout overflowed iff its last state is not finite.
    if l > 1:
        for k in np.flatnonzero(~np.isfinite(states[-1]).all(axis=1)):
            overflow[k] = bad = 1 + np.isfinite(states[1:, k]).all(axis=1).argmin()
            states[bad:, k] = 0.0
    return states, overflow


def empirical_cost(states: np.ndarray, Q: np.ndarray, R: np.ndarray, K: np.ndarray):
    """Time-averaged stage cost (1/l) sum_t x_t' (Q + K'RK) x_t.

    ``states`` is one trajectory (l, n_x) or a batch (n, l, n_x); ``K`` is
    one gain or one gain per trajectory (n, n_u, n_x). A batch gives costs
    of shape (n,), each bit-identical to the cost of its trajectory alone
    (but at l = 1 and n_x = 2, where einsum sums one trajectory pairwise).
    The sum is ``einsum("...ti,...ij,...tj->...")``'s, bit for bit: a
    C-contiguous batch goes to :func:`_batch_cost`, the rest to einsum.
    """
    if states.ndim == 3 and states.flags.c_contiguous:
        return _batch_cost(states.transpose(1, 0, 2), Q, R, K)
    return _einsum_cost(states, Q, R, K)


def _einsum_cost(states: np.ndarray, Q: np.ndarray, R: np.ndarray, K: np.ndarray):
    """The einsum reference that :func:`empirical_cost` matches."""
    K = np.asarray(K, dtype=float)
    Q_K = Q + np.swapaxes(K, -1, -2) @ R @ K
    return np.einsum("...ti,...ij,...tj->...", states, Q_K, states) / states.shape[-2]


def _color_step(l: int, n_x: int) -> int:
    """Ids whose noise :func:`_roll` draws and colors per pass."""
    return max(1, min(_SEED_CHUNK, _CHUNK_NORMALS // (l * n_x)))


def _stream_edges(n: int, l: int, n_x: int) -> list[int]:
    """Edges [0, ..., n] of the chunks that :func:`_costs` streams n ids
    through with the whole batch's bytes: one chunk if
    :func:`_batch_cost` prices the batch by einsum; else whole coloring passes
    holding about ``_STREAM_BYTES`` of states, each chunk, the last (with a
    short remainder) too, long enough for the blocked path."""
    least = max(2, _EINSUM_BUFFER // (l * n_x**2) + 1)
    if n_x**2 > _EINSUM_BUFFER or n < least:
        return [0, n]
    step = _color_step(l, n_x)
    size = max(_STREAM_BYTES // (8 * l * n_x) // step, -(-least // step)) * step
    edges = list(range(0, n, size))
    if len(edges) > 1 and n - edges[-1] < least:
        edges.pop()
    return edges + [n]


def _batch_cost(states: np.ndarray, Q: np.ndarray, R: np.ndarray, K: np.ndarray):
    """:func:`empirical_cost` of a time-major batch (l, n, n_x)'s id-major
    copy, bit for bit. For n > 1 trajectories of n_x <= 90 states whose
    products fill more than one buffer, einsum adds a trajectory's products
    (x_ti (Q_K)_ij) x_tj in (t, i, j) order, from 0 in each block of
    ``_EINSUM_BUFFER // n_x**2`` time steps, then the blocks in turn. This
    loop does the same across the batch: chunks of products laid out
    (terms, n), with the running sum as row 0, are summed down axis 0, which
    NumPy does row by row. einsum prices the rest, on the id-major copy."""
    l, n, n_x = states.shape
    if not (n > 1 and n_x**2 <= _EINSUM_BUFFER < states.size * n_x):
        return _einsum_cost(np.ascontiguousarray(states.transpose(1, 0, 2)), Q, R, K)
    K = np.asarray(K, dtype=float)
    if K.ndim == 3 and K.strides[0] == 0:  # one gain, broadcast
        K = K[:1]
    Q_K = Q + np.swapaxes(K, -1, -2) @ R @ K
    Q_K = np.moveaxis(Q_K.reshape(-1, n_x, n_x), 0, -1)  # (n_x, n_x, n or 1)
    block, total = _EINSUM_BUFFER // n_x**2, 0.0
    buf = np.empty((1 + _COST_CHUNK * n_x**2, n))
    for a in range(0, l, block):
        buf[0] = 0.0
        for c in range(a, min(a + block, l), _COST_CHUNK):
            S = states[c:min(c + _COST_CHUNK, a + block)].transpose(0, 2, 1).copy()
            m = 1 + len(S) * n_x**2
            terms = buf[1:m].reshape(len(S), n_x, n_x, -1)
            np.multiply(S[:, :, None], Q_K, out=terms)
            terms *= S[:, None]
            buf[0] = buf[:m].sum(axis=0)
        total = buf[0] + total
    return total / l


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
        """Sphere perturbations (len(rollout_ids), n_u, n_x), one per id, as
        :func:`sample_sphere_perturbation` draws them from the id's
        substream."""
        if not r > 0:
            raise ConfigurationError(f"exploration radius must be positive, got {r}")
        G = self._seeds.draw(run_id, rollout_ids, Purpose.PERTURBATION,
                             (self.n_u, self.n_x))
        flat = G.reshape(len(G), self.n_u * self.n_x)
        nrm = np.sqrt(np.vecdot(flat, flat))
        with np.errstate(divide="ignore", invalid="ignore"):
            U = (r / nrm)[:, None, None] * G
        # An all-zero fill is redrawn on its own stream, as the sampler does.
        for j in np.flatnonzero(nrm == 0):
            g = self._seeds.generator(run_id, rollout_ids[j], Purpose.PERTURBATION)
            U[j] = sample_sphere_perturbation(self.n_u, self.n_x, r, g)
        return U

    def draw_initial_states(self, run_id: int, rollout_ids) -> np.ndarray:
        """Bounded initial states (len(rollout_ids), n_x), one per id, as
        :func:`sample_initial_state` draws them from the id's substream."""
        Z = self._seeds.draw(run_id, rollout_ids, Purpose.INITIAL_STATE, (self.n_x,))
        return self._bounded(Z, run_id, rollout_ids)

    def _bounded(self, Z: np.ndarray, run_id: int, rollout_ids) -> np.ndarray:
        """The initial states of the ids' first raw normals Z (len(rollout_ids),
        n_x); a row past L0 continues its own stream in the rejection loop."""
        X = (self._factor_0[None] @ Z[:, :, None])[:, :, 0]
        for j in np.flatnonzero(~(np.sqrt(np.vecdot(X, X)) <= self._L0)):
            g = self._seeds.generator(run_id, rollout_ids[j], Purpose.INITIAL_STATE)
            X[j] = _bounded_draw(self._factor_0, self._L0, g, _MAX_REJECTIONS)[0]
        return X

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
        """The single-rollout API: a batch of one. ``K`` need not be
        stabilizing; a non-finite state raises OverflowedRollout at its step."""
        K = self._plant.check_gain(K)
        x0 = np.asarray(x0, dtype=float).reshape(self.n_x)
        states, overflow = self.rollout_batch(K[None], x0[None], l, run_id,
                                              [rollout_id], purpose)
        if overflow[0] >= 0:
            raise OverflowedRollout(
                f"state overflowed at step {overflow[0]}", step=int(overflow[0])
            )
        return Trajectory(states=states[:, 0], gain_used=K,
                          seed_label=(run_id, rollout_id, int(purpose)))

    def rollout_batch(self, Ks: np.ndarray, x0s: np.ndarray, l: int, run_id: int,
                      rollout_ids, purpose: Purpose = Purpose.NOISE):
        """Batched rollouts, one noise substream per rollout id, in one new
        buffer (l, n, n_x): :func:`_roll` of a group of one."""
        return next(_roll([(self, Ks, x0s)], l, run_id, rollout_ids, purpose))

    def rollout_costs(self, Ks: np.ndarray, x0s: np.ndarray, l: int, run_id: int,
                      rollout_ids, purpose: Purpose = Purpose.NOISE):
        """(costs (n,), None), or (None, index of the first overflowed rollout),
        of a batch that :func:`_costs` rolls out and prices as a group of one."""
        return _costs([(self, Ks, x0s)], l, run_id, rollout_ids, purpose)[0]

    def stage_cost(self, states: np.ndarray, Ks: np.ndarray) -> np.ndarray:
        """Empirical (Q, R) costs (n,) of a time-major batch of states
        (l, n, n_x), as :meth:`rollout_batch` returns it, under the gains that
        produced them: Ks (n, n_u, n_x) or one shared gain."""
        return _batch_cost(states, self._plant.Q, self._plant.R, Ks)


def _roll(members, l: int, run_id: int, ids, purpose: Purpose, buf=None):
    """Yield the (states, overflow) of each member (oracle, Ks, x0s) of a
    group whose oracles share their master seed and n_x, on the same ids, in
    one buffer (l, len(ids), n_x), new or ``buf``, that the next member
    overwrites. Rows 1..l-1 take the noise of a coloring pass of ids at a
    time, drawn once for the group and colored with the member's Sigma_w
    factor; :func:`simulate_batch` overwrites them with the states."""
    if l < 1:
        raise ConfigurationError(f"l must be >= 1, got {l}")
    seeds, n_x = members[0][0]._seeds, members[0][0].n_x
    # At l = 1 there are no noise rows to draw.
    starts = range(0, len(ids) if l > 1 else 0, _color_step(l, n_x))
    noise = (seeds.draw(run_id, ids[a:a + starts.step], purpose, (l - 1, n_x))
             for a in starts)
    if len(members) > 1:
        noise = list(noise)
    states = np.empty((l, len(ids), n_x)) if buf is None else buf
    for oracle, Ks, x0s in members:
        for a, z in zip(starts, noise):
            states[1:, a:a + len(z)] = (z @ oracle._factor_w.T).transpose(1, 0, 2)
        z = None  # a lone member's last pass is not held while it is priced
        yield simulate_batch(oracle._plant, Ks, x0s, l, states)


def _costs(members, l: int, run_id: int, ids, purpose: Purpose) -> list:
    """Roll out and price the batch of each member (oracle, Ks, x0s) of a
    :func:`_roll` group without keeping the states: per member (costs (n,),
    None), or (None, index of its first overflowed rollout). The batches
    stream through one reused buffer, a chunk of ids at a time
    (:func:`_stream_edges`); each chunk is :func:`_roll` then each member's
    :meth:`RolloutOracle.stage_cost`, and the costs are the whole batch's,
    bit for bit. In the process that imported this module, a batch of two or
    more chunks is split into runs of whole chunks, one per usable CPU, that
    it and forked children price into shared memory before it returns. A
    member's chunks after its first overflowed one in a run are not
    simulated; the other members go on."""
    m, n, n_x = len(members), len(ids), members[0][0].n_x

    def stream(costs, bads, edges):  # bads[j] stays -1 while member j is finite
        buf = np.empty((l, max(np.diff(edges)), n_x))
        for a, b in zip(edges, edges[1:]):
            live = (bads < 0).nonzero()[0].tolist()
            chunk = [(members[j][0], members[j][1][a:b], members[j][2][a:b]) for j in live]
            rolled = _roll(chunk, l, run_id, ids[a:b], purpose, buf[:, :b - a])
            for j, (oracle, Ks, _), (states, overflow) in zip(live, chunk, rolled):
                if np.any(overflow >= 0):
                    bads[j] = a + int(np.argmax(overflow >= 0))
                else:  # finite states can still give costs that overflow to inf
                    with np.errstate(over="ignore", invalid="ignore"):
                        costs[j, a:b] = oracle.stage_cost(states, Ks)

    edges = _stream_edges(n, l, n_x)
    cpus = len(os.sched_getaffinity(0)) if os.getpid() == _HOME_PID else 1
    # Process p prices edges[cuts[p]:cuts[p + 1] + 1] into column p of bads.
    procs = min(cpus, len(edges) - 1)
    cuts = [p * (len(edges) - 1) // procs for p in range(procs + 1)]
    import mmap
    import signal
    shared = mmap.mmap(-1, 8 * m * (n + procs))
    costs = np.frombuffer(shared, count=m * n).reshape(m, n)
    bads = np.frombuffer(shared, np.int64, offset=costs.nbytes).reshape(m, procs)
    bads[:] = -1
    pids = []
    try:
        for p in range(1, procs):
            if (pid := os.fork()) == 0:
                status = 1
                try:
                    stream(costs, bads[:, p], edges[cuts[p]:cuts[p + 1] + 1])
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)
        stream(costs, bads[:, 0], edges[:cuts[1] + 1])
        bad = bads[:, 0].copy()
        while pids and np.any(bad < 0):
            p, status = procs - len(pids), os.waitpid(pids[0], 0)[1]
            del pids[0]
            if status := os.waitstatus_to_exitcode(status):
                raise RuntimeError(f"rollout chunk process exit status {status}")
            bad = np.where(bad < 0, bads[:, p], bad)
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [(costs[j].copy(), None) if bad[j] < 0 else (None, int(bad[j]))
            for j in range(m)]
