import ctypes
import itertools
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqrpg import (
    ConfigurationError,
    OverflowedRollout,
    Purpose,
    RolloutConfig,
    RolloutOracle,
    SeedSpec,
    empirical_cost,
    empirical_covariance,
    estimate_gradient_covariance,
    paper3x3,
    sample_initial_state,
    sample_sphere_perturbation,
    scalar_s1,
    simulate_batch,
    solve_dare,
)
from lqrpg.plants import PlantModel
import lqrpg.sim
from lqrpg.sim import (
    _SEED_CHUNK,
    _pcg64_states,
    _psd_factor,
    _seeded,
    default_initial_state_bound,
)
from conftest import random_plant


def reference_generator(master, run_id, rollout_id, purpose):
    """A substream as NumPy's SeedSequence seeds it: the reference."""
    return np.random.default_rng(np.random.SeedSequence(
        entropy=master, spawn_key=(run_id, rollout_id, int(purpose))))


def normals(g):
    return g.standard_normal((2, 3))


def key_words(lo):
    """Keys below 2^32, at or above 2^32, and at or above 2^64."""
    return st.one_of(st.integers(lo, 2**32 - 1), st.integers(2**32, 2**64),
                     st.integers(2**64, 2**70))


class TestSeeding:
    def test_same_key_same_stream(self):
        s = SeedSpec(123)
        a = s.generator(1, 2, Purpose.NOISE).standard_normal(8)
        b = s.generator(1, 2, Purpose.NOISE).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_keys_distinct_streams(self):
        s = SeedSpec(123)
        a = s.generator(1, 2, Purpose.NOISE).standard_normal(8)
        b = s.generator(1, 3, Purpose.NOISE).standard_normal(8)
        c = s.generator(1, 2, Purpose.BASELINE).standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_master_seed_changes_streams(self):
        a = SeedSpec(1).generator(0, 0, Purpose.NOISE).standard_normal(4)
        b = SeedSpec(2).generator(0, 0, Purpose.NOISE).standard_normal(4)
        assert not np.array_equal(a, b)

    @given(st.one_of(key_words(0), st.integers(2**128, 2**131)), key_words(0),
           st.lists(key_words(0), max_size=6), st.sampled_from(Purpose))
    @settings(max_examples=200, deadline=None)
    def test_draw_matches_seed_sequence_bitwise(self, master, run_id, ids, purpose):
        seeds = SeedSpec(master)
        batch = seeds.draw(run_id, ids, purpose, (2, 3))
        ref = np.array([normals(reference_generator(master, run_id, k, purpose))
                        for k in ids]).reshape(len(ids), 2, 3)
        np.testing.assert_array_equal(batch, ref)
        assert batch.shape == ref.shape
        for k in ids[:2]:
            np.testing.assert_array_equal(
                seeds.generator(run_id, k, purpose).standard_normal(5),
                reference_generator(master, run_id, k, purpose).standard_normal(5))

    def test_batch_equals_its_split(self):
        seeds = SeedSpec(17)
        whole = seeds.draw(2, range(1000), Purpose.NOISE, (2, 3))
        parts = [seeds.draw(2, range(a, b), Purpose.NOISE, (2, 3))
                 for a, b in ((0, 1), (1, 333), (333, 1000))]
        np.testing.assert_array_equal(whole, np.concatenate(parts))
        # 1000 ids span several hashing chunks.
        assert 1000 > 3 * _SEED_CHUNK
        ref = np.array([normals(reference_generator(17, 2, k, Purpose.NOISE))
                        for k in range(1000)])
        np.testing.assert_array_equal(whole, ref)

    def test_rejects_negative_keys(self):
        with pytest.raises(ConfigurationError, match="master_seed must be >= 0"):
            SeedSpec(-1)
        with pytest.raises(ConfigurationError):
            SeedSpec(0).draw(-1, [0], Purpose.NOISE, (2, 3))
        with pytest.raises(ConfigurationError):
            SeedSpec(0).draw(-1, [], Purpose.NOISE, (2, 3))
        with pytest.raises(ConfigurationError):
            SeedSpec(0).draw(0, [3, -2], Purpose.NOISE, (2, 3))


def pcg64_from_words(words):
    """NumPy's own PCG64 seeded from 4 given uint64 seed words."""
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.array(words, dtype=np.uint64)

    return np.random.PCG64(Words())


def assert_seeds_like_pcg64(words, state):
    """A generator set in place to ``state``, the row of ``_pcg64_states``
    for ``words``, has PCG64's state and normals."""
    ref = pcg64_from_words(words)
    gen, _ = _seeded(state)
    assert gen.bit_generator.state == ref.state
    np.testing.assert_array_equal(gen.standard_normal(7),
                                  np.random.Generator(ref).standard_normal(7))


class TestInPlaceSeeding:
    def test_corner_words_match_pcg64(self):
        # Every carry of inc = (w2:w3 << 1) | 1, of inc + w0:w1 and of the
        # multiply-add: each word at 0, 1, its top bit alone, or all ones.
        words = list(itertools.product([0, 1, 2**63, 2**64 - 1], repeat=4))
        states = _pcg64_states(np.array(words, dtype=np.uint64))
        assert states.shape == (256, 4)
        for w, state in zip(words, states):
            assert_seeds_like_pcg64(w, state)

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=4, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_random_words_match_pcg64(self, words):
        states = _pcg64_states(np.array([words], dtype=np.uint64))
        assert_seeds_like_pcg64(words, states[0])

    @given(key_words(0), key_words(0), key_words(0), st.sampled_from(Purpose))
    @settings(max_examples=50, deadline=None)
    def test_generator_matches_pcg64(self, master, run_id, rollout_id, purpose):
        seeds = SeedSpec(master)
        words = seeds._words(run_id, [rollout_id], purpose)[0]
        assert (seeds.generator(run_id, rollout_id, purpose).bit_generator.state
                == pcg64_from_words(words).state)

    def test_draw_builds_one_generator_per_call(self, monkeypatch):
        built = []

        class CountingPCG64(np.random.PCG64):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(np.random, "PCG64", CountingPCG64)
        SeedSpec(5).draw(1, range(300), Purpose.NOISE, (2, 3))
        assert len(built) == 1

    def test_shifted_state_view_raises(self, monkeypatch):
        # The view starts one word before pcg64_random_t, so the words land
        # one place off. The struct is a field of the PCG64 object after its
        # pcg64_state, so that word is the object's own memory; one word
        # forward would write past the object's end.
        real = lqrpg.sim._state_view

        def shifted(bit_generator):
            address = real(bit_generator).ctypes.data - 8
            return np.ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(address))

        monkeypatch.setattr(lqrpg.sim, "_state_view", shifted)
        seeds = SeedSpec(5)
        with pytest.raises(RuntimeError, match="pcg64_random_t"):
            seeds.draw(1, range(10), Purpose.NOISE, (2, 3))
        with pytest.raises(RuntimeError, match="pcg64_random_t"):
            seeds.generator(1, 0, Purpose.NOISE)

    @pytest.mark.parametrize("same_keys", [True, False])
    def test_threads_drawing_at_once_match_one_thread(self, same_keys):
        seeds = SeedSpec(9)

        def work(run_id):
            out = []
            for _ in range(3):
                out.append(seeds.draw(run_id, range(400), Purpose.NOISE, (99, 3)))
                out.append(seeds.generator(run_id, 7, Purpose.BASELINE)
                           .standard_normal(5))
                out.append(seeds.draw(run_id, range(400, 900),
                                      Purpose.PERTURBATION, (3, 3)))
            return out

        # More threads than cores, switching as often as the interpreter can.
        run_ids = [4, 4, 4, 4] if same_keys else [4, 5, 6, 7]
        expected = [work(r) for r in run_ids]
        results = [None] * len(run_ids)
        start = threading.Barrier(len(run_ids))

        def thread(i):
            start.wait()
            results[i] = work(run_ids[i])

        threads = [threading.Thread(target=thread, args=(i,))
                   for i in range(len(run_ids))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, ref in zip(results, expected):
            assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]


class TestSpherePerturbation:
    @given(st.integers(1, 4), st.integers(1, 4),
           st.floats(1e-3, 10.0), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_exact_norm(self, n_u, n_x, r, seed):
        rng = np.random.default_rng(seed)
        U = sample_sphere_perturbation(n_u, n_x, r, rng)
        assert U.shape == (n_u, n_x)
        assert np.linalg.norm(U, "fro") == pytest.approx(r, rel=1e-12)

    def test_rotation_symmetry_mean(self):
        rng = np.random.default_rng(0)
        mean = np.mean(
            [sample_sphere_perturbation(1, 1, 1.0, rng) for _ in range(4000)]
        )
        assert abs(mean) < 0.05

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ConfigurationError):
            sample_sphere_perturbation(1, 1, 0.0, np.random.default_rng(0))


class TestInitialState:
    def test_within_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x0, _ = sample_initial_state(np.eye(2), 1.5, rng)
            assert np.linalg.norm(x0) <= 1.5

    def test_degenerate_covariance_gives_zero(self):
        x0, rej = sample_initial_state(np.zeros((2, 2)), 1.0,
                                       np.random.default_rng(0))
        np.testing.assert_array_equal(x0, np.zeros(2))
        assert rej == 0

    def test_hopeless_bound_raises(self):
        with pytest.raises(ConfigurationError):
            sample_initial_state(np.eye(1), 1e-9, np.random.default_rng(0),
                                 max_rejections=500)

    def test_default_bound(self):
        assert default_initial_state_bound(np.eye(4)) == pytest.approx(6.0)
        assert default_initial_state_bound(np.zeros((2, 2))) == 1.0


def simulate_noises(plant, Ks, x0s, l, noises):
    """simulate_batch on a fresh buffer whose rows 1..l-1 hold ``noises``."""
    return simulate_batch(plant, Ks, x0s, l,
                          np.concatenate([np.asarray(x0s, dtype=float)[None], noises]))


class TestSimulate:
    def test_noise_free_deadbeat(self):
        p = PlantModel(A=[[0.5]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                       Sigma_w=[[0.0]], Sigma_0=[[0.0]])
        traj = RolloutOracle(p, SeedSpec(0)).rollout([[-0.5]], [1.0], 5, 0, 0)
        np.testing.assert_allclose(traj.states[1:], 0.0)
        assert traj.states[0, 0] == 1.0

    @pytest.mark.parametrize("plant", [scalar_s1(), paper3x3(noise_scale=0.01)],
                             ids=["scalar_s1", "paper3x3"])
    def test_scalar_matches_batch_bitwise(self, plant):
        seeds = SeedSpec(9)
        K = solve_dare(plant).K_star + 0.1
        x0 = np.linspace(0.7, -0.2, plant.n_x)
        noises = (seeds.generator(0, 5, Purpose.NOISE).standard_normal((49, plant.n_x))
                  @ _psd_factor(plant.Sigma_w).T)
        reference, _ = simulate_noises(plant, K[None], x0[None], 50, noises[:, None])
        oracle = RolloutOracle(plant, seeds)
        states, overflow = oracle.rollout_batch(
            K[None], x0[None], 50, 0, [5], Purpose.NOISE
        )
        assert overflow[0] == -1
        np.testing.assert_array_equal(reference[:, 0], states[:, 0])
        single = oracle.rollout(K, x0, 50, 0, 5)
        np.testing.assert_array_equal(single.states, states[:, 0])
        assert single.seed_label == (0, 5, int(Purpose.NOISE))

    def test_batch_overflow_isolated(self):
        p = scalar_s1()
        Ks = np.array([[[-0.5]], [[500.0]]])
        x0s = np.array([[1.0], [1.0]])
        noises = np.zeros((2, 299, 1))
        states, overflow = simulate_noises(p, Ks, x0s, 300, noises.transpose(1, 0, 2))
        assert overflow[0] == -1
        assert overflow[1] > 0
        assert np.all(np.isfinite(states))


def masked_simulate(plant, Ks, x0s, l, noises):
    """simulate_batch as a loop that checks and masks every step: the
    reference for the mask-free loop."""
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


class TestSimulateBatch:
    @given(st.integers(0, 2**16),
           st.lists(st.sampled_from(["finite", "1e3", "1e150", "inf", "nan"]),
                    min_size=1, max_size=6),
           st.integers(1, 120))
    @settings(max_examples=80, deadline=None)
    def test_matches_masked_loop_bitwise(self, seed, kinds, l):
        rng = np.random.default_rng(seed)
        plant = random_plant(rng)
        shape = (plant.n_u, plant.n_x)
        Ks = solve_dare(plant).K_star + 0.05 * rng.normal(size=(len(kinds), *shape))
        for K, kind in zip(Ks, kinds):
            if kind in ("1e3", "1e150"):
                K[:] = float(kind) * rng.normal(size=shape)
            elif kind != "finite":
                K[rng.integers(plant.n_u), rng.integers(plant.n_x)] = (
                    float(kind) * rng.choice([-1.0, 1.0]))
        x0s = rng.normal(size=(len(kinds), plant.n_x))
        noises = rng.normal(size=(len(kinds), l - 1, plant.n_x))
        ref_states, ref_overflow = masked_simulate(plant, Ks, x0s, l, noises)
        states, overflow = simulate_noises(plant, Ks, x0s, l, noises.transpose(1, 0, 2))
        assert states.transpose(1, 0, 2).tobytes() == ref_states.tobytes()
        np.testing.assert_array_equal(overflow, ref_overflow)
        for kind, step in zip(kinds, overflow):
            if kind in ("inf", "nan") and l > 1:
                assert step == 1

    def test_overflow_found_late(self):
        # A gain of ~1e3 overflows only after ~100 steps.
        p = scalar_s1()
        Ks = np.array([[[-0.5]], [[1e3]], [[-1e3]]])
        x0s = np.ones((3, 1))
        noises = np.random.default_rng(0).normal(size=(3, 299, 1))
        ref_states, ref_overflow = masked_simulate(p, Ks, x0s, 300, noises)
        states, overflow = simulate_noises(p, Ks, x0s, 300, noises.transpose(1, 0, 2))
        assert states.transpose(1, 0, 2).tobytes() == ref_states.tobytes()
        np.testing.assert_array_equal(overflow, ref_overflow)
        assert overflow[0] == -1 and 90 < overflow[1] < 299 and 90 < overflow[2] < 299


def ids_lists():
    """Lists of substream ids, ids of 2 or more words included."""
    return st.lists(key_words(0), max_size=6)


def random_oracle(seed, master):
    """An oracle on a random plant with non-diagonal Sigma_0 and Sigma_w."""
    plant = random_plant(np.random.default_rng(seed))
    return plant, RolloutOracle(plant, SeedSpec(master))


class TestBatchedDraws:
    @given(st.integers(0, 2**16), key_words(0), key_words(0), ids_lists(),
           st.floats(1e-3, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_perturbations_bitwise(self, seed, master, run_id, ids, r):
        plant, oracle = random_oracle(seed, master)
        U = oracle.draw_perturbations(r, run_id, ids)
        assert U.shape == (len(ids), plant.n_u, plant.n_x)
        for j, k in enumerate(ids):
            ref = sample_sphere_perturbation(
                plant.n_u, plant.n_x, r,
                reference_generator(master, run_id, k, Purpose.PERTURBATION))
            np.testing.assert_array_equal(U[j], ref)
            np.testing.assert_array_equal(U[j], oracle.draw_perturbation(r, run_id, k))

    @given(st.integers(0, 2**16), key_words(0), key_words(0), ids_lists(),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_initial_states_bitwise(self, seed, master, run_id, ids, paper):
        # Most rows are rejected: paper3x3 at sigma0_scale=2 accepts ~23% of
        # draws under L0=1.5; a random plant at L0 = sqrt(Tr Sigma_0) ~65%.
        if paper:
            plant, L0 = paper3x3(sigma0_scale=2.0), 1.5
        else:
            plant = random_plant(np.random.default_rng(seed))
            L0 = np.sqrt(np.trace(plant.Sigma_0))
        oracle = RolloutOracle(plant, SeedSpec(master), L0=L0)
        x0s = oracle.draw_initial_states(run_id, ids)
        assert x0s.shape == (len(ids), plant.n_x)
        for j, k in enumerate(ids):
            ref, _ = sample_initial_state(
                plant.Sigma_0, L0,
                reference_generator(master, run_id, k, Purpose.INITIAL_STATE))
            np.testing.assert_array_equal(x0s[j], ref)
            np.testing.assert_array_equal(x0s[j], oracle.draw_initial_state(run_id, k))

    @given(st.integers(0, 2**16), key_words(0), key_words(0), ids_lists(),
           st.integers(1, 6), st.sampled_from(Purpose))
    @settings(max_examples=60, deadline=None)
    def test_noises_bitwise(self, seed, master, run_id, ids, l, purpose):
        plant, oracle = random_oracle(seed, master)
        Ks = np.zeros((len(ids), plant.n_u, plant.n_x))
        x0s = np.zeros((len(ids), plant.n_x))
        states, overflow = oracle.rollout_batch(Ks, x0s, l, run_id, ids, purpose)
        assert states.shape == (l, len(ids), plant.n_x)
        assert np.all(overflow == -1)
        factor_w = _psd_factor(plant.Sigma_w)
        for j, k in enumerate(ids):
            g = reference_generator(master, run_id, k, purpose)
            noise = g.standard_normal((l - 1, plant.n_x)) @ factor_w.T
            ref, _ = simulate_noises(plant, Ks[:1], x0s[:1], l, noise[:, None])
            np.testing.assert_array_equal(states[:, j], ref[:, 0])

    def test_noises_across_chunks(self):
        plant = random_plant(np.random.default_rng(3), 3, 2)
        oracle = RolloutOracle(plant, SeedSpec(11))
        n, l = 2 * _SEED_CHUNK + 37, 8
        K = solve_dare(plant).K_star
        x0s = oracle.draw_initial_states(1, range(n))
        states, _ = oracle.rollout_batch(np.broadcast_to(K, (n, *K.shape)), x0s, l,
                                         1, range(n))
        factor_w = _psd_factor(plant.Sigma_w)
        noises = np.array([
            reference_generator(11, 1, k, Purpose.NOISE).standard_normal(
                (l - 1, plant.n_x)) @ factor_w.T for k in range(n)])
        ref, _ = simulate_noises(plant, np.broadcast_to(K, (n, *K.shape)), x0s, l,
                                noises.transpose(1, 0, 2))
        np.testing.assert_array_equal(states, ref)

    def test_empty_batches(self):
        plant = paper3x3()
        oracle = RolloutOracle(plant, SeedSpec(0))
        assert oracle.draw_perturbations(0.1, 0, []).shape == (0, 3, 3)
        assert oracle.draw_initial_states(0, []).shape == (0, 3)
        states, overflow = oracle.rollout_batch(
            np.zeros((0, 3, 3)), np.zeros((0, 3)), 5, 0, [])
        assert states.shape == (5, 0, 3) and overflow.shape == (0,)

    def test_zero_norm_perturbation_redrawn_on_its_stream(self, monkeypatch):
        """A zero-norm row is redrawn alone by the per-id sampler on its own
        stream; the other rows keep the batch draw."""
        draw, generator = SeedSpec.draw, SeedSpec.generator
        redrawn = []

        def zero_row(self, run_id, ids, purpose, shape):
            out = draw(self, run_id, ids, purpose, shape)
            out[1] = 0.0
            return out

        def spy(self, run_id, rollout_id, purpose):
            redrawn.append((run_id, rollout_id, purpose))
            return generator(self, run_id, rollout_id, purpose)

        monkeypatch.setattr(SeedSpec, "draw", zero_row)
        monkeypatch.setattr(SeedSpec, "generator", spy)
        plant = paper3x3()
        oracle = RolloutOracle(plant, SeedSpec(3))
        ids = [7, 2**40, 9]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            U = oracle.draw_perturbations(0.2, 4, ids)
        assert redrawn == [(4, 2**40, Purpose.PERTURBATION)]
        for j, k in enumerate(ids):
            ref = sample_sphere_perturbation(
                plant.n_u, plant.n_x, 0.2,
                reference_generator(3, 4, k, Purpose.PERTURBATION))
            np.testing.assert_array_equal(U[j], ref)

    def test_rejects_nonpositive_radius(self):
        oracle = RolloutOracle(paper3x3(), SeedSpec(0))
        with pytest.raises(ConfigurationError):
            oracle.draw_perturbations(0.0, 0, [0])

    def test_rollout_batch_peak_memory(self):
        """One buffer holds the noises and then the states, plus a chunk of
        colored noise: vr_estimate's baseline batches hold 12,000 rollouts."""
        plant = paper3x3()
        oracle = RolloutOracle(plant, SeedSpec(0))
        n, l = 2000, 100
        K = solve_dare(plant).K_star
        Ks = np.broadcast_to(K, (n, *K.shape))
        x0s = np.zeros((n, plant.n_x))
        # Warm up, so that lazy imports do not count.
        oracle.rollout_batch(Ks[:2], x0s[:2], l, 0, range(2))
        tracemalloc.start()
        try:
            states, _ = oracle.rollout_batch(Ks, x0s, l, 0, range(n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.4 * n * l * plant.n_x * 8


class TestEmpirical:
    def test_cost_by_hand(self):
        states = np.array([[1.0], [2.0]])
        K = np.array([[-0.5]])
        # Q + K'RK = 1.25; mean of 1.25*(1+4)/2
        assert empirical_cost(states, np.eye(1), np.eye(1), K) == pytest.approx(
            1.25 * 2.5
        )

    @pytest.mark.parametrize("plant", [scalar_s1(), paper3x3(noise_scale=0.01)],
                             ids=["scalar_s1", "paper3x3"])
    @pytest.mark.parametrize("shared", [False, True], ids=["perturbed", "shared"])
    def test_batch_cost_matches_per_trajectory_bitwise(self, plant, shared):
        oracle = RolloutOracle(plant, SeedSpec(5))
        n, l = 40, 30
        K = solve_dare(plant).K_star
        if shared:
            Ks = np.broadcast_to(K, (n, *K.shape))
        else:
            Ks = K + np.array([oracle.draw_perturbation(0.3, 0, k) for k in range(n)])
        x0s = np.array([oracle.draw_initial_state(0, k) for k in range(n)])
        states, overflow = oracle.rollout_batch(Ks, x0s, l, 0, range(n))
        assert np.all(overflow == -1)
        id_major = np.ascontiguousarray(states.transpose(1, 0, 2))
        each = np.array([empirical_cost(id_major[k], plant.Q, plant.R, Ks[k])
                         for k in range(n)])
        batch = empirical_cost(id_major, plant.Q, plant.R, Ks)
        assert batch.shape == (n,)
        np.testing.assert_array_equal(batch, each)
        np.testing.assert_array_equal(oracle.stage_cost(states, Ks), each)
        if shared:
            np.testing.assert_array_equal(oracle.stage_cost(states, K), each)

    @staticmethod
    def einsum_cost(states, Q, R, K):
        """The reference: one three-operand einsum over Q + K'RK per gain."""
        Q_K = Q + np.swapaxes(K, -1, -2) @ R @ K
        return np.einsum("...ti,...ij,...tj->...", states, Q_K, states) / states.shape[-2]

    @pytest.mark.parametrize("n", [1, 2, 3, 31, 257])
    @pytest.mark.parametrize("scale", [1.0, 1e150], ids=["unit", "overflow"])
    def test_matches_einsum_bitwise(self, n, scale):
        """Every shape of the grid, with a shared, a broadcast and per-row
        gains, equals the einsum reference byte for byte, as a batch and in
        the single-trajectory form; near 1e150 the products overflow to inf
        and their sums to NaN, under the estimators' errstate."""
        rng = np.random.default_rng(n)
        for l, n_x, n_u in itertools.product([1, 2, 7, 8, 9, 100], range(1, 5), [1, 3]):
            # Spread magnitudes, so that another summation order rounds
            # differently.
            states = scale * rng.standard_normal((n, l, n_x)) * np.exp(
                rng.uniform(-2.0, 2.0, (n, l, n_x)))
            A = rng.standard_normal((n_x, n_x))
            Q, R = A @ A.T, np.diag(rng.uniform(0.5, 2.0, n_u))
            K = rng.standard_normal((n_u, n_x))
            gains = [K, np.broadcast_to(K, (n, n_u, n_x)),
                     rng.standard_normal((n, n_u, n_x))]
            with np.errstate(over="ignore", invalid="ignore"):
                for Ks in gains:
                    cost = empirical_cost(states, Q, R, Ks)
                    assert cost.tobytes() == self.einsum_cost(states, Q, R, Ks).tobytes()
                    K_rows = np.broadcast_to(Ks, (n, n_u, n_x))
                    for k in range(min(n, 3)):
                        one = empirical_cost(states[k], Q, R, K_rows[k])
                        ref = self.einsum_cost(states[k], Q, R, K_rows[k])
                        assert one.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n_x", [1, 2, 3])
    def test_einsum_blocks_and_layouts(self, n_x):
        """Trajectories that span several einsum buffers, alone or in a batch,
        and batches in layouts that einsum iterates in another order, still
        match it."""
        rng = np.random.default_rng(n_x)
        states = rng.standard_normal((3, 9000, n_x)) * np.exp(
            rng.uniform(-2.0, 2.0, (3, 9000, n_x)))
        Q, R = np.eye(n_x), np.eye(1)
        Ks = rng.standard_normal((3, 1, n_x))
        for S, K in [(states, Ks), (states[:1], Ks[:1]), (states[:, ::3], Ks),
                     (np.asfortranarray(states), Ks),
                     (states.transpose(1, 0, 2).copy().transpose(1, 0, 2), Ks)]:
            cost = empirical_cost(S, Q, R, K)
            assert cost.tobytes() == self.einsum_cost(S, Q, R, K).tobytes()

    def test_import_leaves_numpy_random_unloaded(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("import sys, lqrpg; print('numpy.random' in sys.modules, "
                "'concurrent.futures' in sys.modules, 'mmap' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False False False"

    def test_covariance_by_hand(self):
        states = np.array([[1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(
            empirical_covariance(states), np.diag([0.5, 2.0])
        )


def id_major_rollouts(plant, seeds, Ks, x0s, l, run_id, ids, purpose):
    """The id-major pipeline that the time-major buffer replaced, as the
    reference: draw every noise row, color 256 ids at a time, and step states
    laid out (n, l, n_x) with the masked loop, which gives the bytes of the
    id-major mask-free loop."""
    noises = seeds.draw(run_id, ids, purpose, (l - 1, plant.n_x))
    for a in range(0, len(noises), 256):
        noises[a:a + 256] = noises[a:a + 256] @ _psd_factor(plant.Sigma_w).T
    return masked_simulate(plant, Ks, x0s, l, noises)


class TestTimeMajorLayout:
    @pytest.mark.parametrize("n", [0, 1, 2, 255, 256, 257, 600])
    def test_rollout_and_cost_match_id_major_bitwise(self, n):
        """rollout_batch and stage_cost give the bytes of the id-major
        pipeline priced by einsum: around the 256-id chunk edges, at every
        l and n_x, with rows that overflow early or late, and with per-row,
        broadcast (stride-0) and single gains."""
        for l, n_x in itertools.product([1, 2, 9, 100], range(1, 5)):
            rng = np.random.default_rng(1000 * n + 10 * l + n_x)
            plant = random_plant(rng, n_x, min(n_x, 2))
            assert n_x == 1 or np.count_nonzero(plant.Sigma_w - np.diag(np.diag(plant.Sigma_w)))
            oracle = RolloutOracle(plant, SeedSpec(n + l))
            K = solve_dare(plant).K_star
            x0s = oracle.draw_initial_states(3, range(n))
            per_row = K + 0.05 * rng.standard_normal((n, *K.shape))
            per_row[3::7] = 1e150 * rng.standard_normal(per_row[3::7].shape)
            per_row[5::11] = 1e3 * rng.standard_normal(per_row[5::11].shape)
            shared = np.broadcast_to(K, (n, *K.shape))
            for Ks, gain, base, purpose in [
                    (per_row, per_row, 0, Purpose.NOISE),
                    (shared, shared, 2**40, Purpose.BASELINE),
                    (shared, K, 7, Purpose.NOISE)]:
                ids = range(base, base + n)
                states, overflow = oracle.rollout_batch(Ks, x0s, l, 3, ids, purpose)
                ref, ref_overflow = id_major_rollouts(plant, oracle.seeds, Ks, x0s,
                                                      l, 3, ids, purpose)
                assert states.shape == (l, n, n_x)
                assert states.transpose(1, 0, 2).tobytes() == ref.tobytes()
                np.testing.assert_array_equal(overflow, ref_overflow)
                with np.errstate(over="ignore", invalid="ignore"):
                    cost = oracle.stage_cost(states, gain)
                    ref_cost = TestEmpirical.einsum_cost(ref, plant.Q, plant.R, gain)
                assert cost.tobytes() == ref_cost.tobytes()
                if gain is per_row and n > 3 and l > 2:
                    assert overflow[3] > 0  # the 1e150 row overflowed

    def test_long_rollouts_colored_in_small_chunks(self):
        """Long rollouts color their noise 2 ids at a time, not all 21 at once:
        the same bytes, and the peak stays near one state array."""
        plant = paper3x3(noise_scale=0.01)
        oracle = RolloutOracle(plant, SeedSpec(2))
        n, l = 21, 20_000
        K = solve_dare(plant).K_star
        Ks = np.broadcast_to(K, (n, *K.shape))
        x0s = oracle.draw_initial_states(0, range(n))
        oracle.rollout_batch(Ks[:2], x0s[:2], 3, 0, range(2))
        tracemalloc.start()
        try:
            states, _ = oracle.rollout_batch(Ks, x0s, l, 0, range(n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.4 * n * l * plant.n_x * 8
        ref, _ = id_major_rollouts(plant, oracle.seeds, Ks, x0s, l, 0, range(n),
                                   Purpose.NOISE)
        assert states.transpose(1, 0, 2).tobytes() == ref.tobytes()

    def test_single_step_batch_draws_no_noise(self, monkeypatch):
        """At l = 1 a batch has no noise rows, so it makes no NOISE draw."""
        purposes = []
        draw = SeedSpec.draw
        monkeypatch.setattr(SeedSpec, "draw", lambda self, run_id, ids, purpose, shape:
                            purposes.append(purpose) or draw(self, run_id, ids,
                                                             purpose, shape))
        oracle = RolloutOracle(paper3x3(), SeedSpec(0))
        K = solve_dare(paper3x3()).K_star
        x0s = oracle.draw_initial_states(0, range(600))
        states, overflow = oracle.rollout_batch(np.broadcast_to(K, (600, *K.shape)),
                                                x0s, 1, 0, range(600))
        assert purposes == [Purpose.INITIAL_STATE]
        assert states.tobytes() == x0s[None].tobytes() and np.all(overflow == -1)

    @pytest.mark.parametrize("n, l", [(1, 1), (2, 9), (257, 100), (600, 9)])
    def test_npg_covariance_matches_id_major_bitwise(self, n, l):
        plant = random_plant(np.random.default_rng(n + l), 3, 2)
        oracle = RolloutOracle(plant, SeedSpec(7))
        cfg = RolloutConfig(n=n, l=l, r=0.05, L0=oracle.L0)
        K = solve_dare(plant).K_star
        grad, cov = estimate_gradient_covariance(oracle, K, cfg, run_id=2)
        U = oracle.draw_perturbations(cfg.r, 2, range(n))
        x0s = oracle.draw_initial_states(2, range(n))
        states, overflow = id_major_rollouts(plant, oracle.seeds, K + U, x0s, l, 2,
                                             range(n), Purpose.NOISE)
        assert not grad.failed and np.all(overflow == -1)
        ref = np.einsum("kti,ktj->ij", states, states) / (n * l)
        assert cov.value.tobytes() == (0.5 * (ref + ref.T)).tobytes()
        costs = TestEmpirical.einsum_cost(states, plant.Q, plant.R, K + U)
        ref_grad = ((U[0].size / cfg.r**2) * costs[:, None, None] * U).mean(axis=0)
        assert grad.value.tobytes() == ref_grad.tobytes()


class TestRolloutOracle:
    def test_hides_plant_matrices(self):
        oracle = RolloutOracle(scalar_s1(), SeedSpec(0))
        assert not hasattr(oracle, "A")
        assert not hasattr(oracle, "Sigma_w")

    def test_initial_state_matches_sample_initial_state(self):
        p = paper3x3(sigma0_scale=2.0)
        seeds = SeedSpec(4)
        oracle = RolloutOracle(p, seeds, L0=2.5)
        for k in range(20):
            rng = seeds.generator(1, k, Purpose.INITIAL_STATE)
            x0, _ = sample_initial_state(p.Sigma_0, 2.5, rng)
            np.testing.assert_array_equal(oracle.draw_initial_state(1, k), x0)

    def test_batch_draws_match_single_draws(self):
        p = paper3x3(sigma0_scale=2.0)
        oracle = RolloutOracle(p, SeedSpec(4), L0=2.5)
        ids = [0, 5, 2, 2**32 + 1]
        U = oracle.draw_perturbations(0.3, 1, ids)
        x0s = oracle.draw_initial_states(1, ids)
        assert U.shape == (4, p.n_u, p.n_x) and x0s.shape == (4, p.n_x)
        for j, k in enumerate(ids):
            np.testing.assert_array_equal(U[j], oracle.draw_perturbation(0.3, 1, k))
            np.testing.assert_array_equal(x0s[j], oracle.draw_initial_state(1, k))
            ref_U = sample_sphere_perturbation(
                p.n_u, p.n_x, 0.3, reference_generator(4, 1, k, Purpose.PERTURBATION))
            ref_x0, _ = sample_initial_state(
                p.Sigma_0, 2.5, reference_generator(4, 1, k, Purpose.INITIAL_STATE))
            np.testing.assert_array_equal(U[j], ref_U)
            np.testing.assert_array_equal(x0s[j], ref_x0)
        assert oracle.draw_perturbations(0.3, 1, []).shape == (0, p.n_u, p.n_x)
        assert oracle.draw_initial_states(1, []).shape == (0, p.n_x)

    def test_rollout_overflow_raises(self):
        oracle = RolloutOracle(scalar_s1(), SeedSpec(0))
        with pytest.raises(OverflowedRollout) as exc:
            oracle.rollout([[500.0]], [1.0], 300, 0, 0)
        assert exc.value.step > 0

    def test_perturbation_stream_isolated_from_noise(self):
        oracle = RolloutOracle(scalar_s1(), SeedSpec(0))
        U1 = oracle.draw_perturbation(0.1, 0, 0)
        x0 = oracle.draw_initial_state(0, 0)
        U2 = oracle.draw_perturbation(0.1, 0, 0)
        np.testing.assert_array_equal(U1, U2)
        assert np.linalg.norm(x0) <= oracle.L0


class TestRolloutConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(n=0, l=10, r=0.1, L0=1.0),
        dict(n=10, l=0, r=0.1, L0=1.0),
        dict(n=10, l=10, r=-0.1, L0=1.0),
        dict(n=10, l=10, r=0.1, L0=0.0),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            RolloutConfig(**kwargs)
