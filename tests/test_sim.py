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
    paper3x3,
    sample_initial_state,
    sample_sphere_perturbation,
    scalar_s1,
    simulate,
    simulate_batch,
    solve_dare,
)
from lqrpg.plants import PlantModel
from lqrpg.sim import _SEED_CHUNK, default_initial_state_bound


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
        batch = seeds.draw(run_id, ids, purpose, normals)
        ref = np.array([normals(reference_generator(master, run_id, k, purpose))
                        for k in ids])
        np.testing.assert_array_equal(batch, ref)
        assert batch.shape == ref.shape
        for k in ids[:2]:
            np.testing.assert_array_equal(
                seeds.generator(run_id, k, purpose).standard_normal(5),
                reference_generator(master, run_id, k, purpose).standard_normal(5))

    def test_batch_equals_its_split(self):
        seeds = SeedSpec(17)
        whole = seeds.draw(2, range(1000), Purpose.NOISE, normals)
        parts = [seeds.draw(2, range(a, b), Purpose.NOISE, normals)
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
            SeedSpec(0).draw(-1, [0], Purpose.NOISE, normals)
        with pytest.raises(ConfigurationError):
            SeedSpec(0).draw(0, [3, -2], Purpose.NOISE, normals)


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


class TestSimulate:
    def test_noise_free_deadbeat(self):
        p = PlantModel(A=[[0.5]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                       Sigma_w=[[0.0]], Sigma_0=[[0.0]])
        rng = np.random.default_rng(0)
        traj = simulate(p, [[-0.5]], [1.0], 5, rng)
        np.testing.assert_allclose(traj.states[1:], 0.0)
        assert traj.states[0, 0] == 1.0

    @pytest.mark.parametrize("plant", [scalar_s1(), paper3x3(noise_scale=0.01)],
                             ids=["scalar_s1", "paper3x3"])
    def test_scalar_matches_batch_bitwise(self, plant):
        seeds = SeedSpec(9)
        K = solve_dare(plant).K_star + 0.1
        x0 = np.linspace(0.7, -0.2, plant.n_x)
        rng = seeds.generator(0, 5, Purpose.NOISE)
        traj = simulate(plant, K, x0, 50, rng)
        oracle = RolloutOracle(plant, seeds)
        states, overflow = oracle.rollout_batch(
            K[None], x0[None], 50, 0, [5], Purpose.NOISE
        )
        assert overflow[0] == -1
        np.testing.assert_array_equal(traj.states, states[0])
        single = oracle.rollout(K, x0, 50, 0, 5)
        np.testing.assert_array_equal(single.states, states[0])
        assert single.seed_label == (0, 5, int(Purpose.NOISE))

    def test_unstable_rollout_overflows(self):
        p = scalar_s1()
        rng = np.random.default_rng(0)
        with pytest.raises(OverflowedRollout) as exc:
            simulate(p, [[500.0]], [1.0], 300, rng)
        assert exc.value.step > 0

    def test_batch_overflow_isolated(self):
        p = scalar_s1()
        Ks = np.array([[[-0.5]], [[500.0]]])
        x0s = np.array([[1.0], [1.0]])
        noises = np.zeros((2, 299, 1))
        states, overflow = simulate_batch(p, Ks, x0s, 300, noises)
        assert overflow[0] == -1
        assert overflow[1] > 0
        assert np.all(np.isfinite(states))


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
        each = np.array([empirical_cost(states[k], plant.Q, plant.R, Ks[k])
                         for k in range(n)])
        batch = empirical_cost(states, plant.Q, plant.R, Ks)
        assert batch.shape == (n,)
        np.testing.assert_array_equal(batch, each)
        np.testing.assert_array_equal(oracle.stage_cost(states, Ks), each)
        if shared:
            np.testing.assert_array_equal(oracle.stage_cost(states, K), each)

    def test_covariance_by_hand(self):
        states = np.array([[1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(
            empirical_covariance(states), np.diag([0.5, 2.0])
        )


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
