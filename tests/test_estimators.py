import warnings

import numpy as np
import pytest

from lqrpg import (
    ConfigurationError,
    PlantModel,
    RolloutConfig,
    RolloutOracle,
    SeedSpec,
    estimate_baseline,
    estimate_gradient,
    estimate_gradient_covariance,
    estimate_gradient_vr,
    estimator_diagnostics,
    exact_quantities,
    paper3x3,
    scalar_s1,
)

K_HALF = np.array([[-0.5]])


def make_oracle(seed=0, plant=None):
    return RolloutOracle(plant or scalar_s1(), SeedSpec(seed))


class TestGradientCovariance:
    def test_mean_approaches_exact_gradient(self):
        q = exact_quantities(scalar_s1(), K_HALF)
        cfg = RolloutConfig(n=4000, l=150, r=0.05, L0=3.0)
        vals = []
        for seed in range(10):
            g, _ = estimate_gradient_covariance(make_oracle(seed), K_HALF, cfg)
            vals.append(g.value[0, 0])
        # std of a single estimate is ~3.5/sqrt(n); the mean over ten seeds
        # has standard error ~0.04, so 0.25 is a comfortable margin.
        assert np.mean(vals) == pytest.approx(q.grad[0, 0], abs=0.25)

    def test_covariance_estimate_close(self):
        cfg = RolloutConfig(n=500, l=200, r=0.01, L0=3.0)
        _, c = estimate_gradient_covariance(make_oracle(4), K_HALF, cfg)
        assert c.value[0, 0] == pytest.approx(1.0, abs=0.05)
        assert not c.failed

    def test_deterministic_given_seed_and_run(self):
        cfg = RolloutConfig(n=50, l=30, r=0.1, L0=3.0)
        g1, c1 = estimate_gradient_covariance(make_oracle(7), K_HALF, cfg, run_id=3)
        g2, c2 = estimate_gradient_covariance(make_oracle(7), K_HALF, cfg, run_id=3)
        np.testing.assert_array_equal(g1.value, g2.value)
        np.testing.assert_array_equal(c1.value, c2.value)

    def test_run_id_changes_estimate(self):
        cfg = RolloutConfig(n=50, l=30, r=0.1, L0=3.0)
        g1, _ = estimate_gradient_covariance(make_oracle(7), K_HALF, cfg, run_id=0)
        g2, _ = estimate_gradient_covariance(make_oracle(7), K_HALF, cfg, run_id=1)
        assert g1.value[0, 0] != g2.value[0, 0]

    def test_degenerate_oracle_gives_zero_gradient(self):
        p = PlantModel(A=[[0.5]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                       Sigma_w=[[0.0]], Sigma_0=[[0.0]])
        oracle = RolloutOracle(p, SeedSpec(0), L0=1.0)
        cfg = RolloutConfig(n=20, l=10, r=0.1, L0=1.0)
        g, c = estimate_gradient_covariance(oracle, K_HALF, cfg)
        np.testing.assert_allclose(g.value, 0.0)
        np.testing.assert_allclose(c.value, 0.0)

    def test_unstable_gain_marks_failed(self):
        cfg = RolloutConfig(n=5, l=400, r=0.1, L0=3.0)
        g, c = estimate_gradient_covariance(make_oracle(0), [[400.0]], cfg)
        assert g.failed and c.failed
        assert np.isnan(g.value).all()
        assert g.failed_rollout is not None

    def test_keep_terms_shapes(self):
        cfg = RolloutConfig(n=12, l=20, r=0.1, L0=3.0)
        g, _ = estimate_gradient_covariance(make_oracle(1), K_HALF, cfg,
                                            keep_terms=True)
        assert g.per_rollout_terms.shape == (12, 1, 1)
        assert g.rollout_costs.shape == (12,)
        np.testing.assert_allclose(g.per_rollout_terms.mean(axis=0), g.value)


class TestGradientOnly:
    """``estimate_gradient`` is the gradient half of
    ``estimate_gradient_covariance``, byte for byte."""

    @pytest.mark.parametrize("case", [
        (scalar_s1(), K_HALF, RolloutConfig(n=50, l=30, r=0.1, L0=3.0)),
        (paper3x3(noise_scale=0.01), np.full((1, 3), -0.2),
         RolloutConfig(n=300, l=40, r=0.05, L0=3.0)),
        # Overflowing rollouts: a failed estimate.
        (scalar_s1(), np.array([[500.0]]), RolloutConfig(n=20, l=300, r=0.1, L0=3.0)),
        # Finite states whose costs overflow to inf.
        (scalar_s1(), np.array([[1e100]]), RolloutConfig(n=4, l=3, r=0.1, L0=3.0)),
    ], ids=["scalar", "paper3x3", "failed", "inf_costs"])
    @pytest.mark.parametrize("keep_terms", [False, True])
    def test_same_bytes_as_gradient_covariance(self, case, keep_terms):
        plant, K, cfg = case
        oracle = RolloutOracle(plant, SeedSpec(3))
        ref, _ = estimate_gradient_covariance(oracle, K, cfg, run_id=2,
                                              keep_terms=keep_terms)
        g = estimate_gradient(oracle, K, cfg, run_id=2, keep_terms=keep_terms)
        assert (g.failed, g.failed_rollout) == (ref.failed, ref.failed_rollout)
        assert g.value.tobytes() == ref.value.tobytes()
        for name in ("per_rollout_terms", "rollout_costs"):
            a, b = getattr(g, name), getattr(ref, name)
            assert (a is None) == (b is None)
            assert a is None or a.tobytes() == b.tobytes()
        assert (g.n_used, g.l_used, g.r_used, g.run_id) == (cfg.n, cfg.l, cfg.r, 2)


class TestBaseline:
    def test_baseline_close_to_cost(self):
        q = exact_quantities(scalar_s1(), K_HALF)
        est = estimate_baseline(make_oracle(2), K_HALF, np.array([0.5]),
                                n_v=200, l=200)
        assert est.value == pytest.approx(q.cost, rel=0.15)
        assert not est.failed

    def test_requires_positive_count(self):
        with pytest.raises(ConfigurationError):
            estimate_baseline(make_oracle(0), K_HALF, np.array([0.0]),
                              n_v=0, l=10)


class TestVarianceReduction:
    def test_vr_reduces_term_variance_paired_seeds(self):
        cfg = RolloutConfig(n=300, l=100, r=0.1, L0=3.0)
        oracle = make_oracle(3)
        g_plain, _ = estimate_gradient_covariance(oracle, K_HALF, cfg,
                                                  keep_terms=True)
        g_vr = estimate_gradient_vr(oracle, K_HALF, cfg, n_v=20,
                                    keep_terms=True)
        v_plain = g_plain.per_rollout_terms.var(ddof=1)
        v_vr = g_vr.per_rollout_terms.var(ddof=1)
        assert v_vr < v_plain

    def test_vr_mean_still_accurate(self):
        q = exact_quantities(scalar_s1(), K_HALF)
        cfg = RolloutConfig(n=200, l=150, r=0.05, L0=3.0)
        vals = [estimate_gradient_vr(make_oracle(s), K_HALF, cfg, n_v=10).value[0, 0]
                for s in range(10)]
        assert np.mean(vals) == pytest.approx(q.grad[0, 0], abs=0.2)

    def test_vr_failure_on_unstable_gain(self):
        cfg = RolloutConfig(n=5, l=400, r=0.1, L0=3.0)
        g = estimate_gradient_vr(make_oracle(0), [[400.0]], cfg, n_v=3)
        assert g.failed

    def test_outer_rollout_k_owns_baseline_ids_from_k_times_n_v(self):
        oracle = make_oracle(6)
        cfg = RolloutConfig(n=7, l=25, r=0.1, L0=3.0)
        n_v, run_id = 4, 2
        g = estimate_gradient_vr(oracle, K_HALF, cfg, n_v, run_id=run_id,
                                 keep_terms=True)
        for k in range(cfg.n):
            x0 = oracle.draw_initial_state(run_id, k)
            b = estimate_baseline(oracle, K_HALF, x0, n_v, cfg.l, run_id=run_id,
                                  rollout_base=k * n_v).value
            U = oracle.draw_perturbation(cfg.r, run_id, k)
            term = (1 / cfg.r**2) * (g.rollout_costs[k:k + 1] - b)[:, None, None] * U
            np.testing.assert_array_equal(g.per_rollout_terms[k], term[0])


class TestOverflowingCosts:
    """Finite states whose costs overflow to inf: no NumPy warning."""

    K_HUGE = np.array([[1e100]])
    CFG = RolloutConfig(n=4, l=3, r=0.1, L0=3.0)

    def test_plain_estimator_is_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g, c = estimate_gradient_covariance(make_oracle(0), self.K_HUGE,
                                                self.CFG, keep_terms=True)
        assert not g.failed
        assert np.isinf(g.rollout_costs).all()

    def test_vr_estimator_is_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = estimate_gradient_vr(make_oracle(0), self.K_HUGE, self.CFG,
                                     n_v=3, keep_terms=True)
        assert not g.failed
        assert np.isinf(g.rollout_costs).all()


class TestDiagnostics:
    def test_mean_and_variance(self):
        cfg = RolloutConfig(n=50, l=50, r=0.1, L0=3.0)
        ests = [estimate_gradient_covariance(make_oracle(s), K_HALF, cfg)[0]
                for s in range(6)]
        q = exact_quantities(scalar_s1(), K_HALF)
        d = estimator_diagnostics(ests, reference=q.grad)
        assert d.mean.shape == (1, 1)
        assert d.componentwise_variance[0, 0] > 0
        assert len(d.frobenius_errors) == 6
        assert d.mean_frobenius_error == pytest.approx(
            float(np.mean(d.frobenius_errors))
        )

    def test_all_failed_raises(self):
        cfg = RolloutConfig(n=5, l=400, r=0.1, L0=3.0)
        g, _ = estimate_gradient_covariance(make_oracle(0), [[400.0]], cfg)
        with pytest.raises(ConfigurationError):
            estimator_diagnostics([g])
