import warnings

import numpy as np
import pytest

from lqrpg import (
    ConfigurationError,
    ConvergenceTrace,
    CovarianceEstimate,
    GradientEstimate,
    IterationRecord,
    PlantNorms,
    Purpose,
    RolloutConfig,
    RolloutOracle,
    SeedSpec,
    StepSchedule,
    StopRule,
    detuned_initial_gain,
    exact_quantities,
    npg_step_bound,
    paper3x3,
    pgd_step_bound,
    run_mb_gauss_newton,
    run_mb_npg,
    run_mb_pgd,
    run_mf_npg,
    run_mf_pgd,
    run_noisy_gradient_pgd,
    scalar_s1,
    solve_dare,
)
from lqrpg.plants import PlantModel
from conftest import random_plant, random_stabilizing_gain

S1 = scalar_s1()
OPT = solve_dare(S1)
NORMS = PlantNorms.from_plant(S1)
K_ZERO = np.array([[0.0]])


META = dict(n_used=0, l_used=0, r_used=0.0, run_id=0)


def exact_stub(plant):
    """Estimator hook that feeds the exact quantities into a model-free loop."""

    def estimator(K, i):
        q = exact_quantities(plant, K)
        g = GradientEstimate(value=q.grad, rollout_costs=np.array([q.cost]), **META)
        c = CovarianceEstimate(value=q.Sigma, **META)
        return g, c

    return estimator


class TestStepSchedule:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            StepSchedule(kind="bogus", eta=0.1)

    def test_fixed_requires_eta(self):
        with pytest.raises(ConfigurationError):
            StepSchedule(kind="fixed")

    def test_adaptive_empirical_requires_coefficients(self):
        with pytest.raises(ConfigurationError):
            StepSchedule(kind="adaptive_empirical", a=0.1, b=1.0)
        with pytest.raises(ConfigurationError):
            StepSchedule(kind="adaptive_empirical", a=0.0, b=1.0, c=2.0)

    def test_adaptive_empirical_formula(self):
        s = StepSchedule(kind="adaptive_empirical", a=0.09, b=1.0, c=2.0)
        # tr_P proxy = cost / Tr(Sigma_w)
        assert s.step_size(4.0 / 3.0, NORMS, "pgd") == pytest.approx(
            0.09 / (1.0 + 2.0 * (4.0 / 3.0)), rel=1e-12
        )

    def test_adaptive_certified_matches_bounds(self):
        s = StepSchedule(kind="adaptive_certified")
        assert s.step_size(4.0 / 3.0, NORMS, "pgd") == pytest.approx(
            pgd_step_bound(NORMS, 4.0 / 3.0)
        )
        assert s.step_size(4.0 / 3.0, NORMS, "npg") == pytest.approx(3.0 / 14.0)

    def test_adaptive_needs_norms(self):
        with pytest.raises(ConfigurationError):
            StepSchedule(kind="adaptive_certified").step_size(1.0, None, "pgd")


class TestStopRuleAndTrace:
    def test_stop_rule_rejects_zero_iters(self):
        with pytest.raises(ConfigurationError):
            StopRule(max_iters=0)

    def test_trace_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            ConvergenceTrace(records=[], K_final=K_ZERO, terminal_reason="x")

    def test_trace_rejects_gapped_indices(self):
        recs = [
            IterationRecord(0, 1.0, None, 0.1, 1.0, "ok"),
            IterationRecord(2, 1.0, None, 0.1, 1.0, "ok"),
        ]
        with pytest.raises(ConfigurationError):
            ConvergenceTrace(records=recs, K_final=K_ZERO, terminal_reason="x")


class TestModelBasedPgd:
    def test_start_at_optimum_is_stationary(self):
        trace = run_mb_pgd(
            S1, OPT.K_star, StepSchedule(kind="fixed", eta=0.01),
            StopRule(max_iters=50, grad_tol=1e-8),
        )
        assert trace.terminal_reason == "stationary"
        assert len(trace.records) == 1

    def test_adaptive_monotone_and_contracting(self):
        trace = run_mb_pgd(
            S1, K_ZERO, StepSchedule(kind="adaptive_certified"),
            StopRule(max_iters=400, rel_subopt_tol=1e-6),
        )
        assert trace.terminal_reason == "converged"
        costs = trace.costs
        assert np.all(np.diff(costs) <= 1e-14)
        # per-step contraction of the gap at the certified step size
        sig_star = float(np.linalg.norm(OPT.Sigma_star, 2))
        for a, b in zip(trace.records[:-1], trace.records[1:]):
            if a.step == 0.0:
                continue
            factor = 1.0 - 2.0 * a.step * NORMS.lam_R * NORMS.lam_Sigma_w ** 2 / sig_star
            gap_a = a.cost - OPT.C_star
            gap_b = b.cost - OPT.C_star
            assert gap_b <= factor * gap_a + 1e-12

    def test_rejects_destabilizing_start(self):
        with pytest.raises(ConfigurationError):
            run_mb_pgd(S1, [[2.0]], StepSchedule(kind="fixed", eta=0.01),
                       StopRule(max_iters=5))

    def test_huge_step_diverges(self):
        trace = run_mb_pgd(S1, K_ZERO, StepSchedule(kind="fixed", eta=50.0),
                           StopRule(max_iters=20))
        assert trace.terminal_reason == "diverged"
        assert trace.diverged

    def test_adaptive_dominates_fixed_everywhere(self):
        eta0 = pgd_step_bound(NORMS, 4.0 / 3.0)
        stop = StopRule(max_iters=100)
        fixed = run_mb_pgd(S1, K_ZERO, StepSchedule(kind="fixed", eta=eta0), stop)
        adaptive = run_mb_pgd(S1, K_ZERO, StepSchedule(kind="adaptive_certified"), stop)
        for f, a in zip(fixed.records, adaptive.records):
            assert a.cost <= f.cost + 1e-14


class TestModelBasedNpg:
    def test_single_step_matches_closed_form(self):
        eta = 0.1
        trace = run_mb_npg(S1, K_ZERO, StepSchedule(kind="fixed", eta=eta),
                           StopRule(max_iters=1))
        q = exact_quantities(S1, K_ZERO)
        expected = K_ZERO - 2.0 * eta * q.E
        np.testing.assert_allclose(trace.K_final, expected, atol=1e-14)

    def test_contraction_at_certified_step(self):
        eta = npg_step_bound(NORMS, 4.0 / 3.0)  # 3/14 at the zero gain
        trace = run_mb_npg(S1, K_ZERO, StepSchedule(kind="fixed", eta=eta),
                           StopRule(max_iters=60))
        sig_star = float(np.linalg.norm(OPT.Sigma_star, 2))
        factor = 1.0 - 2.0 * eta * NORMS.lam_R * NORMS.lam_Sigma_w / sig_star
        for a, b in zip(trace.records[:-1], trace.records[1:]):
            if a.step == 0.0:
                continue
            assert (b.cost - OPT.C_star) <= factor * (a.cost - OPT.C_star) + 1e-12

    def test_identity_holds_on_random_plants(self, rng):
        for _ in range(5):
            p = random_plant(rng, 2, 2)
            K = random_stabilizing_gain(p, rng)
            # the loop itself raises if K - 2 eta E != K - eta grad Sigma^-1
            run_mb_npg(p, K, StepSchedule(kind="fixed", eta=0.05),
                       StopRule(max_iters=3))


class TestGaussNewton:
    def test_scalar_first_step_golden(self):
        trace = run_mb_gauss_newton(S1, K_ZERO, eta=0.5, stop=StopRule(max_iters=1))
        assert trace.K_final[0, 0] == pytest.approx(-2.0 / 7.0, rel=1e-12)

    def test_optimum_is_fixed_point(self):
        trace = run_mb_gauss_newton(S1, OPT.K_star, eta=0.5,
                                    stop=StopRule(max_iters=1))
        assert np.linalg.norm(trace.K_final - OPT.K_star) <= 1e-10

    def test_half_step_is_policy_improvement(self, rng):
        for _ in range(10):
            p = random_plant(rng, 2, 1)
            K = random_stabilizing_gain(p, rng)
            q = exact_quantities(p, K)
            G = p.R + p.B.T @ q.P @ p.B
            improvement = -np.linalg.solve(G, p.B.T @ q.P @ p.A)
            trace = run_mb_gauss_newton(p, K, eta=0.5, stop=StopRule(max_iters=1))
            np.testing.assert_allclose(trace.K_final, improvement, atol=1e-10)

    def test_rejects_step_out_of_range(self):
        with pytest.raises(ConfigurationError):
            run_mb_gauss_newton(S1, K_ZERO, eta=0.6, stop=StopRule(max_iters=1))
        with pytest.raises(ConfigurationError):
            run_mb_gauss_newton(S1, K_ZERO, eta=0.0, stop=StopRule(max_iters=1))


class TestModelFreePgd:
    def test_exact_stub_matches_model_based(self):
        stop = StopRule(max_iters=25)
        sched = StepSchedule(kind="fixed", eta=0.1)
        oracle = RolloutOracle(S1, SeedSpec(0))
        mf = run_mf_pgd(oracle, K_ZERO, sched, stop, estimator=exact_stub(S1))
        mb = run_mb_pgd(S1, K_ZERO, sched, stop)
        np.testing.assert_array_equal(mf.K_final, mb.K_final)
        np.testing.assert_array_equal(
            [r.cost for r in mf.records],
            [r.cost for r in mb.records[:len(mf.records)]],
        )

    def test_zero_noise_plant_freezes(self):
        p = PlantModel(A=[[0.5]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                       Sigma_w=[[0.0]], Sigma_0=[[0.0]])
        oracle = RolloutOracle(p, SeedSpec(0), L0=1.0)
        cfg = RolloutConfig(n=10, l=10, r=0.1, L0=1.0)
        trace = run_mf_pgd(oracle, [[-0.5]], StepSchedule(kind="fixed", eta=0.1),
                           StopRule(max_iters=5), rollout_cfg=cfg)
        np.testing.assert_allclose(trace.K_final, [[-0.5]])

    def test_consecutive_failures_abort(self):
        def failing(K, i):
            g = GradientEstimate(value=np.full((1, 1), np.nan), failed=True, **META)
            return g, None

        oracle = RolloutOracle(S1, SeedSpec(0))
        trace = run_mf_pgd(oracle, K_ZERO, StepSchedule(kind="fixed", eta=0.1),
                           StopRule(max_iters=50), estimator=failing,
                           max_consecutive_failures=3)
        assert trace.terminal_reason == "too_many_failures"
        assert len(trace.records) == 3
        assert all(r.status == "estimate_failed" for r in trace.records)

    def test_real_estimates_reduce_cost(self):
        oracle = RolloutOracle(S1, SeedSpec(11))
        cfg = RolloutConfig(n=600, l=100, r=0.1, L0=3.0)
        trace = run_mf_pgd(oracle, K_ZERO, StepSchedule(kind="fixed", eta=0.08),
                           StopRule(max_iters=12), rollout_cfg=cfg,
                           c_star=OPT.C_star)
        assert trace.terminal_reason == "max_iters"
        q = exact_quantities(S1, trace.K_final)
        assert q.cost < 4.0 / 3.0
        assert q.cost - OPT.C_star < 0.1

    def test_exact_stub_stops_stationary_like_model_based(self):
        stop = StopRule(max_iters=500, grad_tol=1e-6)
        sched = StepSchedule(kind="fixed", eta=0.1)
        oracle = RolloutOracle(S1, SeedSpec(0))
        mf = run_mf_pgd(oracle, K_ZERO, sched, stop, estimator=exact_stub(S1))
        mb = run_mb_pgd(S1, K_ZERO, sched, stop)
        assert mf.terminal_reason == mb.terminal_reason == "stationary"
        assert len(mf.records) == len(mb.records) < 500
        assert mf.records[-1].grad_norm <= 1e-6
        assert mf.records[-1].step == 0.0
        np.testing.assert_array_equal(mf.K_final, mb.K_final)

    def test_explicit_rollout_config_runs_no_probe_rollout(self, monkeypatch):
        def no_rollout(self, *args, **kwargs):
            raise AssertionError("unexpected single rollout")

        monkeypatch.setattr(RolloutOracle, "rollout", no_rollout)
        oracle = RolloutOracle(S1, SeedSpec(0))
        cfg = RolloutConfig(n=20, l=20, r=0.1, L0=3.0)
        trace = run_mf_pgd(oracle, K_ZERO, StepSchedule(kind="fixed", eta=0.05),
                           StopRule(max_iters=2), rollout_cfg=cfg)
        assert trace.terminal_reason == "max_iters"
        assert len(trace.records) == 2

    def test_huge_gradient_norm_is_quiet(self):
        def huge(K, i):
            return GradientEstimate(value=np.array([[1e200]]),
                                    rollout_costs=np.array([1.0]), **META), None

        oracle = RolloutOracle(S1, SeedSpec(0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run_mf_pgd(oracle, K_ZERO, StepSchedule(kind="fixed", eta=0.1),
                               StopRule(max_iters=3), estimator=huge)
        assert trace.terminal_reason == "max_iters"
        assert [r.grad_norm for r in trace.records] == [np.inf] * 3

    def test_infinite_first_cost_diverges(self):
        oracle = RolloutOracle(S1, SeedSpec(0))
        K0 = np.array([[1e100]])
        cfg = RolloutConfig(n=4, l=3, r=0.1, L0=3.0)
        trace = run_mf_pgd(oracle, K0, StepSchedule(kind="fixed", eta=0.1),
                           StopRule(max_iters=8), rollout_cfg=cfg)
        assert trace.terminal_reason == "diverged"
        assert len(trace.records) == 1
        assert trace.records[0].status == "diverged"
        assert trace.records[0].cost == np.inf
        np.testing.assert_array_equal(trace.K_final, K0)

    def test_rejects_bad_cert_source(self):
        oracle = RolloutOracle(S1, SeedSpec(0))
        with pytest.raises(ConfigurationError):
            run_mf_pgd(oracle, K_ZERO, StepSchedule(kind="fixed", eta=0.1),
                       StopRule(max_iters=1), cert_source="sometimes")

    def test_needs_rollout_or_budget(self):
        oracle = RolloutOracle(S1, SeedSpec(0))
        with pytest.raises(ConfigurationError):
            run_mf_pgd(oracle, K_ZERO, StepSchedule(kind="fixed", eta=0.1),
                       StopRule(max_iters=1))


class TestModelFreeNpg:
    def test_exact_stub_matches_model_based(self):
        stop = StopRule(max_iters=25)
        sched = StepSchedule(kind="fixed", eta=0.15)
        oracle = RolloutOracle(S1, SeedSpec(0))
        mf = run_mf_npg(oracle, K_ZERO, sched, stop, estimator=exact_stub(S1),
                        cov_floor=1e-8)
        mb = run_mb_npg(S1, K_ZERO, sched, stop)
        np.testing.assert_allclose(mf.K_final, mb.K_final, atol=1e-10)
        np.testing.assert_allclose(
            [r.cost for r in mf.records],
            [r.cost for r in mb.records[:len(mf.records)]],
            atol=1e-10,
        )

    def test_covariance_floor_blocks_update(self):
        def tiny_cov(K, i):
            q = exact_quantities(S1, K)
            g = GradientEstimate(value=q.grad, rollout_costs=np.array([q.cost]),
                                 **META)
            c = CovarianceEstimate(value=np.array([[1e-12]]), **META)
            return g, c

        oracle = RolloutOracle(S1, SeedSpec(0))
        trace = run_mf_npg(oracle, K_ZERO, StepSchedule(kind="fixed", eta=0.1),
                           StopRule(max_iters=10), estimator=tiny_cov,
                           norms=NORMS, max_consecutive_failures=2)
        assert trace.terminal_reason == "too_many_failures"
        np.testing.assert_array_equal(trace.K_final, K_ZERO)

    def test_real_estimates_reduce_cost(self):
        oracle = RolloutOracle(S1, SeedSpec(5))
        cfg = RolloutConfig(n=600, l=100, r=0.1, L0=3.0)
        trace = run_mf_npg(oracle, K_ZERO, StepSchedule(kind="fixed", eta=0.15),
                           StopRule(max_iters=12), rollout_cfg=cfg,
                           norms=NORMS, c_star=OPT.C_star)
        q = exact_quantities(S1, trace.K_final)
        assert q.cost < 4.0 / 3.0


class TestNoisyGradient:
    def test_zero_noise_matches_model_based(self):
        stop = StopRule(max_iters=30)
        noisy = run_noisy_gradient_pgd(S1, K_ZERO, eta=0.1, noise_sigma=0.0,
                                       stop=stop, seeds=SeedSpec(0))
        mb = run_mb_pgd(S1, K_ZERO, StepSchedule(kind="fixed", eta=0.1), stop)
        np.testing.assert_array_equal(noisy.K_final, mb.K_final)

    def test_deterministic_given_seed(self):
        stop = StopRule(max_iters=20)
        a = run_noisy_gradient_pgd(S1, K_ZERO, 0.05, 0.1, stop, SeedSpec(3), run_id=2)
        b = run_noisy_gradient_pgd(S1, K_ZERO, 0.05, 0.1, stop, SeedSpec(3), run_id=2)
        c = run_noisy_gradient_pgd(S1, K_ZERO, 0.05, 0.1, stop, SeedSpec(3), run_id=4)
        np.testing.assert_array_equal(a.K_final, b.K_final)
        assert not np.array_equal(a.K_final, c.K_final)

    def test_step_noise_is_keyed_by_run_and_iteration(self):
        p = paper3x3(noise_scale=0.5)
        K = detuned_initial_gain(p)
        trace = run_noisy_gradient_pgd(p, K, eta=0.12, noise_sigma=0.03,
                                       stop=StopRule(max_iters=6), seeds=SeedSpec(9),
                                       run_id=3)
        assert trace.terminal_reason == "max_iters"
        for i in range(6):
            rng = np.random.default_rng(np.random.SeedSequence(
                entropy=9, spawn_key=(3, i, int(Purpose.PERTURBATION))))
            delta = 0.03 * rng.standard_normal((p.n_u, p.n_x))
            K = K - 0.12 * (exact_quantities(p, K).grad + delta)
        np.testing.assert_array_equal(trace.K_final, K)

    def test_large_noise_can_diverge(self):
        diverged = 0
        for run in range(30):
            trace = run_noisy_gradient_pgd(S1, K_ZERO, eta=0.5, noise_sigma=5.0,
                                           stop=StopRule(max_iters=50),
                                           seeds=SeedSpec(1), run_id=run)
            diverged += trace.terminal_reason == "diverged"
        assert diverged > 0

    def test_grad_tol_stops_stationary(self):
        at_opt = run_noisy_gradient_pgd(S1, OPT.K_star, eta=0.1, noise_sigma=0.5,
                                        stop=StopRule(max_iters=50, grad_tol=1e-8),
                                        seeds=SeedSpec(0))
        assert at_opt.terminal_reason == "stationary"
        assert len(at_opt.records) == 1
        stop = StopRule(max_iters=500, grad_tol=1e-6)
        noisy = run_noisy_gradient_pgd(S1, K_ZERO, eta=0.1, noise_sigma=0.0,
                                       stop=stop, seeds=SeedSpec(0))
        mb = run_mb_pgd(S1, K_ZERO, StepSchedule(kind="fixed", eta=0.1), stop)
        assert noisy.terminal_reason == "stationary"
        assert len(noisy.records) == len(mb.records) < 500
        assert noisy.records[-1].grad_norm <= 1e-6

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            run_noisy_gradient_pgd(S1, K_ZERO, eta=0.0, noise_sigma=0.1,
                                   stop=StopRule(max_iters=1), seeds=SeedSpec(0))
        with pytest.raises(ConfigurationError):
            run_noisy_gradient_pgd(S1, K_ZERO, eta=0.1, noise_sigma=-1.0,
                                   stop=StopRule(max_iters=1), seeds=SeedSpec(0))
