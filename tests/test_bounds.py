import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqrpg import (
    ConfigurationError,
    CovErrorBudget,
    ErrorBudget,
    PlantNorms,
    covariance_certificate,
    detuned_initial_gain,
    emit_bounds_report,
    exact_quantities,
    gradient_certificate,
    iteration_counts,
    npg_step_bound,
    paper3x3,
    perturbation_constants,
    pgd_step_bound,
    required_accuracies,
    scalar_s1,
    solve_dare,
    state_bound,
    vr_certificate,
)

S1 = scalar_s1()
NORMS = PlantNorms.from_plant(S1)
C0 = 4.0 / 3.0  # cost of the zero gain on the scalar benchmark


class TestPerturbationConstants:
    def test_scalar_goldens(self):
        pc = perturbation_constants(NORMS, C0)
        assert pc.h == pytest.approx(0.09375, rel=1e-12)
        assert pc.h_sigma == pytest.approx(128.0 / 9.0, rel=1e-12)
        assert pc.h_grad == pytest.approx(pc.alpha1 + pc.alpha3, rel=1e-12)
        assert pc.b_grad > 0 and pc.b_gain > 0 and pc.h_cost > 0

    def test_b_grad_vanishes_at_optimum(self):
        opt = solve_dare(S1)
        pc = perturbation_constants(NORMS, opt.C_star, c_star=opt.C_star)
        assert pc.b_grad == 0.0

    def test_h_decreasing_in_cost(self):
        hs = [perturbation_constants(NORMS, c).h for c in (1.0, 2.0, 4.0)]
        assert hs[0] > hs[1] > hs[2]

    def test_h_sigma_increasing_in_cost(self):
        hs = [perturbation_constants(NORMS, c).h_sigma for c in (1.0, 2.0, 4.0)]
        assert hs[0] < hs[1] < hs[2]

    def test_rejects_cost_below_optimum(self):
        with pytest.raises(ConfigurationError):
            perturbation_constants(NORMS, 0.5, c_star=1.0)

    def test_rejects_degenerate_noise(self):
        degenerate = PlantNorms(
            n_x=1, n_u=1, norm_A=0.5, norm_B=1.0, norm_R=1.0, lam_Q=1.0,
            lam_R=1.0, lam_Sigma_w=0.0, trace_Sigma_w=0.0, norm_Sigma_w=0.0,
            norm_Sigma_0=1.0, lam_Sigma_0=1.0,
        )
        with pytest.raises(ConfigurationError):
            perturbation_constants(degenerate, 1.0)


class TestStepBounds:
    def test_npg_golden(self):
        assert npg_step_bound(NORMS, C0) == pytest.approx(3.0 / 14.0, rel=1e-12)

    def test_pgd_positive_and_below_npg(self):
        assert 0 < pgd_step_bound(NORMS, C0) < npg_step_bound(NORMS, C0)

    def test_bounds_decrease_with_cost(self):
        assert pgd_step_bound(NORMS, 1.2) > pgd_step_bound(NORMS, 2.4)
        assert npg_step_bound(NORMS, 1.2) > npg_step_bound(NORMS, 2.4)

    def test_npg_rejects_degenerate_noise(self):
        degenerate = dataclasses.replace(NORMS, lam_Sigma_w=0.0)
        with pytest.raises(ConfigurationError, match="positive-definite Sigma_w"):
            npg_step_bound(degenerate, C0)

    @pytest.mark.parametrize("c", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_bad_cost(self, c):
        for bound in (npg_step_bound, pgd_step_bound, perturbation_constants):
            with pytest.raises(ConfigurationError, match="cost value"):
                bound(NORMS, c)


class TestStateBound:
    def test_modes_ordering(self):
        paper = state_bound(1.0, 10, 4.0, 0.1, mode="paper")
        cheb = state_bound(1.0, 10, 4.0, 0.1, mode="chebyshev")
        assert paper.w_bar == pytest.approx(cheb.w_bar ** 2, rel=1e-12)
        assert paper.value > cheb.value > 1.0

    def test_single_step(self):
        sb = state_bound(2.0, 1, 1.0, 0.5, mode="paper")
        assert sb.value == pytest.approx(2.0 + 1.0 / 0.5)

    def test_long_horizon_stays_finite(self):
        # 1 - (1 - delta)^(1/t) ~ -log(1 - delta) / t, which the plain
        # power rounds to 0 past t ~ 1e16.
        for t in (10, 10**12, 10**17, 10**30):
            sb = state_bound(0.0, t, 1.0, 0.1)
            assert math.isfinite(sb.value)
            assert sb.w_bar == pytest.approx(t / -math.log1p(-0.1), rel=1e-6 + 1.0 / t)

    @pytest.mark.parametrize("cost", [2.0, 50.0])
    def test_paper3x3_report_is_finite_at_high_cost(self, cost):
        report = emit_bounds_report(paper3x3(), cost, ErrorBudget.even_split(0.4, 0.3),
                                    fmt="json")
        for cert in ("gradient", "covariance"):
            values = [*report[cert].values(), *report[cert]["intermediates"].values()]
            floats = [v for v in values if isinstance(v, float)]
            # The rounded-up sizes are ints, which are finite.
            assert len(floats) > 5 and all(math.isfinite(v) for v in floats)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            state_bound(1.0, 0, 1.0, 0.1)
        with pytest.raises(ConfigurationError):
            state_bound(1.0, 5, 1.0, 1.5)
        with pytest.raises(ConfigurationError):
            state_bound(1.0, 5, 1.0, 0.1, mode="bogus")


class TestBudgets:
    @given(st.floats(1e-3, 10.0), st.floats(1e-3, 0.99))
    @settings(max_examples=50, deadline=None)
    def test_even_split_consistency(self, eps, delta):
        b = ErrorBudget.even_split(eps, delta)
        assert b.eps == pytest.approx(eps, rel=1e-9)
        assert b.delta == pytest.approx(delta, rel=1e-9)

    @given(st.floats(1e-3, 10.0), st.floats(1e-3, 0.99))
    @settings(max_examples=50, deadline=None)
    def test_cov_even_split_consistency(self, eps, delta):
        b = CovErrorBudget.even_split(eps, delta)
        assert b.eps == pytest.approx(eps, rel=1e-9)
        assert b.delta == pytest.approx(delta, rel=1e-9)

    def test_rejects_nonpositive_components(self):
        with pytest.raises(ConfigurationError):
            ErrorBudget(eps_d=0.0, eps_l=0.1, eps_n=0.1, eps_r=0.1,
                        delta_x=0.1, delta_n=0.1, delta_d=0.1)
        with pytest.raises(ConfigurationError):
            CovErrorBudget(eps_l=0.1, eps_n=0.1, eps_r=0.1,
                           delta_x=1.0, delta_n=0.1)


class TestCovarianceCertificate:
    def test_l_min_golden(self):
        budget = CovErrorBudget(eps_l=0.1, eps_n=0.1, eps_r=0.1,
                                delta_x=0.1, delta_n=0.1)
        cert = covariance_certificate(NORMS, C0, budget, L0=3.0)
        assert cert.l_min_prime == 119
        assert cert.l_min_prime_raw == pytest.approx(118.5185185185, rel=1e-9)

    def test_tighter_budget_larger_requirements(self):
        loose = CovErrorBudget.even_split(0.6, 0.3)
        tight = CovErrorBudget.even_split(0.06, 0.3)
        c1 = covariance_certificate(NORMS, C0, loose, L0=3.0)
        c2 = covariance_certificate(NORMS, C0, tight, L0=3.0)
        assert c2.l_min_prime > c1.l_min_prime
        assert c2.n_min_prime > c1.n_min_prime


class TestGradientCertificate:
    def test_structure_and_positivity(self):
        budget = ErrorBudget.even_split(0.5, 0.2)
        cert = gradient_certificate(NORMS, C0, budget, L0=3.0)
        assert 0 < cert.r_max < perturbation_constants(NORMS, C0).h + 1e-15
        assert cert.l_min >= 1 and cert.N1 >= 1 and cert.N2 >= 1
        assert cert.l_min == math.ceil(cert.l_min_raw)
        for key in ("alpha4", "alpha5", "alpha6", "alpha7", "alpha8", "c_bar"):
            assert cert.intermediates[key] > 0

    def test_r_max_respects_radius_budget(self):
        budget = ErrorBudget.even_split(0.5, 0.2)
        pc = perturbation_constants(NORMS, C0)
        cert = gradient_certificate(NORMS, C0, budget, L0=3.0)
        assert cert.r_max <= budget.eps_r / pc.h_grad + 1e-18

    def test_explicit_gain_norm_can_bind(self):
        budget = ErrorBudget.even_split(0.5, 0.2)
        cert = gradient_certificate(NORMS, C0, budget, L0=3.0, norm_K=1e-6)
        assert cert.r_max == pytest.approx(1e-6)

    def test_chebyshev_mode_smaller_cost_bound(self):
        budget = ErrorBudget.even_split(0.5, 0.2)
        paper = gradient_certificate(NORMS, C0, budget, L0=3.0,
                                     state_bound_mode="paper")
        cheb = gradient_certificate(NORMS, C0, budget, L0=3.0,
                                    state_bound_mode="chebyshev")
        assert cheb.intermediates["c_bar"] < paper.intermediates["c_bar"]
        assert cheb.N2 <= paper.N2


class TestVrCertificate:
    def test_comparison_against_plain(self):
        budget = ErrorBudget.even_split(0.5, 0.2)
        grad = gradient_certificate(NORMS, C0, budget, L0=3.0)
        c_bar = grad.intermediates["c_bar"]
        # A baseline estimate close to the true sample-cost center shrinks
        # the concentration range, so the variance-reduced count improves.
        b_s = 0.5 * c_bar
        cert = vr_certificate(NORMS, C0, budget, b_hat=b_s, b_s_bound=b_s,
                              L0=3.0, l=grad.l_min)
        assert cert.N3 is not None and cert.N2 == grad.N2
        assert cert.vr_improves == (cert.N3_raw <= cert.N2_raw)
        assert cert.vr_improves
        assert cert.n_tilde_min is not None

    def test_rejects_negative_baseline(self):
        budget = ErrorBudget.even_split(0.5, 0.2)
        with pytest.raises(ConfigurationError):
            vr_certificate(NORMS, C0, budget, b_hat=-1.0, b_s_bound=1.0,
                           L0=3.0, l=10)


class TestRequiredAccuracies:
    def test_formulas(self):
        opt = solve_dare(S1)
        sig_star = float(np.linalg.norm(opt.Sigma_star, 2))
        pc = perturbation_constants(NORMS, C0)
        acc = required_accuracies(NORMS, C0, sig_star, eps=0.1, sigma=0.5)
        base = 0.5 * 0.1 * 1.0 * 1.0 / sig_star
        assert acc.eps_pgd == pytest.approx(base / (2 * pc.h_grad), rel=1e-12)
        assert acc.eps_pgd_alt == pytest.approx(base / (2 * pc.h_cost), rel=1e-12)
        assert acc.eps_npg_grad == pytest.approx(base / (8 * pc.h_grad), rel=1e-12)
        assert acc.eps_npg_cov == pytest.approx(
            base / (4 * pc.h_grad * math.sqrt(pc.b_grad)), rel=1e-12
        )

    def test_rejects_bad_sigma(self):
        with pytest.raises(ConfigurationError):
            required_accuracies(NORMS, C0, 1.0, eps=0.1, sigma=1.0)

    @pytest.mark.parametrize("norm_sigma_star, changes", [
        (0.0, {}), (-1.0, {}), (math.inf, {}), (math.nan, {}),
        (1.0, {"lam_R": 0.0}), (1.0, {"lam_R": -1.0}), (1.0, {"lam_Sigma_w": 0.0}),
    ])
    def test_rejects_bad_plant_scalars(self, norm_sigma_star, changes):
        norms = dataclasses.replace(NORMS, **changes)
        with pytest.raises(ConfigurationError):
            required_accuracies(norms, 4 / 3, norm_sigma_star, eps=0.1, sigma=0.5)


class TestIterationCounts:
    def test_golden_formula(self):
        # ||Sigma*||/(2 eta lam_R lam_w^2) * log((c0-c*)/eps)
        ic = iteration_counts(norm_sigma_star=2.0, lam_R=1.0, lam_Sigma_w=1.0,
                              c0=3.0, c_star=1.0, eps=0.5, eta=0.1)
        expect = 2.0 / (2 * 0.1) * math.log(2.0 / 0.5)
        assert ic.n_pgd_exact == math.ceil(expect)

    def test_model_free_inflation(self):
        exact = iteration_counts(2.0, 1.0, 1.0, 3.0, 1.0, 0.5, 0.1, sigma=0.0)
        noisy = iteration_counts(2.0, 1.0, 1.0, 3.0, 1.0, 0.5, 0.1, sigma=0.5)
        assert noisy.n_pgd_model_free >= 2 * exact.n_pgd_exact - 1

    def test_already_converged(self):
        ic = iteration_counts(2.0, 1.0, 1.0, 1.2, 1.0, 0.5, 0.1)
        assert ic.n_pgd_exact == 0

    @pytest.mark.parametrize("eta, sigma", [
        (0.0, 0.0), (-0.1, 0.0), (math.nan, 0.0),
        (0.1, 1.0), (0.1, -0.5), (0.1, 1.5), (0.1, math.nan),
    ])
    def test_rejects_bad_step_and_sigma(self, eta, sigma):
        for c0 in (3.0, 1.2):  # also when c0 is already within eps
            with pytest.raises(ConfigurationError):
                iteration_counts(2.0, 1.0, 1.0, c0, 1.0, 0.5, eta, sigma=sigma)

    @pytest.mark.parametrize("scalars", [
        (0.0, 1.0, 1.0), (-2.0, 1.0, 1.0), (math.nan, 1.0, 1.0),
        (2.0, 0.0, 1.0), (2.0, -1.0, 1.0), (2.0, 1.0, 0.0), (2.0, 1.0, math.nan),
    ])
    def test_rejects_bad_plant_scalars(self, scalars):
        for c0 in (3.0, 1.2):  # also when c0 is already within eps
            with pytest.raises(ConfigurationError):
                iteration_counts(*scalars, c0, 1.0, 0.5, 0.1)


def _sha(*outputs) -> str:
    return hashlib.sha256("\n".join(map(str, outputs)).encode()).hexdigest()


PLANTS = {"scalar_s1": scalar_s1, "paper3x3": paper3x3}

# SHA-256 of the certificate outputs. They pin every byte, so a rewrite of
# lqrpg.bounds that is meant to change no float is checked to change none.
# "C(K0)" is the cost of the detuned initial gain, the `lqrpg bounds` default.
# C(K0) and C* come from the exact layer, so a change there moves them too.
REPORT_DIGESTS = {
    ("scalar_s1", "C(K0)", False):
        "25c8a1ab088ac413cbb9c3cc9a7c0c4add8a4ddcb34ebcb5dc05353b110ff0cf",
    ("scalar_s1", "C(K0)", True):
        "99d3d13e26ab19a11aa6df07643d0376e2603b56cccbe36b1a8982c6f1c4d051",
    ("scalar_s1", 2.0, False):
        "4648f2ccb4e527ca57b612c00c1b4bd6402379f0200572f4376b151df7875727",
    ("scalar_s1", 2.0, True):
        "513d628b042ada1cee2f6e7cacf0740cb037fdfc57140468f535b1ed4f782946",
    ("paper3x3", "C(K0)", False):
        "42530d1abea44ee7aa9f08073aaefb8f3c011dc1e3a2495d8db6d9350c1acc6a",
    ("paper3x3", "C(K0)", True):
        "9184e0046f89a51b0e862efcc636d31e3476ea68d3b7b9cd986f3f1b5b1bf5a8",
    ("paper3x3", 2.0, False):
        "0040d2bb30de7375e0fce29f7114bb129a9ccbd62e548daadcddded1da0b4b6b",
    ("paper3x3", 2.0, True):
        "4ba0bba5638d35f1440c87d25eac24b96e8d6f26bd2e424488d4abf117e547aa",
}
# (b_s_bound as a multiple of the gradient certificate's c_bar, norm_K, r,
# state-bound mode); a multiple of 1 or more makes eps_v <= 0.
VR_DIGESTS = {
    (0.5, None, None, "paper"):
        "6a1daa9e4e66068d19750550af67905efcab778cb4a4fc82861a794d1cc298ac",
    (2.0, None, None, "paper"):
        "b2498701b614a8370f90b3d463e7af389a7608cbc020a111f4b28a7471589960",
    (0.5, None, None, "chebyshev"):
        "12fc86552a5134fb27fd4368c715c128afc30c65c7f26c14bd4e1bfba76f61fc",
    (0.6, 0.01, None, "chebyshev"):
        "308ee0a6d19e9c8341abc1cbd944c2702ccfb5cc1cf70cd4fd109e128d4039b8",
    (0.3, 0.05, 0.001, "paper"):
        "28c28dbeb2b1e2a54c3028c527215fffc65e6a746bd0500f6948d617f623a382",
}
ACCURACY_DIGEST = (
    "78763eed2330971df8ddc7ceb5162c4b611b390f40134388ab2abf406e8aa941")


class TestCertificateDigests:
    @pytest.mark.parametrize("name,level,with_c_star", REPORT_DIGESTS)
    def test_bounds_report(self, name, level, with_c_star):
        plant = PLANTS[name]()
        cost = level
        if level == "C(K0)":
            cost = exact_quantities(plant, detuned_initial_gain(plant)).cost
        c_star = solve_dare(plant).C_star if with_c_star else 0.0
        budget = ErrorBudget.even_split(0.4, 0.3)
        text = emit_bounds_report(plant, cost, budget, c_star=c_star)
        data = emit_bounds_report(plant, cost, budget, c_star=c_star, fmt="json")
        assert _sha(text, json.dumps(data, sort_keys=True)) == \
            REPORT_DIGESTS[name, level, with_c_star]

    @pytest.mark.parametrize("b_scale,norm_K,r,mode", VR_DIGESTS)
    def test_vr_and_covariance_certificates(self, b_scale, norm_K, r, mode):
        budget = ErrorBudget.even_split(0.5, 0.2)
        grad = gradient_certificate(NORMS, C0, budget, L0=3.0, norm_K=norm_K,
                                    state_bound_mode=mode)
        b_s = b_scale * grad.intermediates["c_bar"]
        vr = vr_certificate(NORMS, C0, budget, b_hat=0.9 * b_s, b_s_bound=b_s,
                            L0=3.0, l=grad.l_min, norm_K=norm_K, r=r,
                            state_bound_mode=mode)
        assert (vr.intermediates["eps_v"] > 0) == (b_scale < 1.0)
        cov = covariance_certificate(NORMS, C0, CovErrorBudget.even_split(0.5, 0.2),
                                     L0=3.0, norm_K=norm_K, state_bound_mode=mode)
        assert _sha(vr, cov) == VR_DIGESTS[b_scale, norm_K, r, mode]

    def test_accuracies_and_iteration_counts(self):
        outputs = []
        for name, cost in (("scalar_s1", C0), ("paper3x3", 2.0)):
            plant = PLANTS[name]()
            opt = solve_dare(plant)
            sig_star = float(np.linalg.norm(opt.Sigma_star, 2))
            norms = PlantNorms.from_plant(plant)
            for c_star in (0.0, opt.C_star):
                outputs.append(required_accuracies(norms, cost, sig_star, eps=0.1,
                                                   sigma=0.5, c_star=c_star))
        for sigma in (0.0, 0.5, 0.9):
            for c0 in (1.04, 3.0, 1e6):
                outputs.append(iteration_counts(2.0, 0.7, 0.3, c0, 1.0, 0.05,
                                                0.1, sigma=sigma))
        assert _sha(*outputs) == ACCURACY_DIGEST
