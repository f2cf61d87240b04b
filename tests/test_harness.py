import filecmp
import hashlib
import json
import os

import numpy as np
import pytest

from lqrpg import (
    ConfigurationError,
    ErrorBudget,
    SeedSpec,
    config_from_dict,
    detuned_initial_gain,
    emit_bounds_report,
    exact_quantities,
    figure_preset,
    parse_config,
    run_mb_gauss_newton,
    run_mb_npg,
    run_mb_pgd,
    run_monte_carlo,
    run_noisy_gradient_pgd,
    scalar_s1,
    solve_dare,
)
from lqrpg import optimizers
from lqrpg.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main
from conftest import assert_same_trace

BASE = {
    "plant": {"preset": "scalar_s1"},
    "optimizer": {"name": "mb_pgd", "max_iters": 20},
    "schedule": {"kind": "fixed", "eta": 0.1},
    "gain": {"preset": "zero"},
    "monte_carlo": {"repetitions": 1, "master_seed": 7},
    "output": {"dir": "out", "format": "csv"},
}


def base_config(**overrides):
    data = json.loads(json.dumps(BASE))
    for key, val in overrides.items():
        node = data
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = val
    return data


class TestConfigValidation:
    def test_valid_round_trip(self):
        cfg = config_from_dict(base_config())
        assert cfg.optimizer == "mb_pgd"
        assert cfg.stop.max_iters == 20
        assert cfg.schedule.eta == 0.1
        assert cfg.master_seed == 7
        np.testing.assert_array_equal(cfg.K0, [[0.0]])

    def test_all_violations_reported_at_once(self):
        data = base_config()
        data["bogus_top"] = 1
        data["optimizer"]["name"] = "mf_pgd"  # needs rollout
        data["optimizer"]["max_consecutive_failures"] = 5
        data["optimizer"]["cert_source"] = "offline"
        data["rollout_typo"] = {}
        data["variants"] = []
        data["from_bounds"] = {"eps": 0.5, "delta": 0.2}
        data["schedule"] = {"kind": "nope"}
        data["plant"] = {"A": [[float("inf")]], "B": [[1.0]], "Q": [[1.0]],
                         "R": [[1.0]], "Sigma_w": [[1.0]], "Sigma_0": [[1.0]]}
        data["gain"] = {"K0": [[float("nan")]]}
        with pytest.raises(ConfigurationError) as exc:
            config_from_dict(data)
        msg = str(exc.value)
        assert "bogus_top" in msg
        assert "rollout_typo" in msg
        assert "variants: unknown key" in msg
        assert "optimizer.max_consecutive_failures: unknown key" in msg
        assert "optimizer.cert_source: unknown key" in msg
        assert "from_bounds: unknown key" in msg
        assert "rollout" in msg
        assert "schedule" in msg
        assert "plant.A: entries must be finite" in msg
        assert "gain.K0: entries must be finite" in msg

    @pytest.mark.parametrize("section", ["plant", "optimizer", "schedule", "rollout",
                                         "gain", "monte_carlo", "output"])
    def test_every_section_is_strict(self, section):
        data = base_config(rollout={"n": 10, "l": 10, "r": 0.1})
        for value, expected in ((5, f"{section}: "),
                                ({**data[section], "bogus": 1},
                                 f"{section}.bogus: unknown key")):
            with pytest.raises(ConfigurationError) as exc:
                config_from_dict({**data, section: value})
            violations = str(exc.value).splitlines()[1:]
            assert len(violations) == 1 and violations[0].strip().startswith(expected)

    def test_rejects_negative_rollout_radius(self):
        data = base_config(**{"optimizer.name": "mf_pgd"})
        data["rollout"] = {"n": 10, "l": 10, "r": -0.1}
        with pytest.raises(ConfigurationError):
            config_from_dict(data)

    def test_paper_preset_expansion(self):
        cfg = config_from_dict(base_config(**{
            "plant.preset": "paper3x3", "plant.noise_cov_scale": 0.01,
            "gain.preset": "detuned_lqr",
        }))
        np.testing.assert_allclose(cfg.plant.Sigma_w, 0.01 * np.eye(3))
        np.testing.assert_allclose(
            cfg.K0, detuned_initial_gain(cfg.plant), atol=1e-12
        )
        # the detuned start is stabilizing but clearly suboptimal
        opt = solve_dare(cfg.plant)
        assert exact_quantities(cfg.plant, cfg.K0).cost > 1.5 * opt.C_star

    def test_inline_matrices(self):
        p = scalar_s1()
        cfg = config_from_dict(base_config(plant={
            "A": p.A.tolist(), "B": p.B.tolist(), "Q": p.Q.tolist(),
            "R": p.R.tolist(), "Sigma_w": p.Sigma_w.tolist(),
            "Sigma_0": p.Sigma_0.tolist(),
        }))
        np.testing.assert_array_equal(cfg.plant.A, p.A)

    def test_gain_matrix_checked_against_plant(self):
        with pytest.raises(ConfigurationError):
            config_from_dict(base_config(gain={"K0": [[0.0, 0.0]]}))

    def test_parse_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            parse_config(str(tmp_path / "nope.json"))

    def test_parse_config_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="JSON"):
            parse_config(str(path))


class TestMonteCarlo:
    def test_single_repetition_bundle(self, tmp_path):
        cfg = config_from_dict(base_config())
        bundle = run_monte_carlo(cfg, out_dir=str(tmp_path / "a"))
        assert len(bundle.run_paths) == 1
        assert os.path.exists(bundle.aggregate_path)
        manifest = json.loads(open(bundle.manifest_path).read())
        assert manifest["repetitions"] == 1
        assert manifest["terminal_reasons"] == [bundle.traces[0].terminal_reason]

    def test_same_seed_byte_identical(self, tmp_path):
        data = base_config(**{
            "optimizer.name": "noisy_pgd", "optimizer.noise_sigma": 0.1,
            "optimizer.eta": 0.05, "schedule.eta": 0.05,
            "monte_carlo.repetitions": 4,
        })
        cfg = config_from_dict(data)
        b1 = run_monte_carlo(cfg, out_dir=str(tmp_path / "a"))
        b2 = run_monte_carlo(cfg, out_dir=str(tmp_path / "b"))
        for p1, p2 in zip(b1.run_paths, b2.run_paths):
            assert filecmp.cmp(p1, p2, shallow=False)
        assert filecmp.cmp(b1.aggregate_path, b2.aggregate_path, shallow=False)

    def test_thread_count_invariance(self, tmp_path):
        data = base_config(**{
            "optimizer.name": "mf_pgd", "optimizer.max_iters": 4,
            "schedule.eta": 0.05, "monte_carlo.repetitions": 3,
        })
        data["rollout"] = {"n": 40, "l": 30, "r": 0.1}
        cfg = config_from_dict(data)
        b1 = run_monte_carlo(cfg, out_dir=str(tmp_path / "t1"), threads=1)
        b3 = run_monte_carlo(cfg, out_dir=str(tmp_path / "t3"), threads=3)
        for p1, p3 in zip(b1.run_paths, b3.run_paths):
            assert filecmp.cmp(p1, p3, shallow=False)
        assert filecmp.cmp(b1.aggregate_path, b3.aggregate_path, shallow=False)

    @pytest.mark.parametrize("name, eta, K0, noise_sigma", [
        ("mb_pgd", 0.2, -1.2, 0.0), ("mb_npg", 0.2, -1.2, 0.0),
        ("mb_gauss_newton", 0.3, -1.2, 0.0), ("noisy_pgd", 0.1, 0.0, 2.0),
    ])
    def test_lockstep_matches_public_runs(self, tmp_path, name, eta, K0, noise_sigma):
        """All repetitions of an exact-gradient variant run as one stack:
        each trace is the public run_* call for its repetition, bit for bit,
        and the files do not depend on the thread count."""
        cfg = config_from_dict(base_config(**{
            "optimizer.name": name, "optimizer.max_iters": 25,
            "optimizer.noise_sigma": noise_sigma, "schedule.eta": eta,
            "gain": {"K0": [[K0]]}, "monte_carlo.repetitions": 6,
        }))
        b1 = run_monte_carlo(cfg, out_dir=str(tmp_path / "t1"), threads=1)
        b4 = run_monte_carlo(cfg, out_dir=str(tmp_path / "t4"), threads=4)
        for p1, p4 in zip(b1.run_paths + [b1.aggregate_path],
                          b4.run_paths + [b4.aggregate_path]):
            assert filecmp.cmp(p1, p4, shallow=False)
        seeds = SeedSpec(cfg.master_seed)
        for rep, trace in enumerate(b1.traces):
            if name == "noisy_pgd":
                single = run_noisy_gradient_pgd(cfg.plant, cfg.K0, eta, noise_sigma,
                                                cfg.stop, seeds, run_id=rep)
            elif name == "mb_gauss_newton":
                single = run_mb_gauss_newton(cfg.plant, cfg.K0, eta, cfg.stop)
            else:
                run = run_mb_pgd if name == "mb_pgd" else run_mb_npg
                single = run(cfg.plant, cfg.K0, cfg.schedule, cfg.stop)
            assert_same_trace(trace, single)
        reasons = {t.terminal_reason for t in b1.traces}
        assert reasons == {"mb_gauss_newton": {"max_iters"},
                           "noisy_pgd": {"diverged", "max_iters"}}.get(
                               name, {"diverged"})

    def test_noise_free_variant_runs_once(self, tmp_path, monkeypatch):
        """fig1's sigma0.0_eta0.12 runs one stack of one gain per iteration
        and writes the files that running every repetition gave."""
        sizes = []
        stack = optimizers._exact_stack
        monkeypatch.setattr(optimizers, "_exact_stack",
                            lambda plant, Ks: sizes.append(len(Ks)) or stack(plant, Ks))
        var = next(v for v in figure_preset("fig1", repetitions=3).variants
                   if v.label == "sigma0.0_eta0.12")
        bundle = run_monte_carlo(var, out_dir=str(tmp_path))
        assert sizes and set(sizes) == {1}
        digests = [hashlib.sha256(open(p, "rb").read()).hexdigest()[:16]
                   for p in bundle.run_paths + [bundle.aggregate_path]]
        assert digests == ["29e34c985b9c20e1", "0534e0c9089aa343",
                           "2cd9b021a542e748", "e40ac4d122ee816c"]

    def test_noisy_pgd_follows_adaptive_schedule(self, tmp_path):
        """noisy_pgd takes its schedule's steps, here a / (b + c Tr P) with
        Tr P read as cost / Tr(Sigma_w), also through mb-run."""
        data = base_config(**{
            "optimizer.name": "noisy_pgd", "optimizer.noise_sigma": 0.05,
            "monte_carlo.repetitions": 2,
            "schedule": {"kind": "adaptive_empirical", "a": 0.3, "b": 1, "c": 2},
        })
        cfg = config_from_dict(data)
        bundle = run_monte_carlo(cfg, out_dir=str(tmp_path / "run"))
        tr_w = float(np.trace(cfg.plant.Sigma_w))
        for trace in bundle.traces:
            steps = [r.step for r in trace.records[:-1]]
            assert len(steps) == cfg.stop.max_iters
            assert steps == pytest.approx(
                [0.3 / (1 + 2 * r.cost / tr_w) for r in trace.records[:-1]], rel=1e-12)
            assert len(set(steps)) > 1
        path = str(tmp_path / "cfg.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        assert main(["mb-run", "--config", path, "--out", str(tmp_path / "cli")]) == EXIT_OK

    def test_repetitions_differ_from_each_other(self, tmp_path):
        data = base_config(**{
            "optimizer.name": "noisy_pgd", "optimizer.noise_sigma": 0.1,
            "optimizer.eta": 0.05, "schedule.eta": 0.05,
            "monte_carlo.repetitions": 2,
        })
        bundle = run_monte_carlo(config_from_dict(data), out_dir=str(tmp_path))
        assert not np.array_equal(bundle.traces[0].K_final,
                                  bundle.traces[1].K_final)

    def test_aggregate_matches_recomputation(self, tmp_path):
        data = base_config(**{
            "optimizer.name": "noisy_pgd", "optimizer.noise_sigma": 0.05,
            "optimizer.eta": 0.05, "schedule.eta": 0.05,
            "monte_carlo.repetitions": 3,
        })
        bundle = run_monte_carlo(config_from_dict(data), out_dir=str(tmp_path))
        rows = list(open(bundle.aggregate_path))
        header, first = rows[0].strip().split(","), rows[1].strip().split(",")
        assert header == ["iteration", "mean_rel_subopt", "min_rel_subopt",
                          "max_rel_subopt", "diverged_count"]
        expected = np.mean([t.records[0].rel_subopt for t in bundle.traces])
        assert float(first[1]) == pytest.approx(expected, rel=1e-12)

    def test_json_format(self, tmp_path):
        cfg = config_from_dict(base_config(**{"output.format": "json"}))
        bundle = run_monte_carlo(cfg, out_dir=str(tmp_path))
        payload = json.loads(open(bundle.run_paths[0]).read())
        assert payload["records"][0]["iteration"] == 0
        assert payload["terminal_reason"] == bundle.traces[0].terminal_reason


class TestFigurePresets:
    def test_fig1_grid(self):
        cfg = figure_preset("fig1", repetitions=2)
        assert len(cfg.variants) == 6
        sigmas = {v.noise_sigma for v in cfg.variants}
        etas = {v.schedule.eta for v in cfg.variants}
        assert sigmas == {0.0, 0.03, 0.6}
        assert etas == {0.12, 0.01}
        assert all(v.optimizer == "noisy_pgd" for v in cfg.variants)

    def test_fig2_grid(self):
        cfg = figure_preset("fig2", repetitions=2)
        assert len(cfg.variants) == 3
        for v in cfg.variants:
            assert v.optimizer == "mf_pgd"
            assert (v.rollout.n, v.rollout.l, v.rollout.r) == (1000, 100, 0.04)
        assert {v.schedule.eta for v in cfg.variants} == {40.0, 6.0, 0.3}

    def test_fig3_grid(self):
        cfg = figure_preset("fig3", repetitions=2)
        assert len(cfg.variants) == 4
        assert sum(v.use_vr for v in cfg.variants) == 2
        assert all(v.n_v == 200 for v in cfg.variants)
        assert len({v.schedule.eta for v in cfg.variants}) == 1

    def test_fig4_grid(self):
        cfg = figure_preset("fig4", repetitions=2)
        assert len(cfg.variants) == 6
        adaptive = [v for v in cfg.variants if v.schedule.kind == "adaptive_empirical"]
        assert len(adaptive) == 3
        for v in adaptive:
            assert (v.schedule.a, v.schedule.b, v.schedule.c) == (0.09, 1, 2)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            figure_preset("fig9")

    def test_variant_bundle_layout(self, tmp_path):
        cfg = figure_preset("fig2", repetitions=1)
        # shrink to a smoke test: one variant, few iterations
        small = cfg.variants[2]
        object.__setattr__(cfg, "variants", (small,))
        object.__setattr__(small.stop, "max_iters", 3)
        bundle = run_monte_carlo(cfg, out_dir=str(tmp_path), threads=1)
        assert len(bundle.sub_bundles) == 1
        sub = bundle.sub_bundles[0]
        assert sub.out_dir == os.path.join(str(tmp_path), small.label)
        assert os.path.exists(sub.aggregate_path)


class TestBoundsReport:
    def test_text_report_stable_and_contains_l_min(self):
        budget = ErrorBudget.even_split(0.4, 0.3)
        r1 = emit_bounds_report(scalar_s1(), 4.0 / 3.0, budget)
        r2 = emit_bounds_report(scalar_s1(), 4.0 / 3.0, budget)
        assert r1 == r2
        assert "l_min = 119" in r1
        assert "h = 0.09375" in r1

    def test_json_report_round_trips(self):
        budget = ErrorBudget.even_split(0.4, 0.3)
        rep = emit_bounds_report(scalar_s1(), 4.0 / 3.0, budget, fmt="json")
        again = json.loads(json.dumps(rep))
        assert again["covariance"]["l_min_prime"] == 119
        assert again["h"] == pytest.approx(0.09375)


class TestCli:
    def write(self, tmp_path, data, name="cfg.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_validate_ok(self, tmp_path, capsys):
        path = self.write(tmp_path, base_config())
        assert main(["validate", path]) == EXIT_OK
        assert "config OK" in capsys.readouterr().out

    def test_validate_bad_config(self, tmp_path, capsys):
        path = self.write(tmp_path, {"optimizer": {"name": "nope"}})
        assert main(["validate", path]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_exact_rejects_nan_gain(self, tmp_path, capsys):
        data = base_config()
        data["gain"] = {"K0": [[float("nan")]]}
        path = self.write(tmp_path, data)
        assert main(["exact", "--config", path]) == EXIT_CONFIG
        assert "gain.K0: entries must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command, overrides, message", [
        ("exact", {"gain": {"preset": "detuned_lqr", "q_scale": "abc"}},
         "gain.q_scale: must be a finite positive number"),
        ("exact", {"gain": {"preset": "detuned_lqr", "q_scale": float("inf")}},
         "gain.q_scale: must be a finite positive number"),
        ("mb-run", {"optimizer.name": "noisy_pgd", "optimizer.noise_sigma": 0.1,
                    "monte_carlo.master_seed": -1},
         "monte_carlo.master_seed: must be an integer >= 0"),
        ("validate", {"optimizer.use_vr": "false"},
         "optimizer.use_vr: must be true or false"),
        ("validate", {"optimizer.n_v": "abc"}, "optimizer.n_v: must be an integer >= 1"),
        ("validate", {"optimizer.n_v": 0}, "optimizer.n_v: must be an integer >= 1"),
        ("validate", {"optimizer.noise_sigma": "abc"},
         "optimizer.noise_sigma: must be a finite number >= 0"),
        ("validate", {"optimizer.noise_sigma": -1},
         "optimizer.noise_sigma: must be a finite number >= 0"),
        ("validate", {"optimizer.max_iters": 2.5},
         "optimizer.max_iters: must be an integer >= 1"),
        ("validate", {"rollout": {"n": 10.7, "l": 10, "r": 0.1}},
         "rollout.n: must be an integer >= 1"),
        ("validate", {"optimizer.grad_tol": "abc"},
         "optimizer.grad_tol: must be a finite number >= 0"),
        ("validate", {"optimizer.rel_subopt_tol": float("nan")},
         "optimizer.rel_subopt_tol: must be a finite number >= 0"),
        ("validate", {"plant.preset": "paper3x3", "plant.noise_cov_scale": "x"},
         "plant.noise_cov_scale: must be a finite number >= 0"),
        ("validate", {"plant.preset": "paper3x3", "plant.sigma0_scale": "x"},
         "plant.sigma0_scale: must be a finite number >= 0"),
        ("validate", {"plant.sigma0_scale": 0.5},
         "plant.sigma0_scale: not used by preset 'scalar_s1'"),
        ("validate", {"plant": {"A": [[0.5]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]],
                                "Sigma_w": [[1.0]], "Sigma_0": [[1.0]],
                                "noise_cov_scale": 2.0}},
         "plant.noise_cov_scale: only used with a preset"),
        # Without a plant the rollout's default L0 is unknown; only the
        # plant's violation is reported.
        ("validate", {"plant.preset": "paper3x3", "plant.noise_cov_scale": -1,
                      "rollout": {"n": 10, "l": 10, "r": 0.1}},
         "plant.noise_cov_scale: must be a finite number >= 0"),
        ("validate", {"schedule.eta": "abc"},
         "schedule.eta: must be a finite number >= 0, got 'abc'"),
        ("validate", {"schedule.eta": float("inf")},
         "schedule.eta: must be a finite number >= 0, got inf"),
        ("validate", {"schedule": {"kind": "adaptive_empirical", "a": 0.1,
                                   "b": float("nan"), "c": 1}},
         "schedule.b: must be a finite number >= 0, got nan"),
        ("validate", {"monte_carlo.repetitions": 2.7},
         "monte_carlo.repetitions: must be an integer >= 1, got 2.7"),
        ("validate", {"monte_carlo.repetitions": True},
         "monte_carlo.repetitions: must be an integer >= 1, got True"),
        ("validate", {"monte_carlo.master_seed": 1.9},
         "monte_carlo.master_seed: must be an integer >= 0, got 1.9"),
        ("validate", {"gain": {"preset": "zero", "bogus": 1}}, "gain.bogus: unknown key"),
        ("validate", {"gain": {"preset": "optimal", "K0": [[1.0]]}},
         "gain.K0: not used with a preset"),
        ("validate", {"gain": {"preset": "zero", "q_scale": 3.0}},
         "gain.q_scale: only used with preset 'detuned_lqr'"),
        ("validate", {"optimizer.eta": 0.2},
         "optimizer.eta: 0.2 disagrees with schedule.eta 0.1, which sets the step"),
        ("validate", {"optimizer.eta": 0.2, "schedule": {
            "kind": "adaptive_empirical", "a": 0.1, "b": 1, "c": 1}},
         "optimizer.eta: 0.2 disagrees with schedule.eta None"),
        ("mb-run", {"optimizer.noise_sigma": 0.5},
         "optimizer.noise_sigma: only used by noisy_pgd, not 'mb_pgd'"),
        ("validate", {"optimizer.name": "mb_gauss_newton", "schedule.eta": 0.3,
                      "optimizer.noise_sigma": 0.5},
         "optimizer.noise_sigma: only used by noisy_pgd, not 'mb_gauss_newton'"),
        ("validate", {"optimizer.use_vr": True},
         "optimizer.use_vr: only used by mf_pgd, not 'mb_pgd'"),
        ("validate", {"optimizer.name": "mf_npg", "optimizer.use_vr": True,
                      "rollout": {"n": 10, "l": 10, "r": 0.1}},
         "optimizer.use_vr: only used by mf_pgd, not 'mf_npg'"),
        ("validate", {"optimizer.name": "mb_gauss_newton", "schedule": {
            "kind": "adaptive_empirical", "a": 0.1, "b": 1, "c": 1}},
         "schedule: Gauss-Newton requires a fixed step 0 < eta <= 1/2, "
         "got adaptive_empirical eta=None"),
        ("validate", {"optimizer.name": "mb_gauss_newton", "schedule": {
            "kind": "adaptive_empirical", "eta": 0.3, "a": 0.1, "b": 1, "c": 1}},
         "schedule: Gauss-Newton requires a fixed step 0 < eta <= 1/2, "
         "got adaptive_empirical eta=0.3"),
        ("validate", {"optimizer.name": "mb_gauss_newton", "schedule.eta": 0.7},
         "schedule: Gauss-Newton requires a fixed step 0 < eta <= 1/2, "
         "got fixed eta=0.7"),
        ("validate", {"schedule": {"kind": "fixed", "eta": 0.1, "a": 1}},
         "schedule.a: not used by schedule kind 'fixed'"),
        ("validate", {"schedule": {"kind": "adaptive_empirical", "eta": 0.1,
                                   "a": 0.1, "b": 1, "c": 1}},
         "schedule.eta: not used by schedule kind 'adaptive_empirical'"),
        ("validate", {"schedule": {"kind": "adaptive_certified", "c": 1}},
         "schedule.c: not used by schedule kind 'adaptive_certified'"),
        ("mb-run", {"optimizer.name": "mb_npg", "plant.noise_cov_scale": 0,
                    "schedule": {"kind": "adaptive_certified"}},
         "schedule.kind: adaptive_certified needs a plant with a positive-definite Sigma_w"),
        ("validate", {"plant": {"A": [[0.5, 0], [0, 0.5]], "B": [[1.0], [0]],
                                "Q": [[1.0, 0], [0, 1]], "R": [[1.0]],
                                "Sigma_w": [[1.0, 0], [0, 0]], "Sigma_0": [[1.0, 0], [0, 1]]},
                      "schedule": {"kind": "adaptive_certified"}},
         "schedule.kind: adaptive_certified needs a plant with a positive-definite Sigma_w"),
        ("mb-run", {"plant.noise_cov_scale": 0,
                    "schedule": {"kind": "adaptive_empirical", "a": 0.1, "b": 1, "c": 1}},
         "schedule.kind: adaptive_empirical needs a plant with Tr(Sigma_w) > 0"),
    ], ids=["q_scale_text", "q_scale_infinite", "negative_seed", "use_vr_text",
            "n_v_text", "n_v_zero", "noise_sigma_text", "noise_sigma_negative",
            "max_iters_fraction", "rollout_n_fraction",
            "grad_tol_text", "rel_subopt_tol_nan", "noise_cov_scale_text",
            "sigma0_scale_text", "sigma0_scale_scalar_s1", "scale_inline_matrices",
            "plant_without_L0", "eta_text", "eta_infinite", "b_nan",
            "repetitions_fraction", "repetitions_bool", "master_seed_fraction",
            "gain_unknown_key", "gain_preset_and_K0", "q_scale_without_detuned",
            "eta_disagrees", "eta_with_adaptive_schedule", "noise_sigma_mb_pgd",
            "noise_sigma_gauss_newton", "use_vr_mb_pgd", "use_vr_mf_npg",
            "gauss_newton_adaptive", "gauss_newton_adaptive_with_eta",
            "gauss_newton_eta_too_large", "fixed_with_a", "empirical_with_eta",
            "certified_with_c", "certified_noise_free", "certified_singular_noise",
            "empirical_noise_free"])
    def test_located_value_errors(self, tmp_path, capsys, command, overrides, message):
        path = self.write(tmp_path, base_config(**overrides))
        argv = {"validate": ["validate", path],
                "mb-run": ["mb-run", "--config", path, "--out", str(tmp_path / "out")],
                }.get(command, [command, "--config", path])
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err
        # The header line and this one violation, nothing else.
        assert len(err.strip().splitlines()) == 2

    def test_adaptive_empirical_takes_singular_noise(self):
        data = base_config(schedule={"kind": "adaptive_empirical", "a": 0.1, "b": 1, "c": 1})
        data["plant"] = {"A": [[0.5, 0], [0, 0.5]], "B": [[1.0], [0]], "Q": [[1.0, 0], [0, 1]],
                         "R": [[1.0]], "Sigma_w": [[1.0, 0], [0, 0]],
                         "Sigma_0": [[1.0, 0], [0, 1]]}
        assert config_from_dict(data).schedule.kind == "adaptive_empirical"

    def test_exact_prints_quantities(self, tmp_path, capsys):
        path = self.write(tmp_path, base_config())
        assert main(["exact", "--config", path, "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["C_star"] == pytest.approx(1.132782218537283)

    def test_mb_run_writes_outputs(self, tmp_path, capsys):
        path = self.write(tmp_path, base_config())
        out = str(tmp_path / "out")
        assert main(["mb-run", "--config", path, "--out", out]) == EXIT_OK
        assert os.path.exists(os.path.join(out, "run_0000.csv"))

    def test_mb_run_rejects_mf_config(self, tmp_path):
        data = base_config(**{"optimizer.name": "mf_pgd"})
        data["rollout"] = {"n": 10, "l": 10, "r": 0.1}
        path = self.write(tmp_path, data)
        assert main(["mb-run", "--config", path]) == EXIT_CONFIG

    def test_seed_override_changes_runs(self, tmp_path):
        data = base_config(**{
            "optimizer.name": "noisy_pgd", "optimizer.noise_sigma": 0.1,
            "optimizer.eta": 0.05, "schedule.eta": 0.05,
        })
        path = self.write(tmp_path, data)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["mb-run", "--config", path, "--out", a, "--seed", "1"]) == EXIT_OK
        assert main(["mb-run", "--config", path, "--out", b, "--seed", "2"]) == EXIT_OK
        pa, pb = os.path.join(a, "run_0000.csv"), os.path.join(b, "run_0000.csv")
        assert open(pa).read() != open(pb).read()

    def test_overrides_validate_once(self, tmp_path, monkeypatch):
        import lqrpg.cli
        import lqrpg.harness

        calls = []

        def counting(data):
            calls.append(data)
            return config_from_dict(data)

        monkeypatch.setattr(lqrpg.harness, "config_from_dict", counting)
        monkeypatch.setattr(lqrpg.cli, "config_from_dict", counting)
        path = self.write(tmp_path, base_config())
        out = str(tmp_path / "out")
        assert main(["mb-run", "--config", path, "--out", out,
                     "--seed", "3", "--repetitions", "2"]) == EXIT_OK
        assert len(calls) == 1
        assert calls[0]["monte_carlo"] == {"repetitions": 2, "master_seed": 3}
        assert calls[0]["output"] == {"dir": out, "format": "csv"}

    def test_estimate_reports_error(self, tmp_path, capsys):
        data = base_config(**{"optimizer.name": "mf_pgd"})
        data["rollout"] = {"n": 50, "l": 50, "r": 0.1}
        path = self.write(tmp_path, data)
        assert main(["estimate", "--config", path]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert "grad_error_fro" in payload and not payload["failed"]

    def test_bounds_exit_and_content(self, tmp_path, capsys):
        path = self.write(tmp_path, base_config())
        assert main(["bounds", "--config", path, "--cost",
                     str(4.0 / 3.0)]) == EXIT_OK
        assert "l_min = 119" in capsys.readouterr().out

    @pytest.mark.parametrize("cost, code", [
        ("inf", EXIT_CONFIG), ("nan", EXIT_CONFIG), ("1e200", EXIT_NUMERIC),
        ("1e100", EXIT_NUMERIC),
    ])
    def test_bounds_extreme_cost_exit_codes(self, tmp_path, capsys, cost, code):
        # A non-finite cost is a bad input; a finite one whose certificate
        # overflows or divides by zero is a numeric failure, not a traceback.
        path = self.write(tmp_path, base_config())
        assert main(["bounds", "--config", path, "--cost", cost]) == code
        prefix = "config error" if code == EXIT_CONFIG else "numeric error"
        assert capsys.readouterr().err.startswith(prefix)

    @pytest.mark.parametrize("command", [["mf-run", "--config", "cfg.json"],
                                         ["figure", "fig1"]])
    @pytest.mark.parametrize("threads", ["abc", "0", "-1", "1.5", ""])
    def test_threads_flag_rejects_bad_values(self, capsys, command, threads):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--threads", threads])
        assert exc.value.code == EXIT_CONFIG
        assert "argument --threads: expected 'auto' or an integer >= 1" in \
            capsys.readouterr().err

    def test_threads_flag_values(self):
        from lqrpg.cli import _build_parser

        parse = _build_parser().parse_args
        assert parse(["figure", "fig1"]).threads == 1
        assert parse(["figure", "fig1", "--threads", "auto"]).threads == "auto"
        assert parse(["mb-run", "--config", "c", "--threads", "12"]).threads == 12

    def test_numeric_error_exit_code(self, tmp_path, capsys):
        # destabilizing K0 surfaces as a config error; a diverging estimate
        # inside `estimate` surfaces as numeric
        data = base_config(**{"optimizer.name": "mf_pgd"})
        data["gain"] = {"K0": [[0.49]]}  # stable (a+bk = 0.99) but fragile
        data["rollout"] = {"n": 3, "l": 2000, "r": 3.0, "L0": 3.0}
        path = self.write(tmp_path, data)
        assert main(["estimate", "--config", path]) == EXIT_NUMERIC
        assert "failed" in capsys.readouterr().err

    def test_io_error_exit_code(self, tmp_path):
        path = self.write(tmp_path, base_config())
        blocker = tmp_path / "blocked"
        blocker.write_text("")  # a file where the out dir should go
        assert main(["mb-run", "--config", path,
                     "--out", str(blocker)]) == EXIT_IO

    def test_figure_smoke(self, tmp_path, capsys):
        out = str(tmp_path / "fig")
        assert main(["figure", "fig1", "--repetitions", "2",
                     "--out", out, "--threads", "2"]) == EXIT_OK
        assert os.path.isdir(out)
        assert "run file(s)" in capsys.readouterr().out
