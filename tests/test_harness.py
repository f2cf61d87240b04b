import filecmp
import json
import os

import numpy as np
import pytest

from lqrpg import (
    ConfigurationError,
    ErrorBudget,
    config_from_dict,
    detuned_initial_gain,
    emit_bounds_report,
    exact_quantities,
    figure_preset,
    parse_config,
    run_monte_carlo,
    scalar_s1,
    solve_dare,
)
from lqrpg.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main

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
        data["optimizer"]["name"] = "mf_pgd"  # needs rollout/from_bounds
        data["rollout_typo"] = {}
        data["variants"] = []
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
        assert "rollout" in msg
        assert "schedule" in msg
        assert "plant.A: entries must be finite" in msg
        assert "gain.K0: entries must be finite" in msg

    def test_rejects_both_rollout_and_from_bounds(self):
        data = base_config(**{"optimizer.name": "mf_pgd"})
        data["rollout"] = {"n": 10, "l": 10, "r": 0.1}
        data["from_bounds"] = {"eps": 0.5, "delta": 0.2}
        with pytest.raises(ConfigurationError, match="exactly one"):
            config_from_dict(data)

    def test_rejects_negative_rollout_radius(self):
        data = base_config(**{"optimizer.name": "mf_pgd"})
        data["rollout"] = {"n": 10, "l": 10, "r": -0.1}
        with pytest.raises(ConfigurationError):
            config_from_dict(data)

    def test_from_bounds_builds_budgets(self):
        data = base_config(**{"optimizer.name": "mf_pgd"})
        data["from_bounds"] = {"eps": 0.5, "delta": 0.2}
        cfg = config_from_dict(data)
        assert cfg.budget is not None and cfg.cov_budget is not None
        assert cfg.budget.eps == pytest.approx(0.5)
        assert cfg.budget.delta == pytest.approx(0.2)

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
         "monte_carlo.master_seed: must be >= 0"),
    ], ids=["q_scale_text", "q_scale_infinite", "negative_seed"])
    def test_located_value_errors(self, tmp_path, capsys, command, overrides, message):
        path = self.write(tmp_path, base_config(**overrides))
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]
                    if command == "mb-run" else [command, "--config", path]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

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
