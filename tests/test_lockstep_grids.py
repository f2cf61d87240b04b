"""A grid's variants run in lockstep and share their draws.

Repetition rep of every model-free variant of a grid is one lockstep stack,
across plants and iteration caps, which makes one ``_Estimated.evaluate``
call per iteration; each of these estimates every group of live variants
whose draws coincide with one estimator-core call, which draws each of the
group's random numbers once. Every run of the exact-gradient variants on one
plant instance is a member of one lockstep stack, and noisy variants of one
master seed draw each repetition's noise once. The grid's files must equal
those of per-variant ``run_monte_carlo`` calls (stacks of one, which estimate
alone) byte for byte, at any thread count; the mixed model-free grid's files
and the number of draws a grid makes are pinned, and no draw may be reused
across calls.
"""
import filecmp
import hashlib
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from lqrpg import (ConfigurationError, Purpose, SeedSpec, config_from_dict,
                   figure_preset, run_monte_carlo)
from lqrpg import optimizers
from lqrpg.harness import detuned_initial_gain
from lqrpg.sim import _color_step


def small_preset(name: str):
    """The preset at 2 repetitions and master seed 0, 3 iterations per variant."""
    cfg = figure_preset(name, repetitions=2, master_seed=0)
    return replace(cfg, variants=tuple(
        replace(v, stop=replace(v.stop, max_iters=3)) for v in cfg.variants))


@pytest.fixture
def draw_calls(monkeypatch):
    """The (run_id, ids, purpose, shape) of every ``SeedSpec.draw`` call."""
    calls = []
    draw = SeedSpec.draw

    def counting(self, run_id, rollout_ids, purpose, shape):
        calls.append((run_id, rollout_ids, purpose, tuple(shape)))
        return draw(self, run_id, rollout_ids, purpose, shape)

    monkeypatch.setattr(SeedSpec, "draw", counting)
    return calls


@pytest.fixture
def stack_calls(monkeypatch):
    """The number of gains of every ``_exact_stack`` call of the optimizers."""
    calls = []
    exact_stack = optimizers._exact_stack

    def counting(plant, Ks):
        calls.append(len(Ks))
        return exact_stack(plant, Ks)

    monkeypatch.setattr(optimizers, "_exact_stack", counting)
    return calls


def assert_same_files(single, grid, cfg, repetitions):
    for var in cfg.variants:
        files = [f"run_{rep:04d}.csv" for rep in range(repetitions)] + ["aggregate.csv"]
        match, mismatch, errors = filecmp.cmpfiles(
            single / var.label, grid / var.label, files, shallow=False)
        assert (mismatch, errors) == ([], []), (grid.name, var.label)


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4"])
def test_grid_matches_per_variant_runs(tmp_path, name):
    cfg = small_preset(name)
    for var in cfg.variants:
        run_monte_carlo(var, out_dir=str(tmp_path / "single" / var.label))
    for threads in (1, 3):
        run_monte_carlo(cfg, out_dir=str(tmp_path / f"t{threads}"), threads=threads)
        assert_same_files(tmp_path / "single", tmp_path / f"t{threads}", cfg, 2)


def mixed_exact_grid():
    """Every exact-gradient optimizer on one paper3x3 instance from its
    detuned gain, at 3 repetitions and different iteration caps; the noisy
    variant at sigma 2 diverges in some repetitions and not in others."""
    base = {"plant": {"preset": "paper3x3", "noise_cov_scale": 0.5},
            "gain": {"preset": "zero"}, "monte_carlo": {"repetitions": 3, "master_seed": 4}}
    fixed = {"kind": "fixed", "eta": 0.05}
    variants = {
        "pgd_fixed": ({"name": "mb_pgd", "max_iters": 6}, fixed),
        "pgd_certified": ({"name": "mb_pgd", "max_iters": 5}, {"kind": "adaptive_certified"}),
        "npg": ({"name": "mb_npg", "max_iters": 4}, fixed),
        "gauss_newton": ({"name": "mb_gauss_newton", "max_iters": 3},
                         {"kind": "fixed", "eta": 0.5}),
        "noisy_small": ({"name": "noisy_pgd", "max_iters": 8, "noise_sigma": 0.05},
                        {"kind": "fixed", "eta": 0.1}),
        "noisy_large": ({"name": "noisy_pgd", "max_iters": 5, "noise_sigma": 2.0},
                        {"kind": "fixed", "eta": 0.1}),
    }
    cfgs = [config_from_dict({**base, "label": label, "optimizer": opt, "schedule": sched})
            for label, (opt, sched) in variants.items()]
    plant = cfgs[0].plant
    K0 = detuned_initial_gain(plant)
    cfgs = [replace(c, plant=plant, K0=K0) for c in cfgs]
    return replace(cfgs[0], label="mixed", variants=tuple(cfgs))


def test_mixed_exact_grid_is_one_stack_and_matches_per_variant_runs(tmp_path,
                                                                      stack_calls):
    cfg = mixed_exact_grid()
    for var in cfg.variants:
        run_monte_carlo(var, out_dir=str(tmp_path / "single" / var.label))
    stack_calls.clear()
    bundle = run_monte_carlo(cfg, out_dir=str(tmp_path / "grid"))
    # One stack, evaluated up to the longest cap (8) and once more.
    assert len(stack_calls) == 9
    assert_same_files(tmp_path / "single", tmp_path / "grid", cfg, 3)
    reasons = {sub.label: {t.terminal_reason for t in sub.traces}
               for sub in bundle.sub_bundles}
    assert reasons["noisy_large"] == {"diverged", "max_iters"}
    assert all(r == {"max_iters"} for label, r in reasons.items()
               if label != "noisy_large")


def mixed_model_free_grid():
    """Every model-free optimizer on paper3x3 at two noise levels, from each
    plant's detuned gain, at 3 repetitions and different iteration caps, so
    different run-id offsets: mf_pgd plain and variance-reduced, mf_npg at a
    fixed and at the empirical adaptive step. One plain variant diverges, at
    different iterations across repetitions; another steps to a gain whose
    rollouts overflow, and ends after too many failed estimates."""
    base = {"gain": {"preset": "zero"}, "rollout": {"n": 40, "l": 20, "r": 0.04},
            "monte_carlo": {"repetitions": 3, "master_seed": 2}}
    low, high = ({"preset": "paper3x3", "noise_cov_scale": s, "sigma0_scale": s}
                 for s in (1e-2, 1.0))
    fixed = {"kind": "fixed", "eta": 0.3}
    variants = {
        "pgd_plain": (low, {"name": "mf_pgd", "max_iters": 5}, fixed),
        "pgd_vr": (low, {"name": "mf_pgd", "max_iters": 4, "use_vr": True, "n_v": 3},
                   fixed),
        "pgd_diverges": (high, {"name": "mf_pgd", "max_iters": 6},
                         {"kind": "fixed", "eta": 0.03}),
        "pgd_fails": (low, {"name": "mf_pgd", "max_iters": 7},
                      {"kind": "fixed", "eta": 1e20}),
        "npg_fixed": (low, {"name": "mf_npg", "max_iters": 3},
                      {"kind": "fixed", "eta": 0.02}),
        "npg_adaptive": (high, {"name": "mf_npg", "max_iters": 5},
                         {"kind": "adaptive_empirical", "a": 0.03, "b": 1, "c": 2}),
    }
    cfgs, plants = [], {}
    for label, (plant, opt, sched) in variants.items():
        cfg = config_from_dict({**base, "label": label, "plant": plant,
                                "optimizer": opt, "schedule": sched})
        scale = plant["noise_cov_scale"]
        if scale not in plants:
            plants[scale] = (cfg.plant, detuned_initial_gain(cfg.plant))
        cfgs.append(replace(cfg, plant=plants[scale][0], K0=plants[scale][1]))
    return replace(cfgs[0], label="mixed", variants=tuple(cfgs))


# Per variant of the mixed model-free grid: the SHA-256 prefix of its
# aggregate, then of its run files.
MIXED_MODEL_FREE_DIGESTS = {
    "pgd_plain": ("7a124df6fcf039c5",
                  ["19a5a54a70c01dc8", "eac0c6404ae40a28", "c7d721f094a16939"]),
    "pgd_vr": ("bebdca5dede2a6c7",
               ["eaacaac8c4af24b9", "c553c6ca2c1b02ec", "cbc4d6ecb2dcf6f3"]),
    "pgd_diverges": ("75d568a0d4ebd372",
                     ["6395ee2795a7b568", "a5c7ea1427bc9eca", "142c6e8d6529e35c"]),
    "pgd_fails": ("1c7ef4d9f69c5a54",
                  ["499136679a932a48", "f338d233807d1f65", "f6af1e0c6335d7e5"]),
    "npg_fixed": ("2742b6a23dcf3b05",
                  ["601cd443b8d4bb8b", "5436d0114198c9f7", "1800313b35efa955"]),
    "npg_adaptive": ("531eb68ffd574a4b",
                     ["f2ae3f8681ddd2f1", "9a831edb1a1e4ac9", "35089deb78be3b4f"]),
}
# The ``SeedSpec.draw`` calls of one pass of the mixed model-free grid.
MIXED_MODEL_FREE_DRAWS = 216


def digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def test_mixed_model_free_grid_matches_per_variant_runs_and_digests(tmp_path,
                                                                   draw_calls):
    cfg = mixed_model_free_grid()
    for var in cfg.variants:
        run_monte_carlo(var, out_dir=str(tmp_path / "single" / var.label))
    for threads in (1, 2):
        draw_calls.clear()
        bundle = run_monte_carlo(cfg, out_dir=str(tmp_path / f"t{threads}"),
                                 threads=threads)
        assert_same_files(tmp_path / "single", tmp_path / f"t{threads}", cfg, 3)
        if threads == 1:  # a worker's draws are not counted here
            assert len(draw_calls) == MIXED_MODEL_FREE_DRAWS
    for label, (aggregate, runs) in MIXED_MODEL_FREE_DIGESTS.items():
        paths = sorted((tmp_path / "t1" / label).glob("run_*.csv"))
        assert [digest(p) for p in paths] == runs, label
        assert digest(tmp_path / "t1" / label / "aggregate.csv") == aggregate, label
    reasons = {sub.label: {t.terminal_reason for t in sub.traces}
               for sub in bundle.sub_bundles}
    assert reasons.pop("pgd_diverges") == {"diverged"}
    assert reasons.pop("pgd_fails") == {"too_many_failures"}
    assert all(r == {"max_iters"} for r in reasons.values())


@pytest.fixture
def evaluate_calls(monkeypatch):
    """The number of live runs of every ``_Estimated.evaluate`` call."""
    calls = []
    evaluate = optimizers._Estimated.evaluate

    def counting(self, live, Ks, i):
        calls.append(len(live))
        return evaluate(self, live, Ks, i)

    monkeypatch.setattr(optimizers._Estimated, "evaluate", counting)
    return calls


def test_mixed_model_free_grid_evaluates_one_stack_per_repetition(tmp_path,
                                                                  evaluate_calls):
    bundle = run_monte_carlo(mixed_model_free_grid(), out_dir=str(tmp_path), threads=1)
    # Per repetition, one call per iteration with every run that records it.
    expected = []
    for rep in range(3):
        lengths = [len(sub.traces[rep].records) for sub in bundle.sub_bundles]
        expected += [sum(n > i for n in lengths) for i in range(max(lengths))]
    assert evaluate_calls == expected
    assert len(evaluate_calls) == 3 * 6  # pgd_fails, the longest, ends after 6


@pytest.fixture
def core_calls(monkeypatch):
    """The number of members of every estimator-core call of the optimizers."""
    calls = []
    estimate = optimizers._estimate

    def counting(members, *args, **kwargs):
        calls.append(len(members))
        return estimate(members, *args, **kwargs)

    monkeypatch.setattr(optimizers, "_estimate", counting)
    return calls


def test_fig2_grid_estimates_each_iteration_as_one_group(tmp_path, core_calls,
                                                          evaluate_calls):
    """fig2's variants share their master seed, shapes, (n, l, r) and run ids,
    across two plants: one estimator-core call per iteration per repetition."""
    run_monte_carlo(small_preset("fig2"), out_dir=str(tmp_path), threads=1)
    assert core_calls == evaluate_calls == [3] * (2 * 3)


# The ``SeedSpec.draw`` calls of one pass of each small model-free preset.
PRESET_DRAWS = {"fig2": 36, "fig3": 180, "fig4": 36}


@pytest.mark.parametrize("name", sorted(PRESET_DRAWS))
def test_model_free_preset_draw_counts(tmp_path, draw_calls, name):
    run_monte_carlo(small_preset(name), out_dir=str(tmp_path), threads=1)
    assert len(draw_calls) == PRESET_DRAWS[name]


def test_fig1_grid_makes_one_stack_and_one_noise_draw_per_repetition(
        tmp_path, draw_calls, stack_calls):
    cfg = small_preset("fig1")
    run_monte_carlo(cfg, out_dir=str(tmp_path), threads=1)
    assert len(stack_calls) <= 4
    noise = [(run_id, ids) for run_id, ids, purpose, _ in draw_calls
             if purpose == Purpose.PERTURBATION]
    assert sorted(noise) == [(0, range(3)), (1, range(3))]


def test_unstable_gain_of_one_variant_aborts_the_grid(tmp_path):
    cfg = small_preset("fig1")
    variants = list(cfg.variants)
    variants[3] = replace(variants[3], K0=np.full_like(variants[3].K0, 10.0))
    with pytest.raises(ConfigurationError, match="K0 is not stabilizing"):
        run_monte_carlo(replace(cfg, variants=tuple(variants)),
                        out_dir=str(tmp_path / "out"))
    assert not os.path.exists(tmp_path / "out")


def test_no_draw_is_reused_across_grid_calls(tmp_path, draw_calls):
    cfg = small_preset("fig2")
    counts = []
    for k in range(2):
        run_monte_carlo(cfg, out_dir=str(tmp_path / str(k)), threads=1)
        counts.append(len(draw_calls))
        draw_calls.clear()
    for var in cfg.variants:
        run_monte_carlo(var, out_dir=str(tmp_path / "single" / var.label))
    assert counts[0] == counts[1] < len(draw_calls)


def test_stack_of_one_draws_as_before(tmp_path, draw_calls):
    """A single model-free config draws, per estimate, its perturbations, its
    initial states and its noise a coloring pass at a time, as it did before
    grids shared their draws."""
    data = {
        "plant": {"preset": "paper3x3", "noise_cov_scale": 0.01, "sigma0_scale": 0.01},
        "gain": {"preset": "detuned_lqr"},
        "optimizer": {"name": "mf_pgd", "max_iters": 4},
        "schedule": {"kind": "fixed", "eta": 0.3},
        "rollout": {"n": 600, "l": 30, "r": 0.04},
        "monte_carlo": {"repetitions": 3, "master_seed": 5},
    }
    bundle = run_monte_carlo(config_from_dict(data), out_dir=str(tmp_path), threads=1)
    estimates = sum(len(t.records) for t in bundle.traces)
    assert estimates == 12 and all(r.status == "ok" for t in bundle.traces
                                   for r in t.records)
    assert len(draw_calls) == estimates * (2 + math.ceil(600 / _color_step(30, 3)))
