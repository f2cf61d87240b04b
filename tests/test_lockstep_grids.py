"""A grid's model-free variants run in lockstep and share their draws.

Repetition rep of every model-free variant of a figure grid is one lockstep
stack, whose oracles draw through one ``_DrawMemo``. The grid's files must
equal those of per-variant ``run_monte_carlo`` calls (stacks of one, which
use no memo) byte for byte, at any thread count, and no draw may be reused
across calls.
"""
import filecmp
import math
from dataclasses import replace

import pytest

from lqrpg import Purpose, SeedSpec, config_from_dict, figure_preset, run_monte_carlo
from lqrpg.sim import _STREAM_BYTES, _DrawMemo, _color_step


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


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig4"])
def test_grid_matches_per_variant_runs(tmp_path, name):
    cfg = small_preset(name)
    for var in cfg.variants:
        run_monte_carlo(var, out_dir=str(tmp_path / "single" / var.label))
    for threads in (1, 3):
        run_monte_carlo(cfg, out_dir=str(tmp_path / f"t{threads}"), threads=threads)
        for var in cfg.variants:
            files = [f"run_{rep:04d}.csv" for rep in range(2)] + ["aggregate.csv"]
            match, mismatch, errors = filecmp.cmpfiles(
                tmp_path / "single" / var.label, tmp_path / f"t{threads}" / var.label,
                files, shallow=False)
            assert (mismatch, errors) == ([], []), (threads, var.label)


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


class TestDrawMemo:
    def test_draws_match_seed_spec_and_are_read_only(self):
        seeds = SeedSpec(3)
        memo = _DrawMemo(seeds)
        for ids in (range(5), range(5, 9), [1, 2]):
            first = memo.draw(4, ids, Purpose.NOISE, (2, 3))
            again = memo.draw(4, ids, Purpose.NOISE, (2, 3))
            assert first.tobytes() == again.tobytes()
            assert first.tobytes() == seeds.draw(4, ids, Purpose.NOISE, (2, 3)).tobytes()
            if isinstance(ids, range):
                assert again is first
                with pytest.raises(ValueError):
                    first[0] = 0.0
        g = memo.generator(4, 7, Purpose.PERTURBATION)
        assert g.standard_normal(3).tobytes() == seeds.generator(
            4, 7, Purpose.PERTURBATION).standard_normal(3).tobytes()

    def test_new_run_id_evicts_and_size_is_capped(self, draw_calls):
        memo = _DrawMemo(SeedSpec(0))
        rows = _STREAM_BYTES // (8 * 300) // 3  # a third of the cap per batch
        batches = [range(a, a + rows) for a in range(0, 5 * rows, rows)]
        for ids in batches:
            memo.draw(1, ids, Purpose.NOISE, (100, 3))
            assert sum(a.nbytes for a in memo.arrays.values()) <= _STREAM_BYTES
        assert len(memo.arrays) == 3
        for ids in batches:
            memo.draw(1, ids, Purpose.NOISE, (100, 3))
        assert len(draw_calls) == 5 + 2  # the two batches past the cap, again
        memo.draw(2, batches[0], Purpose.NOISE, (100, 3))
        assert list(memo.arrays) == [(batches[0], Purpose.NOISE, (100, 3))]
        assert len(draw_calls) == 8
