"""Cost-only rollouts streamed through one chunk buffer
(RolloutOracle.rollout_costs) against the whole batch, byte for byte."""
import itertools
import tracemalloc

import numpy as np
import pytest

from lqrpg import (
    Purpose,
    RolloutConfig,
    RolloutOracle,
    SeedSpec,
    estimate_gradient,
    paper3x3,
    solve_dare,
)
from lqrpg import estimators, sim
from conftest import random_plant

# A state budget below one coloring pass, so that a chunk is the fewest ids
# that whole passes on the blocked path allow: 256 at l = 100, and the
# blocked-path minimum, rounded up to whole passes, at l = 1 and 2.
BUDGET = 2**12


def chunk_size(l, n_x):
    """The ids per full chunk, C, of a long batch."""
    return sim._stream_edges(2**22, l, n_x)[1]


def whole_batch(oracle, Ks, x0s, l, run_id, ids, purpose):
    """(costs, first overflowed rollout) of one unstreamed batch."""
    states, overflow = oracle.rollout_batch(Ks, x0s, l, run_id, ids, purpose)
    if np.any(overflow >= 0):
        return None, int(np.argmax(overflow >= 0))
    with np.errstate(over="ignore", invalid="ignore"):
        return oracle.stage_cost(states, Ks), None


class TestStreamEdges:
    def test_chunks_are_whole_coloring_passes_on_the_blocked_path(self):
        for l, n_x in itertools.product([1, 2, 9, 100, 5000], range(1, 5)):
            step = sim._color_step(l, n_x)
            least = max(2, sim._EINSUM_BUFFER // (l * n_x**2) + 1)
            C = chunk_size(l, n_x)
            assert C % step == 0 and C >= least
            # The budget holds, unless one pass or the blocked path needs more.
            assert C * l * n_x * 8 <= sim._STREAM_BYTES or C < least + step
            sizes = [least, C - 1, C, C + 1, C + least - 1, C + least, 2 * C + 1]
            for n in [n for n in sizes if n >= least]:
                edges = sim._stream_edges(n, l, n_x)
                sizes = np.diff(edges)
                assert edges[0] == 0 and edges[-1] == n
                assert np.all(sizes[:-1] == C)
                assert least <= sizes[-1] < C + least

    def test_einsum_priced_batches_are_one_chunk(self):
        assert sim._stream_edges(1, 100, 3) == [0, 1]
        assert sim._stream_edges(10, 1, 4) == [0, 10]  # 10 * 16 <= 8192
        assert sim._stream_edges(10**6, 2, 91) == [0, 10**6]  # n_x > 90


class TestStreamedCosts:
    @pytest.mark.parametrize("l", [1, 2, 100])
    def test_costs_match_whole_batch_bitwise(self, l, monkeypatch):
        """n = C-1, C, C+1 and 2C+1 at every n_x: per-row and stride-0
        shared gains, and a per-row batch whose last rollout overflows,
        in a later chunk once n > C."""
        monkeypatch.setattr(sim, "_STREAM_BYTES", BUDGET)
        for n_x in range(1, 5):
            rng = np.random.default_rng(10 * l + n_x)
            plant = random_plant(rng, n_x, min(n_x, 2))
            oracle = RolloutOracle(plant, SeedSpec(l + n_x))
            K = solve_dare(plant).K_star
            C = chunk_size(l, n_x)
            if l < 100:  # the blocked-path minimum, not the budget, sets C
                assert C * l * n_x * 8 > BUDGET
            for n in [C - 1, C, C + 1, 2 * C + 1]:
                x0s = rng.standard_normal((n, n_x))
                per_row = K + 0.05 * rng.standard_normal((n, *K.shape))
                blown = per_row.copy()
                blown[-1] = 1e150
                shared = np.broadcast_to(K, (n, *K.shape))
                for Ks, base, purpose in [(per_row, 0, Purpose.NOISE),
                                          (shared, 2**40, Purpose.BASELINE),
                                          (blown, 5, Purpose.NOISE)]:
                    ids = range(base, base + n)
                    costs, bad = oracle.rollout_costs(Ks, x0s, l, 1, ids, purpose)
                    ref, ref_bad = whole_batch(oracle, Ks, x0s, l, 1, ids, purpose)
                    assert bad == ref_bad
                    if Ks is blown and l == 100:
                        assert bad == n - 1
                    if ref is None:
                        assert costs is None
                    else:
                        assert costs.tobytes() == ref.tobytes()

    def test_overflow_in_chunk_zero_stops_the_stream(self, monkeypatch):
        """An overflow in the first chunk leaves the later chunks
        unsimulated, and the estimate fails at the whole batch's first
        overflowed rollout."""
        monkeypatch.setattr(sim, "_STREAM_BYTES", BUDGET)
        plant = paper3x3(noise_scale=0.01)
        oracle = RolloutOracle(plant, SeedSpec(3))
        l = 100
        C = chunk_size(l, plant.n_x)
        cfg = RolloutConfig(n=3 * C + 5, l=l, r=1e6, L0=oracle.L0)
        K = solve_dare(plant).K_star
        Ks = K + oracle.draw_perturbations(cfg.r, 2, range(cfg.n))
        x0s = oracle.draw_initial_states(2, range(cfg.n))
        _, ref_bad = whole_batch(oracle, Ks, x0s, l, 2, range(cfg.n), Purpose.NOISE)
        assert ref_bad is not None and ref_bad < C

        simulate_batch, rows = sim.simulate_batch, []

        def counted(plant, Ks, x0s, l, states):
            rows.append(len(Ks))
            return simulate_batch(plant, Ks, x0s, l, states)

        monkeypatch.setattr(sim, "simulate_batch", counted)
        est = estimate_gradient(oracle, K, cfg, run_id=2)
        assert est.failed and est.failed_rollout == ref_bad
        assert rows == [C]
        rows.clear()
        assert oracle.rollout_costs(Ks, x0s, l, 2, range(cfg.n)) == (None, ref_bad)
        assert rows == [C]

    def test_baseline_peak_memory_does_not_grow_with_the_batch(self):
        """The VR baselines of 12,000 and of 48,000 rollouts (fig3's n_v =
        200, l = 100) peak under one bound: the states of one chunk, not of
        the batch (28.8 MB at 12,000)."""
        plant = paper3x3(noise_scale=0.01)
        oracle = RolloutOracle(plant, SeedSpec(0))
        K = solve_dare(plant).K_star
        x0s = oracle.draw_initial_states(0, range(240))
        # Warm up, so that lazy imports do not count.
        estimators._baselines(oracle, K, x0s[:2], 2, 100, 0, 0)
        for m in (60, 240):
            tracemalloc.start()
            try:
                baselines, bad = estimators._baselines(oracle, K, x0s[:m], 200, 100,
                                                       0, 0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert bad is None and baselines.shape == (m,)
            assert peak <= 2 * sim._STREAM_BYTES
