"""Cost-only rollouts streamed through one chunk buffer
(RolloutOracle.rollout_costs) against the whole batch, byte for byte."""
import dataclasses
import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest

from lqrpg import (
    Purpose,
    RolloutConfig,
    RolloutOracle,
    SeedSpec,
    estimate_gradient,
    figure_preset,
    paper3x3,
    run_monte_carlo,
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
        estimators._baselines([(oracle, K, x0s[:2])], 2, 100, 0, 0)
        for m in (60, 240):
            tracemalloc.start()
            try:
                [(baselines, bad)] = estimators._baselines([(oracle, K, x0s[:m])], 200,
                                                           100, 0, 0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert bad is None and baselines.shape == (m,)
            assert peak <= 2 * sim._STREAM_BYTES


@pytest.fixture
def cpus(request, monkeypatch):
    """As many usable CPUs as the test asks for, a count of the forks this
    process makes, and a check that every chunk child is reaped."""
    monkeypatch.setattr(sim, "_STREAM_BYTES", BUDGET)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
    fork, forks = os.fork, []

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    yield forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [2, 3], indirect=True)
class TestSplitCosts:
    """A batch of two or more chunks split over chunk children, against the
    same batch rolled out whole."""

    @staticmethod
    def batch(n, seed=0):
        plant = paper3x3(noise_scale=0.01)
        oracle = RolloutOracle(plant, SeedSpec(seed))
        rng = np.random.default_rng(seed)
        K = solve_dare(plant).K_star
        per_row = K + 0.05 * rng.standard_normal((n, *K.shape))
        return oracle, per_row, rng.standard_normal((n, plant.n_x))

    def test_forked_costs_match_whole_batch_bitwise(self, cpus):
        C = chunk_size(100, 3)
        for n in [2 * C + 1, 3 * C + 5]:
            oracle, per_row, x0s = self.batch(n)
            shared = np.broadcast_to(per_row[0], per_row.shape)
            for Ks, purpose in itertools.product([per_row, shared],
                                                 [Purpose.NOISE, Purpose.BASELINE]):
                del cpus[:]
                costs, bad = oracle.rollout_costs(Ks, x0s, 100, 1, range(n), purpose)
                ref, _ = whole_batch(oracle, Ks, x0s, 100, 1, range(n), purpose)
                assert cpus and bad is None and costs.tobytes() == ref.tobytes()

    def test_first_overflow_of_the_whole_batch(self, cpus):
        """An overflow in the last child's run, and one in the caller's run
        ahead of another in a child's, each give the batch's first index."""
        C = chunk_size(100, 3)
        n = 3 * C + 5
        oracle, per_row, x0s = self.batch(n, seed=1)
        for blown in [[3 * C], [C + 7, 3 * C], [5, 2 * C + 3]]:
            Ks = per_row.copy()
            Ks[blown] = 1e150
            costs, bad = oracle.rollout_costs(Ks, x0s, 100, 2, range(n))
            ref = whole_batch(oracle, Ks, x0s, 100, 2, range(n), Purpose.NOISE)
            assert (costs, bad) == (None, blown[0]) == (None, ref[1])

    def test_child_error_reaches_the_caller(self, cpus, monkeypatch):
        caller, simulate_batch = os.getpid(), sim.simulate_batch

        def fails_in_children(*args):
            if os.getpid() != caller:
                raise ValueError("boom")
            return simulate_batch(*args)

        monkeypatch.setattr(sim, "simulate_batch", fails_in_children)
        oracle, per_row, x0s = self.batch(3 * chunk_size(100, 3) + 5)
        with pytest.raises(ValueError, match="^boom$"):
            oracle.rollout_costs(per_row, x0s, 100, 0, range(len(per_row)))

    def test_child_without_a_result_raises_its_exit_status(self, cpus, monkeypatch):
        caller, simulate_batch = os.getpid(), sim.simulate_batch

        def exits_in_children(*args):
            if os.getpid() != caller:
                os._exit(3)
            return simulate_batch(*args)

        monkeypatch.setattr(sim, "simulate_batch", exits_in_children)
        oracle, per_row, x0s = self.batch(3 * chunk_size(100, 3) + 5)
        with pytest.raises(RuntimeError, match="exit status 3"):
            oracle.rollout_costs(per_row, x0s, 100, 0, range(len(per_row)))
        assert cpus

    def test_caller_error_kills_the_children(self, cpus, monkeypatch):
        caller, simulate_batch = os.getpid(), sim.simulate_batch

        def interrupted_in_caller(*args):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            return simulate_batch(*args)

        monkeypatch.setattr(sim, "simulate_batch", interrupted_in_caller)
        oracle, per_row, x0s = self.batch(3 * chunk_size(100, 3) + 5)
        with pytest.raises(KeyboardInterrupt):
            oracle.rollout_costs(per_row, x0s, 100, 0, range(len(per_row)))
        assert cpus


@pytest.mark.parametrize("cpus", [2], indirect=True)
def test_harness_workers_fork_no_chunk_children(cpus, tmp_path, monkeypatch):
    """fig3's grid forks chunk children from the caller at one worker, and
    none from its workers at two, with the same outputs."""
    caller, counted = os.getpid(), os.fork

    def caller_only():
        if os.getpid() != caller:
            raise AssertionError("a harness worker forked")
        return counted()

    monkeypatch.setattr(os, "fork", caller_only)
    cfg = figure_preset("fig3", repetitions=2)
    cfg = dataclasses.replace(cfg, variants=tuple(
        dataclasses.replace(v, stop=dataclasses.replace(v.stop, max_iters=1))
        for v in cfg.variants))
    assert any(v.use_vr for v in cfg.variants)
    files, forks = {}, {}
    for threads in (1, 2):
        del cpus[:]
        bundle = run_monte_carlo(cfg, out_dir=str(tmp_path / str(threads)),
                                 threads=threads)
        files[threads] = [open(p).read() for sub in bundle.sub_bundles
                          for p in sub.run_paths]
        forks[threads] = len(cpus)
    assert forks[1] > 0 and files[1] == files[2]


@pytest.mark.parametrize("cpus", [1, 2], indirect=True)
def test_vr_group_shares_its_draws_and_stays_bounded(cpus, monkeypatch):
    """fig3's two VR variants (the noise 1e-4 and 1e-2 plants; n = 60,
    n_v = 200, l = 100) estimated as one group at one run id: each member's
    estimate is its own, bit for bit; at 1 usable CPU the group draws each
    baseline pass once (a chunk child's draws are not counted here); its
    memory peaks at most one chunk buffer over a member's own; and a member
    whose rollouts overflow fails as it does alone, and the other member's
    estimate does not change."""
    variants = [v for v in figure_preset("fig3").variants if v.use_vr]
    members = [(RolloutOracle(v.plant, SeedSpec(v.master_seed), L0=v.rollout.L0), v.K0)
               for v in variants]
    cfg, n_v = variants[0].rollout, variants[0].n_v
    assert len(members) == 2 and (cfg.n, cfg.l, n_v) == (60, 100, 200)

    def alone(oracle, K):
        return estimators.estimate_gradient_vr(oracle, K, cfg, n_v, run_id=4,
                                               keep_terms=True)

    def traced(estimate):
        tracemalloc.start()
        try:
            return estimate(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    alone(*members[0])  # warm up, so that lazy imports do not count
    refs, peaks = zip(*(traced(lambda: alone(*m)) for m in members))
    purposes, draw = [], SeedSpec.draw
    monkeypatch.setattr(SeedSpec, "draw", lambda self, run_id, ids, purpose, shape:
                        purposes.append(purpose) or draw(self, run_id, ids, purpose,
                                                         shape))
    group, peak = traced(lambda: estimators._estimate(members, cfg, 4, n_v,
                                                      keep_terms=True))
    for (g, cov), ref in zip(group, refs):
        assert cov is None and not g.failed
        for name in ("value", "per_rollout_terms", "rollout_costs"):
            assert getattr(g, name).tobytes() == getattr(ref, name).tobytes()
    if len(os.sched_getaffinity(0)) == 1:
        assert purposes.count(Purpose.BASELINE) == math.ceil(
            cfg.n * n_v / sim._color_step(cfg.l, 3)) == 47
    assert peak <= max(peaks) + 8 * chunk_size(cfg.l, 3) * cfg.l * 3

    blown = (members[0][0], np.full_like(members[0][1], 1e150))
    ref = alone(*blown)
    (g, _), (other, _) = estimators._estimate([blown, members[1]], cfg, 4, n_v,
                                              keep_terms=True)
    assert ref.failed and g.failed and g.failed_rollout == ref.failed_rollout
    assert other.value.tobytes() == refs[1].value.tobytes()
