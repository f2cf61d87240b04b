"""What crosses the process boundary of ``run_monte_carlo``'s forked
workers: errors, plants and their optima, and the workers themselves, none
of which outlives a call."""
import dataclasses
import os
import pickle
import select
import time

import pytest

from lqrpg import config_from_dict, figure_preset, paper3x3, run_monte_carlo, solve_dare
from lqrpg import errors, exact, harness, optimizers
from lqrpg.errors import OverflowedRollout

ERRORS = [
    errors.LqrpgError("base"),
    errors.ConfigurationError("bad config"),
    errors.InstabilityError("unstable", spectral_radius=1.25),
    errors.NumericError("not finite"),
    errors.ConvergenceError("no convergence", residual=3e-7),
    OverflowedRollout("overflow", step=3),
]


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_every_error_class_is_round_tripped():
    classes = {c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, Exception)}
    assert classes == {type(e) for e in ERRORS}


@pytest.mark.parametrize("error", ERRORS, ids=lambda e: type(e).__name__)
def test_errors_survive_pickling(error):
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert vars(back) == vars(error)


def test_unpickled_plant_keeps_read_only_arrays():
    plant = paper3x3(noise_scale=0.5)
    back = pickle.loads(pickle.dumps(plant))
    assert not hasattr(back, "_optimum")
    opt = solve_dare(plant)
    back = pickle.loads(pickle.dumps(plant))
    for name in ("A", "B", "Q", "R", "Sigma_w", "Sigma_0"):
        assert not getattr(back, name).flags.writeable
        assert getattr(back, name).tobytes() == getattr(plant, name).tobytes()
    for name in ("K_star", "P_star", "Sigma_star"):
        assert not getattr(back._optimum, name).flags.writeable
        assert getattr(back._optimum, name).tobytes() == getattr(opt, name).tobytes()
    assert back._optimum.C_star == opt.C_star
    assert solve_dare(back) is back._optimum
    with pytest.raises(ValueError, match="read-only"):
        back.A[0, 0] = 0.0


def test_workers_get_each_optimum_from_the_caller(tmp_path, monkeypatch):
    """A fig2 grid (n = 1000, l = 100) at two workers solves no Riccati
    equation in a worker: its plants carry their optima from the caller."""
    caller, real = os.getpid(), exact.solve_dare

    def solve_in_caller_only(plant):
        if getattr(plant, "_optimum", None) is None and os.getpid() != caller:
            raise AssertionError("solve_dare solved a plant in a worker")
        return real(plant)

    for module in (exact, harness, optimizers):
        monkeypatch.setattr(module, "solve_dare", solve_in_caller_only)
    cfg = figure_preset("fig2", repetitions=2)
    cfg = dataclasses.replace(cfg, variants=tuple(
        dataclasses.replace(v, stop=dataclasses.replace(v.stop, max_iters=2))
        for v in cfg.variants))
    assert not any(hasattr(v.plant, "_optimum") for v in cfg.variants)
    bundle = run_monte_carlo(cfg, out_dir=str(tmp_path), threads=2)
    assert [len(sub.traces) for sub in bundle.sub_bundles] == [2, 2, 2]
    assert_no_children()


def test_worker_errors_reach_the_caller_and_no_worker_outlives_a_call(
        tmp_path, monkeypatch):
    cfg = config_from_dict({
        "plant": {"preset": "scalar_s1"},
        "optimizer": {"name": "mf_pgd", "max_iters": 3},
        "schedule": {"kind": "fixed", "eta": 0.05},
        "rollout": {"n": 20, "l": 10, "r": 0.1},
        "gain": {"preset": "zero"},
        "monte_carlo": {"repetitions": 3, "master_seed": 7},
    })
    bundle = run_monte_carlo(cfg, out_dir=str(tmp_path / "ok"), threads=2)
    assert len(bundle.traces) == 3
    assert_no_children()

    # Repetition 0 fails at once; each later one marks its start, then takes
    # 0.2 s to fail. Worker 0's error ends the call at once: worker 1 is
    # killed in its first repetition, and no later repetition starts.
    started = tmp_path / "started"
    started.mkdir()

    def overflow(*args, **kwargs):
        offset = args[-1]
        (started / str(offset)).touch()
        if offset:
            time.sleep(0.2)
        error = OverflowedRollout("boom", step=3)
        error.pid = os.getpid()
        raise error

    monkeypatch.setattr(harness, "_mf_run", overflow)
    cfg = dataclasses.replace(cfg, repetitions=16)
    with pytest.raises(OverflowedRollout, match="boom") as info:
        run_monte_carlo(cfg, out_dir=str(tmp_path / "failed"), threads=2)
    assert info.value.step == 3
    assert info.value.pid != os.getpid()
    assert "in overflow" in str(info.value.__cause__)  # the worker's traceback
    assert_no_children()
    assert "0" in os.listdir(started) and len(os.listdir(started)) <= 2


def small_grid(repetitions):
    return config_from_dict({
        "plant": {"preset": "scalar_s1"},
        "optimizer": {"name": "mf_pgd", "max_iters": 2},
        "schedule": {"kind": "fixed", "eta": 0.05},
        "rollout": {"n": 8, "l": 5, "r": 0.1},
        "gain": {"preset": "zero"},
        "monte_carlo": {"repetitions": repetitions, "master_seed": 3},
    })


def test_a_failing_worker_beats_a_slower_sibling(tmp_path, monkeypatch):
    """Repetition 1 fails at once and every other one takes 1 s: at two
    workers the error is raised before worker 0 finishes its first stack,
    and worker 0 is killed and reaped."""
    def stack(cfgs, rep):
        if rep == 1:
            raise OverflowedRollout("boom", step=rep)
        time.sleep(1.0)
        return []

    monkeypatch.setattr(harness, "_run_stack", stack)
    start = time.monotonic()
    with pytest.raises(OverflowedRollout, match="boom") as info:
        run_monte_carlo(small_grid(4), out_dir=str(tmp_path), threads=2)
    assert time.monotonic() - start < 0.5 and info.value.step == 1
    assert_no_children()


def test_an_interrupted_caller_kills_its_workers(tmp_path, monkeypatch):
    """A KeyboardInterrupt while the caller waits for two 30 s workers ends
    the call at once, and both workers are killed and reaped."""
    def stack(cfgs, rep):
        time.sleep(30.0)

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "_run_stack", stack)
    monkeypatch.setattr(select, "select", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_monte_carlo(small_grid(2), out_dir=str(tmp_path), threads=2)
    assert time.monotonic() - start < 5.0
    assert_no_children()


def test_auto_threads_fork_no_worker_on_one_usable_cpu(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("forked a worker")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)
    bundle = run_monte_carlo(small_grid(3), out_dir=str(tmp_path), threads="auto")
    assert len(bundle.traces) == 3
