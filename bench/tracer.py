"""Span tracing of lqrpg's public functions, installed from outside the package.

``Tracer.install()`` rebinds every function in ``TARGETS`` in each ``lqrpg``
module that holds it, and replaces the listed methods on their classes;
``uninstall()`` puts the originals back. Nothing under ``src/lqrpg`` changes.

Each call records a span: name, start, end and parent. Parents come from a
per-thread stack. A span that opens on a worker thread with an empty stack
takes the innermost open span of the main thread as its parent, which is the
``run_monte_carlo`` call that started the thread pool. Spans of the per-rollout
functions in ``HOT`` are not kept one by one; they are aggregated per name and
parent. Self time is a span's duration minus the time its children cover:
children on the span's own thread run one after another, so their durations
add; children on worker threads may overlap, so their intervals are merged.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import sys
import threading
import time

# The functions and methods that one module of lqrpg calls in another:
# (module, attribute, span name). An attribute "Class.method" wraps a method.
TARGETS = [
    ("lqrpg.exact", "solve_dare", "exact.solve_dare"),
    ("lqrpg.exact", "exact_quantities", "exact.exact_quantities"),
    ("lqrpg.exact", "solve_discrete_lyapunov", "exact.solve_discrete_lyapunov"),
    ("lqrpg.plants", "closed_loop", "plants.closed_loop"),
    ("lqrpg.plants", "paper3x3", "plants.paper3x3"),
    ("lqrpg.plants", "scalar_s1", "plants.scalar_s1"),
    ("lqrpg.sim", "SeedSpec.generator", "sim.streams"),
    ("lqrpg.sim", "RolloutOracle.draw_initial_state", "sim.initial_state"),
    ("lqrpg.sim", "RolloutOracle.draw_perturbation", "sim.perturbation"),
    ("lqrpg.sim", "RolloutOracle.rollout", "sim.rollout"),
    ("lqrpg.sim", "RolloutOracle.rollout_batch", "sim.rollout_batch"),
    ("lqrpg.sim", "RolloutOracle.stage_cost", "sim.stage_cost"),
    ("lqrpg.sim", "simulate_batch", "sim.simulate_batch"),
    ("lqrpg.estimators", "estimate_gradient_covariance", "estimators.gradient"),
    ("lqrpg.estimators", "estimate_gradient_vr", "estimators.vr"),
    ("lqrpg.optimizers", "run_mb_pgd", "optimizers.run_mb_pgd"),
    ("lqrpg.optimizers", "run_mb_npg", "optimizers.run_mb_npg"),
    ("lqrpg.optimizers", "run_mb_gauss_newton", "optimizers.run_mb_gauss_newton"),
    ("lqrpg.optimizers", "run_mf_pgd", "optimizers.run_mf_pgd"),
    ("lqrpg.optimizers", "run_mf_npg", "optimizers.run_mf_npg"),
    ("lqrpg.optimizers", "run_noisy_gradient_pgd", "optimizers.run_noisy_gradient_pgd"),
    ("lqrpg.bounds", "PlantNorms.from_plant", "bounds.plant_norms"),
    ("lqrpg.bounds", "perturbation_constants", "bounds.perturbation_constants"),
    ("lqrpg.bounds", "pgd_step_bound", "bounds.pgd_step_bound"),
    ("lqrpg.bounds", "npg_step_bound", "bounds.npg_step_bound"),
    ("lqrpg.bounds", "gradient_certificate", "bounds.gradient_certificate"),
    ("lqrpg.bounds", "covariance_certificate", "bounds.covariance_certificate"),
    ("lqrpg.harness", "figure_preset", "harness.figure_preset"),
    ("lqrpg.harness", "config_from_dict", "harness.config_from_dict"),
    ("lqrpg.harness", "detuned_initial_gain", "harness.detuned_initial_gain"),
    ("lqrpg.harness", "run_monte_carlo", "harness.run_monte_carlo"),
]

# Called once per rollout: aggregated per (name, parent) instead of kept.
HOT = {"sim.streams", "sim.initial_state", "sim.perturbation", "sim.stage_cost"}


def _count_simulate_batch(bind):
    def count(counters, args, kwargs, result):
        a = bind(*args, **kwargs).arguments
        n = len(a["Ks"])
        _, overflow = result
        counters["sim.rollouts"] += n
        counters["sim.simulate_batch.steps"] += n * (int(a["l"]) - 1)
        counters["sim.overflowed_rollouts"] += int((overflow >= 0).sum())
    return count


def _count_estimate(counters, args, kwargs, result):
    grad = result[0] if isinstance(result, tuple) else result
    counters["estimators.attempted"] += 1
    counters["estimators.failed"] += int(grad.failed)


def _count_trace(counters, args, kwargs, trace):
    statuses = [r.status for r in trace.records]
    counters["optimizers.iterations"] += len(statuses)
    counters["optimizers.diverged"] += statuses.count("diverged")
    counters["optimizers.estimate_failed"] += statuses.count("estimate_failed")


class _Counters(dict):
    def __missing__(self, key):
        return 0


class _ThreadState:
    """Per-thread stack and totals, merged only when read."""

    def __init__(self):
        self.stack: list[list] = []
        self.stats: dict[str, list] = {}      # name -> [calls, total_s, self_s]
        self.hot: dict[tuple, list] = {}      # (name, parent) -> [calls, total_s]
        self.counters = _Counters()


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._main = self._state()
        self._ids = itertools.count(1)
        self._restore: list[tuple] = []
        self.t0 = time.perf_counter()
        self.spans: list[tuple] = []  # (id, name, parent_id, thread, start, end)

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._threads.append(st)
        return st

    # A frame is [name, span_id, child_s, cross_intervals, parent_frame, thread].
    def _enter(self, name: str) -> list:
        st = self._state()
        if st.stack:
            parent = st.stack[-1]
        elif st is not self._main and self._main.stack:
            parent = self._main.stack[-1]
        else:
            parent = None
        frame = [name, 0 if name in HOT else next(self._ids), 0.0, None, parent, st]
        st.stack.append(frame)
        return frame

    def _exit(self, frame: list, start: float, end: float) -> None:
        name, span_id, child_s, cross, parent, st = frame
        st.stack.pop()
        dur = end - start
        self_s = dur - child_s
        if cross:
            self_s -= _covered(cross, start, end)
        if parent is not None:
            if parent[5] is st:
                parent[2] += dur
            else:
                with self._lock:
                    if parent[3] is None:
                        parent[3] = []
                    parent[3].append((start, end))
        s = st.stats.get(name)
        if s is None:
            s = st.stats[name] = [0, 0.0, 0.0]
        s[0] += 1
        s[1] += dur
        s[2] += max(self_s, 0.0)
        if span_id:
            parent_id = parent[1] if parent is not None else 0
            self.spans.append((span_id, name, parent_id, threading.get_ident(),
                               start - self.t0, end - self.t0))
        else:
            key = (name, parent[0] if parent is not None else "")
            h = st.hot.get(key)
            if h is None:
                h = st.hot[key] = [0, 0.0]
            h[0] += 1
            h[1] += dur

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        frame = self._enter(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, start, time.perf_counter())

    def _wrap(self, fn, name: str, on_result):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, start, time.perf_counter())
            if on_result is not None:
                on_result(self._state().counters, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        """Rebind every target in each lqrpg module and class that holds it."""
        import lqrpg.sim

        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "lqrpg" or k.startswith("lqrpg."))]
        bind_batch = inspect.signature(lqrpg.sim.simulate_batch).bind
        hooks = {"sim.simulate_batch": _count_simulate_batch(bind_batch),
                 "estimators.gradient": _count_estimate,
                 "estimators.vr": _count_estimate}
        for mod_name, attr, name in TARGETS:
            on_result = hooks.get(name)
            if on_result is None and name.startswith("optimizers."):
                on_result = _count_trace
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name, on_result))
                else:
                    new = self._wrap(raw, name, on_result)
                setattr(cls, meth, new)
                self._restore.append((cls, meth, raw))
                continue
            orig = getattr(owner, attr)
            new = self._wrap(orig, name, on_result)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, new)
                        self._restore.append((mod, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def totals(self) -> tuple[dict, dict]:
        """Merged ({name: [calls, total_s, self_s]}, counters) so far."""
        stats: dict[str, list] = {}
        counters = _Counters()
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for name, (c, t, s) in list(st.stats.items()):
                acc = stats.setdefault(name, [0, 0.0, 0.0])
                acc[0] += c
                acc[1] += t
                acc[2] += s
            for key, val in list(st.counters.items()):
                counters[key] += val
        return stats, counters

    def write(self, path: str) -> None:
        """Write the kept spans and the aggregated hot spans as JSON."""
        hot: dict[tuple, list] = {}
        for st in self._threads:
            for key, (c, t) in st.hot.items():
                acc = hot.setdefault(key, [0, 0.0])
                acc[0] += c
                acc[1] += t
        with open(path, "w") as fh:
            json.dump({
                "span_fields": ["id", "name", "parent_id", "thread", "start_s", "end_s"],
                "spans": self.spans,
                "aggregated_fields": ["name", "parent", "calls", "total_s"],
                "aggregated": [[k[0], k[1], c, t] for k, (c, t) in sorted(hot.items())],
            }, fh)


def _covered(intervals: list, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total
