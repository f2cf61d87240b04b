"""Experiment harness: JSON configs, Monte Carlo orchestration, figure
presets, bounds reports, and CSV/JSON artifact emission.

Configs are strict: unknown keys are rejected and every violation is
reported at once, with its location. All randomness flows through one
master seed; repetitions own disjoint substream ranges, so outputs are
byte-identical for a fixed seed regardless of the worker count. The variants
of a grid share these substreams: the model-free variants of a repetition
are one lockstep stack, run in a forked worker process, that estimates
the variants with coinciding draws as one group; the exact-gradient variants
on one plant instance are one lockstep stack too.
"""
from __future__ import annotations

import functools
import json
import math
import os
import subprocess
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .bounds import (
    CovErrorBudget,
    ErrorBudget,
    PlantNorms,
    covariance_certificate,
    gradient_certificate,
    npg_step_bound,
    perturbation_constants,
    pgd_step_bound,
)
from .errors import ConfigurationError
from .exact import exact_quantities, solve_dare
from .optimizers import (
    ConvergenceTrace,
    StepSchedule,
    StopRule,
    OPTIMIZERS,
    SCHEDULE_PARAMS,
    _Estimated,
    _Exact,
    _Run,
    _exact_rule,
    _gauss_newton_schedule,
    _mf_run,
    _noise_rows,
    _optimize,
)
from . import plants as _plants
from .plants import PlantModel, smallest_eigenvalue
from .sim import RolloutConfig, RolloutOracle, SeedSpec, _forked, default_initial_state_bound

__all__ = [
    "ExperimentConfig",
    "OutputBundle",
    "parse_config",
    "config_from_dict",
    "run_monte_carlo",
    "figure_preset",
    "emit_bounds_report",
    "detuned_initial_gain",
    "CSV_COLUMNS",
]

CSV_COLUMNS = ["run_id", "iteration", "cost", "rel_subopt", "step_size",
               "grad_norm", "status"]

_TOP_KEYS = {"plant", "optimizer", "schedule", "rollout", "gain",
             "monte_carlo", "output", "label"}


def _fmt(x) -> str:
    """Lossless float formatting for CSV (17 significant digits)."""
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment description."""

    plant: PlantModel
    optimizer: str
    schedule: StepSchedule
    K0: np.ndarray
    stop: StopRule
    rollout: RolloutConfig | None = None
    use_vr: bool = False
    n_v: int = 1
    noise_sigma: float = 0.0
    repetitions: int = 1
    master_seed: int = 0
    out_dir: str = "out"
    out_format: str = "csv"
    label: str = "run"
    raw: dict = field(default_factory=dict)
    variants: tuple = ()


@dataclass(frozen=True)
class OutputBundle:
    out_dir: str
    run_paths: list[str]
    aggregate_path: str
    manifest_path: str
    traces: list[ConvergenceTrace]
    label: str
    sub_bundles: tuple = ()


def detuned_initial_gain(plant: PlantModel, q_scale: float = 50.0) -> np.ndarray:
    """Optimal gain of the same plant with Q scaled by ``q_scale`` — a
    stabilizing but deliberately suboptimal starting point."""
    detuned = PlantModel(
        A=plant.A, B=plant.B, Q=q_scale * plant.Q, R=plant.R,
        Sigma_w=plant.Sigma_w if np.trace(plant.Sigma_w) > 0 else np.eye(plant.n_x),
        Sigma_0=plant.Sigma_0,
    )
    return solve_dare(detuned).K_star


class _Violations:
    def __init__(self):
        self.items: list[str] = []

    def add(self, loc: str, msg: str):
        self.items.append(f"{loc}: {msg}")

    def raise_if_any(self):
        if self.items:
            raise ConfigurationError(
                "invalid configuration:\n  " + "\n  ".join(self.items)
            )


def _parse_matrix(data, loc, v):
    try:
        m = np.array(data, dtype=float)
    except (TypeError, ValueError):
        v.add(loc, "not a numeric matrix")
        return None
    # JSON as Python reads it admits NaN and Infinity.
    if not np.all(np.isfinite(m)):
        v.add(loc, "entries must be finite")
        return None
    return m


def _parse_number(value, loc, v, *, positive=True, integer=False):
    """``value`` as a finite number > 0 (>= 0 unless ``positive``), or as an
    int >= 1 (>= 0 unless ``positive``) if ``integer``; otherwise None, after
    a located violation. Booleans and strings are not numbers."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if integer:
        lo = 1 if positive else 0
        if number and isinstance(value, int) and value >= lo:
            return value
        v.add(loc, f"must be an integer >= {lo}, got {value!r}")
        return None
    try:
        x = float(value) if number else math.nan
    except OverflowError:  # an int past the float range
        x = math.inf
    if math.isfinite(x) and (x > 0 if positive else x >= 0):
        return x
    v.add(loc, f"must be a finite {'positive number' if positive else 'number >= 0'}, "
               f"got {value!r}")
    return None


def _section(data, name, known, v, default=None, msg="must be an object"):
    """Section ``name`` of the config root, ``default`` when it is absent,
    after a located violation for each key outside ``known``; None, after
    the violation ``msg``, when it is not an object."""
    sec = data.get(name, default)
    if not isinstance(sec, dict):
        v.add(name, msg)
        return None
    for k in sec:
        if k not in known:
            v.add(f"{name}.{k}", "unknown key")
    return sec


# Each plant preset of lqrpg.plants and the config scale keys it takes,
# with the constructor keyword of each.
_PLANT_PRESETS = {
    "paper3x3": {"noise_cov_scale": "noise_scale", "sigma0_scale": "sigma0_scale"},
    "scalar_s1": {"noise_cov_scale": "noise_scale"},
}
_MATRICES = ("A", "B", "Q", "R", "Sigma_w", "Sigma_0")


def _parse_plant(data, v) -> PlantModel | None:
    data = _section(data, "plant", {"preset", "noise_cov_scale", "sigma0_scale",
                                    *_MATRICES}, v, {"preset": "scalar_s1"})
    if data is None:
        return None
    preset = data.get("preset")
    scales, bad = {}, False
    for k in ("noise_cov_scale", "sigma0_scale"):
        if k in data:
            # Zero scales are legal: they give noise-free plants.
            scales[k] = _parse_number(data[k], f"plant.{k}", v, positive=False)
            # An unknown preset is reported by itself below.
            unused = preset is None or k not in _PLANT_PRESETS.get(preset, (k,))
            if unused:
                v.add(f"plant.{k}", f"not used by preset {preset!r}" if preset
                      else "only used with a preset")
            bad = bad or unused or scales[k] is None
    try:
        if preset is not None:
            if preset not in _PLANT_PRESETS:
                v.add("plant.preset", f"unknown preset {preset!r}")
                return None
            # Through the module, so that a rebound constructor is called.
            keywords = _PLANT_PRESETS[preset]
            return None if bad else getattr(_plants, preset)(
                **{keywords[k]: x for k, x in scales.items()})
        mats = {}
        for name in _MATRICES:
            if name not in data:
                v.add(f"plant.{name}", "missing (required without a preset)")
                return None
            m = _parse_matrix(data[name], f"plant.{name}", v)
            if m is None:
                return None
            mats[name] = m
        return None if bad else PlantModel(**mats)
    except ConfigurationError as exc:
        v.add("plant", str(exc))
        return None


def config_from_dict(data: dict) -> ExperimentConfig:
    """Validate a config dictionary, reporting every violation at once."""
    v = _Violations()
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be an object")
    for k in data:
        if k not in _TOP_KEYS:
            v.add(k, "unknown key")

    plant = _parse_plant(data, v)

    opt = _section(data, "optimizer", {"name", "max_iters", "rel_subopt_tol", "grad_tol",
                                       "eta", "noise_sigma", "use_vr", "n_v"},
                   v, msg="must be an object with a 'name'")
    name, stop = None, StopRule()
    use_vr, n_v, noise_sigma = False, 1, 0.0
    if opt is not None:
        name = opt.get("name")
        if not isinstance(name, str) or name not in OPTIMIZERS:
            v.add("optimizer.name", f"must be one of {tuple(OPTIMIZERS)}, got {name!r}")
            name = None
        use_vr = opt.get("use_vr", False)
        if not isinstance(use_vr, bool):
            v.add("optimizer.use_vr", f"must be true or false, got {use_vr!r}")
        n_v = _parse_number(opt.get("n_v", 1), "optimizer.n_v", v, integer=True)
        noise_sigma = _parse_number(opt.get("noise_sigma", 0.0),
                                    "optimizer.noise_sigma", v, positive=False)
        max_iters = _parse_number(opt.get("max_iters", 100), "optimizer.max_iters",
                                  v, integer=True)
        tols = {k: None if opt.get(k) is None else
                _parse_number(opt[k], f"optimizer.{k}", v, positive=False)
                for k in ("rel_subopt_tol", "grad_tol")}
        if max_iters is not None:
            stop = StopRule(max_iters=max_iters, **tols)

    sched = _section(data, "schedule", {"kind", "eta", "a", "b", "c"}, v,
                     {"kind": "fixed", "eta": (opt or {}).get("eta", 0.01)})
    schedule = None
    if sched is not None:
        # Signs and presence are the schedule kind's to check.
        params = {k: _parse_number(val, f"schedule.{k}", v, positive=False)
                  for k, val in sched.items() if k in ("eta", "a", "b", "c")}
        try:
            if None not in params.values():
                schedule = StepSchedule(kind=sched.get("kind", "fixed"), **params)
            if schedule is not None and name == "mb_gauss_newton":
                _gauss_newton_schedule(schedule)
        except ConfigurationError as exc:
            v.add("schedule", str(exc))
        else:  # the parameters the kind does not read, and noise it cannot use
            kind = schedule.kind if schedule else None
            for k in sorted(params.keys() - SCHEDULE_PARAMS.get(kind, params.keys())):
                v.add(f"schedule.{k}", f"not used by schedule kind {kind!r}")
            if plant is not None and kind == "adaptive_certified" \
                    and not smallest_eigenvalue(plant.Sigma_w) > 0:
                v.add("schedule.kind", f"{kind} needs a plant with a positive-definite Sigma_w")
            if plant is not None and kind == "adaptive_empirical" \
                    and not np.trace(plant.Sigma_w) > 0:
                v.add("schedule.kind", f"{kind} needs a plant with Tr(Sigma_w) > 0")
        # Without a schedule section, optimizer.eta is the schedule's eta.
        eta = sched.get("eta")
        if "eta" in (opt or {}) and "schedule" in data and opt["eta"] != eta:
            v.add("optimizer.eta", f"{opt['eta']!r} disagrees with schedule.eta "
                                   f"{eta!r}, which sets the step")
    if name is not None and noise_sigma and name != "noisy_pgd":
        v.add("optimizer.noise_sigma", f"only used by noisy_pgd, not {name!r}")
    if name is not None and use_vr is True and name != "mf_pgd":
        v.add("optimizer.use_vr", f"only used by mf_pgd, not {name!r}")

    rollout = None
    if data.get("rollout") is None:
        if OPTIMIZERS.get(name) == "mf":
            v.add("rollout", "model-free runs need rollout parameters {n, l, r, L0}")
    elif (roll := _section(data, "rollout", {"n", "l", "r", "L0"}, v)) is not None:
        params = {k: _parse_number(roll.get(k), f"rollout.{k}", v, integer=k != "r")
                  for k in ("n", "l", "r")}
        if "L0" in roll:
            params["L0"] = _parse_number(roll["L0"], "rollout.L0", v)
        elif plant is not None:
            params["L0"] = float(default_initial_state_bound(plant.Sigma_0))
        # Without a plant there is no default L0; the plant's violation is reported.
        if "L0" in params and None not in params.values():
            rollout = RolloutConfig(**params)

    K0 = None
    gain = _section(data, "gain", {"preset", "K0", "q_scale"}, v,
                    {"preset": "detuned_lqr"}, msg="must give 'preset' or 'K0'")
    if gain is not None:
        preset = gain.get("preset")
        q_scale = 50.0
        if "q_scale" in gain:
            q_scale = _parse_number(gain["q_scale"], "gain.q_scale", v)
            if preset != "detuned_lqr":
                v.add("gain.q_scale", "only used with preset 'detuned_lqr'")
        try:
            if "preset" in gain and "K0" in gain:
                v.add("gain.K0", "not used with a preset")
            elif "preset" not in gain and "K0" not in gain:
                v.add("gain", "must give 'preset' or 'K0'")
            elif "preset" not in gain:
                # Parsed without a valid plant too, so its violations are reported.
                K0 = _parse_matrix(gain["K0"], "gain.K0", v)
                if K0 is not None and plant is not None:
                    K0 = plant.check_gain(K0)
            elif preset not in ("detuned_lqr", "zero", "optimal"):
                v.add("gain.preset", f"unknown preset {preset!r}")
            elif plant is not None:
                if preset == "detuned_lqr":
                    if q_scale is not None:
                        K0 = detuned_initial_gain(plant, q_scale=q_scale)
                elif preset == "zero":
                    K0 = np.zeros((plant.n_u, plant.n_x))
                else:
                    K0 = solve_dare(plant).K_star
        except ConfigurationError as exc:
            v.add("gain", str(exc))

    repetitions, master_seed = 1, 0
    mc = _section(data, "monte_carlo", {"repetitions", "master_seed"}, v, {})
    if mc is not None:
        repetitions = _parse_number(mc.get("repetitions", 1),
                                    "monte_carlo.repetitions", v, integer=True)
        master_seed = _parse_number(mc.get("master_seed", 0), "monte_carlo.master_seed",
                                    v, positive=False, integer=True)

    out_dir, out_format = "out", "csv"
    out = _section(data, "output", {"dir", "format"}, v, {})
    if out is not None:
        out_dir = str(out.get("dir", "out"))
        out_format = str(out.get("format", "csv"))
        if out_format not in ("csv", "json"):
            v.add("output.format", f"must be csv or json, got {out_format!r}")

    v.raise_if_any()

    return ExperimentConfig(
        plant=plant,
        optimizer=name,
        schedule=schedule,
        K0=K0,
        stop=stop,
        rollout=rollout,
        use_vr=use_vr,
        n_v=n_v,
        noise_sigma=noise_sigma,
        repetitions=repetitions,
        master_seed=master_seed,
        out_dir=out_dir,
        out_format=out_format,
        label=str(data.get("label", "run")),
        raw=data,
    )


def _load_json(path: str):
    """The parsed contents of a JSON config file, not yet validated."""
    if not os.path.exists(path):
        raise ConfigurationError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}") from exc


def parse_config(path: str) -> ExperimentConfig:
    """Load and validate a JSON experiment config from disk."""
    return config_from_dict(_load_json(path))


def _run_exact(cfgs: list[ExperimentConfig]) -> list[tuple[list, float]]:
    """The traces of exact-gradient variants ``cfgs`` and the start of their
    stack, per variant; the variants on one plant instance are one stack.
    Repetition rep's noise rows (run id ``rep``) are drawn once per master
    seed, scaled by each variant's sigma. A noise-free variant runs once and
    its trace stands for each repetition."""
    # As many rows as the longest noisy run takes; shorter runs read a prefix.
    length = max((c.stop.max_iters for c in cfgs if c.noise_sigma > 0), default=0)
    normals = functools.cache(
        lambda seed, rep, shape: _noise_rows(SeedSpec(seed), rep, length, shape))
    stacks: dict = {}
    for j, cfg in enumerate(cfgs):
        step, flavor = _exact_rule(cfg.optimizer, cfg.plant)
        shape = (cfg.plant.n_u, cfg.plant.n_x)
        runs = [_Run(cfg.K0, cfg.schedule, cfg.stop, step, flavor, cfg.noise_sigma,
                     normals(cfg.master_seed, rep, shape))
                for rep in range(cfg.repetitions)] if cfg.noise_sigma > 0 else [
            _Run(cfg.K0, cfg.schedule, cfg.stop, step, flavor)]
        stacks.setdefault(id(cfg.plant), (cfg.plant, []))[1].extend((j, r) for r in runs)
    traces, starts = [[] for _ in cfgs], {}
    for plant, members in stacks.values():
        start, runs = time.monotonic(), [r for _, r in members]
        for (j, _), trace in zip(members, _optimize(_Exact(plant, runs), runs)):
            traces[j].append(trace)
            starts[j] = start
    return [(t * (cfg.repetitions // len(t)), starts[j])
            for j, (cfg, t) in enumerate(zip(cfgs, traces))]


def _run_stack(cfgs: list[ExperimentConfig], rep: int) -> list[ConvergenceTrace]:
    """Repetition ``rep`` of model-free variants ``cfgs`` as one lockstep
    stack, one trace each; substreams are keyed by ``rep``. Each iteration
    estimates the live variants whose draws coincide as one group, so each
    draw is made once (:class:`~lqrpg.optimizers._Estimated`)."""
    members = []
    for cfg in cfgs:
        oracle = RolloutOracle(cfg.plant, SeedSpec(cfg.master_seed), L0=cfg.rollout.L0)
        members.append(_mf_run(cfg.optimizer, oracle, cfg.K0, cfg.schedule, cfg.stop,
                               cfg.rollout, PlantNorms.from_plant(cfg.plant),
                               solve_dare(cfg.plant).C_star, cfg.use_vr, cfg.n_v, None,
                               rep * (cfg.stop.max_iters + 1)))
    return _optimize(_Estimated(members), [m[0] for m in members])


def _csv_rows(trace: ConvergenceTrace) -> list[str]:
    """The run-file rows of ``trace`` after their run_id column, as
    ``csv.writer`` writes the ``_fmt`` of its floats."""
    return [f"{r.i},{r.cost:.17g},"
            f"{'' if r.rel_subopt is None else format(r.rel_subopt, '.17g')},"
            f"{r.step:.17g},{r.grad_norm:.17g},{r.status}" for r in trace.records]


def _json_text(run_id: int, trace: ConvergenceTrace) -> str:
    return json.dumps({
        "run_id": run_id,
        "terminal_reason": trace.terminal_reason,
        "records": [
            {
                "iteration": rec.i, "cost": rec.cost,
                "rel_subopt": rec.rel_subopt, "step_size": rec.step,
                "grad_norm": rec.grad_norm, "status": rec.status,
            }
            for rec in trace.records
        ],
    }, indent=2) + "\n"


def _aggregate_lines(traces: list[ConvergenceTrace]) -> list[str]:
    """Aggregate rel_subopt across runs per iteration index, one CSV line per
    index, as ``csv.writer`` writes the ``_fmt`` of each statistic.

    Diverged runs stop contributing to the means at the index where they
    diverge; they are counted in diverged_count instead. The iterations with
    k values take their means as the rows of one (iterations, k) array of
    their values in run order: a contiguous reduction per row, bitwise
    ``np.mean`` of the list, where a column mean would sum in another order.
    """
    max_len, columns = max(len(t.records) for t in traces), {}
    rel = np.full((len(traces), max_len), np.nan)
    div = np.full(len(traces), max_len)
    for j, t in enumerate(traces):  # a trace shared by repetitions is read once
        if id(t) not in columns:
            columns[id(t)] = (
                [r.rel_subopt if r.status == "ok" and r.rel_subopt is not None
                 else math.nan for r in t.records],
                next((r.i for r in t.records if r.status == "diverged"), max_len))
        vals, div[j] = columns[id(t)]
        rel[j, :len(vals)] = vals
    rel, steps = rel.T, np.arange(max_len)[:, None]
    valid = np.isfinite(rel) & (div > steps)
    count, mean = valid.sum(axis=1), np.empty(max_len)
    for k in set(count.tolist()) - {0}:
        mean[count == k] = rel[count == k][valid[count == k]].reshape(-1, k).mean(axis=1)
    stats = zip(count.tolist(), mean.tolist(),
                np.min(rel, axis=1, where=valid, initial=np.inf).tolist(),
                np.max(rel, axis=1, where=valid, initial=-np.inf).tolist(),
                (div <= steps).sum(axis=1).tolist())
    return [f"{i},{mu:.17g},{lo:.17g},{hi:.17g},{d}" if n else f"{i},,,,{d}"
            for i, (n, mu, lo, hi, d) in enumerate(stats)]


@functools.cache
def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run_monte_carlo(
    cfg: ExperimentConfig,
    out_dir: str | None = None,
    threads: int | str = 1,
) -> OutputBundle:
    """Execute ``cfg.repetitions`` independent runs and emit the artifact
    bundle (per-run CSV/JSON, aggregate CSV, manifest JSON); a grid (a config
    with ``variants``) emits one bundle per variant under its label.

    The exact-gradient variants (mb_pgd, mb_npg, mb_gauss_newton, noisy_pgd)
    on one plant instance run as one lockstep stack. Repetition rep of every
    model-free variant (mf_pgd, mf_npg) is one lockstep stack whose variants
    share their seeded draws. Of ``threads`` workers ("auto": one per usable
    CPU), worker w runs repetitions w, w + workers, ... in a forked child
    (:func:`~lqrpg.sim._forked`) that gets each plant with its optimum solved
    here, and whose error is raised here as soon as it ends; one worker runs
    here. Results are collected in repetition order, so outputs do not depend
    on the worker count. Every stack runs before any file is written; a
    manifest's time counts from its stack(s)' start.
    """
    t0 = time.monotonic()
    variants = cfg.variants or (cfg,)
    free = [v for v in variants if OPTIMIZERS[v.optimizer] == "mf"]
    reps = max((v.repetitions for v in free), default=0)
    workers = len(os.sched_getaffinity(0)) if threads == "auto" else int(threads)
    workers = max(1, min(workers, reps))
    stacks = [[v for v in free if rep < v.repetitions] for rep in range(reps)]
    for v in free:
        solve_dare(v.plant)
    shares = _forked([lambda w=w: [_run_stack(stacks[rep], rep)
                                   for rep in range(w, reps, workers)]
                      for w in range(workers)], here=workers == 1)
    done = [shares[rep % workers][rep // workers] for rep in range(reps)]
    # Each stack lists its variants in the order of ``free``.
    model_free = iter([([done[rep].pop(0) for rep in range(v.repetitions)], t0)
                       for v in free])
    exact = iter(_run_exact([v for v in variants if OPTIMIZERS[v.optimizer] == "mb"]))
    runs = [next(model_free if OPTIMIZERS[v.optimizer] == "mf" else exact)
            for v in variants]

    base = out_dir or cfg.out_dir
    if not cfg.variants:
        return _emit(cfg, base, *runs[0])
    subs = [_emit(var, os.path.join(base, var.label), *run)
            for var, run in zip(variants, runs)]
    os.makedirs(base, exist_ok=True)
    manifest_path = os.path.join(base, "manifest.json")
    with open(manifest_path, "w") as fh:
        fh.write(json.dumps({"label": cfg.label,
                             "variants": [s.label for s in subs]}, indent=2) + "\n")
    return OutputBundle(out_dir=base, run_paths=[], aggregate_path="",
                        manifest_path=manifest_path, traces=[], label=cfg.label,
                        sub_bundles=tuple(subs))


def _emit(cfg: ExperimentConfig, out_dir: str, traces: list[ConvergenceTrace],
          t0: float) -> OutputBundle:
    """Write the run files, aggregate and manifest of ``cfg``'s ``traces``."""
    os.makedirs(out_dir, exist_ok=True)
    ext = "csv" if cfg.out_format == "csv" else "json"
    run_paths, rows = [], {}
    for rep, trace in enumerate(traces):
        path = os.path.join(out_dir, f"run_{rep:04d}.{ext}")
        if ext == "csv":  # a trace shared by repetitions is formatted once
            if id(trace) not in rows:
                rows[id(trace)] = _csv_rows(trace)
            text = ",".join(CSV_COLUMNS) + f"\r\n{rep}," + f"\r\n{rep},".join(
                rows[id(trace)]) + "\r\n"
        else:
            text = _json_text(rep, trace)
        with open(path, "w", newline="" if ext == "csv" else None) as fh:
            fh.write(text)
        run_paths.append(path)

    aggregate_path = os.path.join(out_dir, "aggregate.csv")
    header = "iteration,mean_rel_subopt,min_rel_subopt,max_rel_subopt,diverged_count"
    with open(aggregate_path, "w", newline="") as fh:
        fh.write("\r\n".join([header, *_aggregate_lines(traces)]) + "\r\n")

    manifest_path = os.path.join(out_dir, "manifest.json")
    manifest = {
        "label": cfg.label,
        "config": _json_safe(cfg.raw),
        "master_seed": cfg.master_seed,
        "repetitions": cfg.repetitions,
        "terminal_reasons": [t.terminal_reason for t in traces],
        "build": _git_describe(),
        "wall_time_s": time.monotonic() - t0,
    }
    with open(manifest_path, "w") as fh:
        fh.write(json.dumps(manifest, indent=2) + "\n")

    return OutputBundle(
        out_dir=out_dir, run_paths=run_paths, aggregate_path=aggregate_path,
        manifest_path=manifest_path, traces=traces, label=cfg.label,
    )


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(x) for x in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _variant(base: dict, label: str, plants: dict, **overrides) -> ExperimentConfig:
    """``base``, whose gain is the detuned preset, with ``overrides``
    applied. Variants whose plant sections are equal share the instance in
    ``plants``, so its one Riccati solve, and its one detuned gain."""
    data = json.loads(json.dumps(base))
    data["label"] = label
    for key, val in overrides.items():
        node = data
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = val
    # Validated with the zero gain, which needs no solve; the detuned gain
    # is solved once per plant below.
    cfg = config_from_dict({**data, "gain": {"preset": "zero"}})
    key = json.dumps(data["plant"], sort_keys=True)
    if key not in plants:
        plants[key] = (cfg.plant, detuned_initial_gain(cfg.plant))
    plant, K0 = plants[key]
    return replace(cfg, plant=plant, K0=K0, raw=data)


def figure_preset(
    name: str, repetitions: int | None = None, master_seed: int = 0
) -> ExperimentConfig:
    """Fully populated experiment grids for the four benchmark figures,
    desk-scale Monte Carlo counts by default."""
    base = {
        "plant": {"preset": "paper3x3"},
        "gain": {"preset": "detuned_lqr"},
        "monte_carlo": {"repetitions": repetitions or 5, "master_seed": master_seed},
        "output": {"dir": "out", "format": "csv"},
    }
    variants: list[ExperimentConfig] = []
    plants: dict = {}

    if name == "fig1":
        reps = repetitions or 500
        base["monte_carlo"]["repetitions"] = reps
        base["plant"]["noise_cov_scale"] = 0.5
        base["optimizer"] = {"name": "noisy_pgd", "max_iters": 150,
                             "eta": 0.12, "noise_sigma": 0.0}
        base["schedule"] = {"kind": "fixed", "eta": 0.12}
        for sigma in (0.0, 0.03, 0.6):
            for eta in (0.12, 0.01):
                variants.append(_variant(
                    base, f"sigma{sigma}_eta{eta}", plants,
                    **{"optimizer.noise_sigma": sigma, "optimizer.eta": eta,
                       "schedule.eta": eta},
                ))
    elif name == "fig2":
        base["optimizer"] = {"name": "mf_pgd", "max_iters": 40}
        base["rollout"] = {"n": 1000, "l": 100, "r": 0.04}
        base["schedule"] = {"kind": "fixed", "eta": 40}
        for scale, eta in ((1e-4, 40.0), (1e-2, 6.0), (1e-2, 0.3)):
            variants.append(_variant(
                base, f"noise{scale}_eta{eta}", plants,
                **{"plant.noise_cov_scale": scale,
                   "plant.sigma0_scale": scale, "schedule.eta": eta},
            ))
    elif name == "fig3":
        # A common step size across noise levels keeps the comparison
        # meaningful: with per-level tuned steps the benchmark is
        # scale-equivalent and the variance-reduction gap degenerates.
        base["optimizer"] = {"name": "mf_pgd", "max_iters": 15,
                             "use_vr": False, "n_v": 200}
        base["rollout"] = {"n": 60, "l": 100, "r": 0.04}
        base["schedule"] = {"kind": "fixed", "eta": 0.3}
        for scale in (1e-4, 1e-2):
            for vr in (False, True):
                tag = "vr" if vr else "plain"
                variants.append(_variant(
                    base, f"noise{scale}_{tag}", plants,
                    **{"plant.noise_cov_scale": scale,
                       "plant.sigma0_scale": scale,
                       "optimizer.use_vr": vr},
                ))
    elif name == "fig4":
        base["optimizer"] = {"name": "mf_npg", "max_iters": 40}
        base["rollout"] = {"n": 1000, "l": 100, "r": 0.04}
        for scale in (1e-4, 1e-2, 1.0):
            noise = {"plant.noise_cov_scale": scale, "plant.sigma0_scale": scale}
            adaptive = _variant(
                base, f"noise{scale}_adaptive", plants, **noise,
                schedule={"kind": "adaptive_empirical", "a": 0.09, "b": 1, "c": 2},
            )
            fixed = _variant(
                base, f"noise{scale}_fixed", plants, **noise,
                schedule={"kind": "fixed", "eta": _fig4_fixed_eta(adaptive)},
            )
            variants += [fixed, adaptive]
    else:
        raise ConfigurationError(f"unknown figure preset {name!r}")

    # run_monte_carlo reads only the label, out_dir and variants of a parent.
    return replace(variants[0], label=name, variants=tuple(variants))


def _fig4_fixed_eta(var: ExperimentConfig) -> float:
    """Fixed natural-gradient step 0.09 / (1 + 2 Tr(P)) at the variant's
    detuned starting gain, matching the adaptive rule's value there."""
    P = exact_quantities(var.plant, var.K0).P
    return 0.09 / (1.0 + 2.0 * float(np.trace(P)))


def emit_bounds_report(
    plant: PlantModel,
    cost_value: float,
    budget: ErrorBudget,
    L0: float | None = None,
    c_star: float = 0.0,
    fmt: str = "text",
):
    """Certificate report at one cost level: perturbation constants, step
    bounds, gradient and covariance certificates, every alpha intermediate.

    Deterministic; returns a string in text mode and a dict in json mode.
    """
    if L0 is None:
        L0 = default_initial_state_bound(plant.Sigma_0)
    norms = PlantNorms.from_plant(plant)
    pc = perturbation_constants(norms, cost_value, c_star)
    # The covariance certificate gets the gradient budget's eps and delta shares.
    cov_budget = CovErrorBudget(
        eps_l=budget.eps_l, eps_n=budget.eps_n, eps_r=budget.eps_r,
        delta_x=budget.delta_x, delta_n=budget.delta_n,
    )
    grad_cert = gradient_certificate(norms, cost_value, budget, L0, c_star=c_star)
    cov_cert = covariance_certificate(norms, cost_value, cov_budget, L0,
                                      c_star=c_star)
    report: dict = {
        "cost_value": cost_value,  # the constants' c
        **{k: val for k, val in asdict(pc).items() if k != "c"},
        "pgd_step_bound": pgd_step_bound(norms, cost_value, c_star),
        "npg_step_bound": npg_step_bound(norms, cost_value),
        "gradient": grad_cert.as_dict(),
        "covariance": cov_cert.as_dict(),
    }
    if fmt == "json":
        return _json_safe(report)
    lines = ["certificate report"]
    lines += [f"  {key} = {_fmt(val)}" for key, val in report.items()
              if not isinstance(val, dict)]
    for cert in ("gradient", "covariance"):
        lines.append(f"{cert} certificate")
        for key, val in report[cert].items():
            if key == "intermediates":
                lines += [f"    {ik} = {_fmt(iv)}" for ik, iv in val.items()]
            else:  # the covariance certificate's l_min' is printed as l_min
                name = "l_min" if key == "l_min_prime" else key
                lines.append(f"  {name} = {_fmt(val)}")
    return "\n".join(lines)
