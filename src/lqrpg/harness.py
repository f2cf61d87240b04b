"""Experiment harness: JSON configs, Monte Carlo orchestration, figure
presets, bounds reports, and CSV/JSON artifact emission.

Configs are strict: unknown keys are rejected and every violation is
reported at once, with its location. All randomness flows through one
master seed; repetitions own disjoint substream ranges, so outputs are
byte-identical for a fixed seed regardless of the thread count.
"""
from __future__ import annotations

import concurrent.futures
import csv
import json
import math
import os
import subprocess
import time
from dataclasses import dataclass, field, replace

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
    run_mb_gauss_newton,
    run_mb_npg,
    run_mb_pgd,
    run_mf_npg,
    run_mf_pgd,
    run_noisy_gradient_pgd,
)
from .plants import PlantModel, paper3x3, scalar_s1
from .sim import RolloutConfig, RolloutOracle, SeedSpec

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

_OPTIMIZERS = ("mb_pgd", "mb_npg", "mb_gauss_newton", "mf_pgd", "mf_npg",
               "noisy_pgd")

_TOP_KEYS = {"plant", "optimizer", "schedule", "rollout", "from_bounds",
             "gain", "monte_carlo", "output", "label"}


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
    budget: ErrorBudget | None = None
    cov_budget: CovErrorBudget | None = None
    cert_source: str = "offline"
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


def _cov_budget(budget: ErrorBudget) -> CovErrorBudget:
    """The covariance budget that shares the gradient budget's eps_l, eps_n,
    eps_r, delta_x and delta_n."""
    return CovErrorBudget(
        eps_l=budget.eps_l, eps_n=budget.eps_n, eps_r=budget.eps_r,
        delta_x=budget.delta_x, delta_n=budget.delta_n,
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


def _parse_positive(value, loc, v) -> float | None:
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not (math.isfinite(x) and x > 0):
        v.add(loc, f"must be a finite positive number, got {value!r}")
        return None
    return x


def _parse_plant(data, v) -> PlantModel | None:
    if not isinstance(data, dict):
        v.add("plant", "must be an object")
        return None
    known = {"preset", "noise_cov_scale", "sigma0_scale",
             "A", "B", "Q", "R", "Sigma_w", "Sigma_0"}
    for k in data:
        if k not in known:
            v.add(f"plant.{k}", "unknown key")
    preset = data.get("preset")
    try:
        if preset is not None:
            if preset == "paper3x3":
                plant = paper3x3(
                    noise_scale=float(data.get("noise_cov_scale", 1.0)),
                    sigma0_scale=float(data.get("sigma0_scale", 1.0)),
                )
            elif preset == "scalar_s1":
                plant = scalar_s1()
                scale = data.get("noise_cov_scale")
                if scale is not None:
                    plant = PlantModel(
                        A=plant.A, B=plant.B, Q=plant.Q, R=plant.R,
                        Sigma_w=float(scale) * np.eye(1), Sigma_0=plant.Sigma_0,
                    )
            else:
                v.add("plant.preset", f"unknown preset {preset!r}")
                return None
            return plant
        mats = {}
        for name in ("A", "B", "Q", "R", "Sigma_w", "Sigma_0"):
            if name not in data:
                v.add(f"plant.{name}", "missing (required without a preset)")
                return None
            m = _parse_matrix(data[name], f"plant.{name}", v)
            if m is None:
                return None
            mats[name] = m
        return PlantModel(**mats)
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

    plant = _parse_plant(data.get("plant", {"preset": "scalar_s1"}), v)

    opt_data = data.get("optimizer")
    name, stop, extras = None, StopRule(), {}
    if not isinstance(opt_data, dict):
        v.add("optimizer", "must be an object with a 'name'")
    else:
        known = {"name", "max_iters", "rel_subopt_tol", "grad_tol", "eta",
                 "noise_sigma", "use_vr", "n_v", "cert_source",
                 "max_consecutive_failures"}
        for k in opt_data:
            if k not in known:
                v.add(f"optimizer.{k}", "unknown key")
        name = opt_data.get("name")
        if name not in _OPTIMIZERS:
            v.add("optimizer.name", f"must be one of {_OPTIMIZERS}, got {name!r}")
        try:
            stop = StopRule(
                max_iters=int(opt_data.get("max_iters", 100)),
                rel_subopt_tol=opt_data.get("rel_subopt_tol"),
                grad_tol=opt_data.get("grad_tol"),
            )
        except (ConfigurationError, TypeError, ValueError) as exc:
            v.add("optimizer", str(exc))
        extras = opt_data

    sched_data = data.get("schedule", {"kind": "fixed", "eta": extras.get("eta", 0.01)})
    schedule = None
    try:
        if not isinstance(sched_data, dict):
            raise ConfigurationError("must be an object")
        allowed = {"kind", "eta", "a", "b", "c"}
        for k in sched_data:
            if k not in allowed:
                v.add(f"schedule.{k}", "unknown key")
        schedule = StepSchedule(**{k: sched_data[k] for k in sched_data if k in allowed})
    except (ConfigurationError, TypeError) as exc:
        v.add("schedule", str(exc))

    rollout, budget, cov_budget = None, None, None
    roll_data = data.get("rollout")
    fb_data = data.get("from_bounds")
    is_mf = name in ("mf_pgd", "mf_npg")
    if is_mf and roll_data is None and fb_data is None:
        v.add("rollout", "model-free runs need either explicit rollout "
                         "parameters {n,l,r,L0} or a 'from_bounds' budget")
    if roll_data is not None and fb_data is not None:
        v.add("rollout", "give exactly one of 'rollout' and 'from_bounds'")
    if roll_data is not None:
        try:
            if not isinstance(roll_data, dict):
                raise ConfigurationError("must be an object")
            allowed = {"n", "l", "r", "L0"}
            for k in roll_data:
                if k not in allowed:
                    v.add(f"rollout.{k}", "unknown key")
            L0 = roll_data.get("L0")
            if L0 is None and plant is not None:
                from .sim import default_initial_state_bound

                L0 = default_initial_state_bound(plant.Sigma_0)
            rollout = RolloutConfig(
                n=int(roll_data.get("n", 0)), l=int(roll_data.get("l", 0)),
                r=float(roll_data.get("r", 0.0)), L0=float(L0),
            )
        except (ConfigurationError, TypeError, ValueError) as exc:
            v.add("rollout", str(exc))
    if fb_data is not None:
        try:
            if not isinstance(fb_data, dict):
                raise ConfigurationError("must be an object")
            allowed = {"eps", "delta", "eps_d", "eps_l", "eps_n", "eps_r",
                       "delta_x", "delta_n", "delta_d"}
            for k in fb_data:
                if k not in allowed:
                    v.add(f"from_bounds.{k}", "unknown key")
            if "eps" in fb_data:
                budget = ErrorBudget.even_split(
                    float(fb_data["eps"]), float(fb_data.get("delta", 0.1))
                )
            else:
                budget = ErrorBudget(**{k: float(fb_data[k]) for k in fb_data})
            cov_budget = _cov_budget(budget)
        except (ConfigurationError, TypeError, ValueError) as exc:
            v.add("from_bounds", str(exc))

    K0 = None
    gain_data = data.get("gain", {"preset": "detuned_lqr"})
    q_scale = 50.0
    if isinstance(gain_data, dict) and "q_scale" in gain_data:
        q_scale = _parse_positive(gain_data["q_scale"], "gain.q_scale", v)
    try:
        if not (isinstance(gain_data, dict) and ("preset" in gain_data or "K0" in gain_data)):
            v.add("gain", "must give 'preset' or 'K0'")
        elif "preset" not in gain_data:
            # Parsed without a valid plant too, so its violations are reported.
            K0 = _parse_matrix(gain_data["K0"], "gain.K0", v)
            if K0 is not None and plant is not None:
                K0 = plant.check_gain(K0)
        elif plant is not None:
            preset = gain_data["preset"]
            if preset == "detuned_lqr":
                if q_scale is not None:
                    K0 = detuned_initial_gain(plant, q_scale=q_scale)
            elif preset == "zero":
                K0 = np.zeros((plant.n_u, plant.n_x))
            elif preset == "optimal":
                K0 = solve_dare(plant).K_star
            else:
                v.add("gain.preset", f"unknown preset {preset!r}")
    except ConfigurationError as exc:
        v.add("gain", str(exc))

    mc = data.get("monte_carlo", {})
    repetitions, master_seed = 1, 0
    if not isinstance(mc, dict):
        v.add("monte_carlo", "must be an object")
    else:
        for k in mc:
            if k not in {"repetitions", "master_seed"}:
                v.add(f"monte_carlo.{k}", "unknown key")
        try:
            repetitions = int(mc.get("repetitions", 1))
            master_seed = int(mc.get("master_seed", 0))
            if repetitions < 1:
                v.add("monte_carlo.repetitions", "must be >= 1")
            if master_seed < 0:
                v.add("monte_carlo.master_seed", "must be >= 0")
        except (TypeError, ValueError) as exc:
            v.add("monte_carlo", str(exc))

    out = data.get("output", {})
    out_dir, out_format = "out", "csv"
    if isinstance(out, dict):
        for k in out:
            if k not in {"dir", "format"}:
                v.add(f"output.{k}", "unknown key")
        out_dir = str(out.get("dir", "out"))
        out_format = str(out.get("format", "csv"))
        if out_format not in ("csv", "json"):
            v.add("output.format", f"must be csv or json, got {out_format!r}")
    else:
        v.add("output", "must be an object")

    noise_sigma = float(extras.get("noise_sigma", 0.0)) if extras else 0.0
    v.raise_if_any()

    return ExperimentConfig(
        plant=plant,
        optimizer=name,
        schedule=schedule,
        K0=K0,
        stop=stop,
        rollout=rollout,
        budget=budget,
        cov_budget=cov_budget,
        cert_source=str(extras.get("cert_source", "offline")),
        use_vr=bool(extras.get("use_vr", False)),
        n_v=int(extras.get("n_v", 1)),
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


def _run_single(cfg: ExperimentConfig, rep: int) -> ConvergenceTrace:
    """One Monte Carlo repetition; substreams are keyed by ``rep``."""
    seeds = SeedSpec(cfg.master_seed)
    if cfg.optimizer == "mb_pgd":
        return run_mb_pgd(cfg.plant, cfg.K0, cfg.schedule, cfg.stop)
    if cfg.optimizer == "mb_npg":
        return run_mb_npg(cfg.plant, cfg.K0, cfg.schedule, cfg.stop)
    if cfg.optimizer == "mb_gauss_newton":
        return run_mb_gauss_newton(cfg.plant, cfg.K0, cfg.schedule.eta, cfg.stop)
    if cfg.optimizer == "noisy_pgd":
        return run_noisy_gradient_pgd(
            cfg.plant, cfg.K0, cfg.schedule.eta, cfg.noise_sigma, cfg.stop,
            seeds, run_id=rep,
        )
    c_star = solve_dare(cfg.plant).C_star
    oracle = RolloutOracle(
        cfg.plant, seeds,
        L0=cfg.rollout.L0 if cfg.rollout is not None else None,
    )
    norms = PlantNorms.from_plant(cfg.plant)
    run_offset = rep * (cfg.stop.max_iters + 1)
    if cfg.optimizer == "mf_pgd":
        return run_mf_pgd(
            oracle, cfg.K0, cfg.schedule, cfg.stop,
            rollout_cfg=cfg.rollout, norms=norms, budget=cfg.budget,
            cert_source=cfg.cert_source, c_star=c_star,
            use_vr=cfg.use_vr, n_v=cfg.n_v, run_offset=run_offset,
        )
    if cfg.optimizer == "mf_npg":
        return run_mf_npg(
            oracle, cfg.K0, cfg.schedule, cfg.stop,
            rollout_cfg=cfg.rollout, norms=norms, budget=cfg.budget,
            cov_budget=cfg.cov_budget, cert_source=cfg.cert_source,
            c_star=c_star, run_offset=run_offset,
        )
    raise ConfigurationError(f"unknown optimizer {cfg.optimizer!r}")


def _write_run_csv(path: str, run_id: int, trace: ConvergenceTrace) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for rec in trace.records:
            w.writerow([
                run_id, rec.i, _fmt(rec.cost), _fmt(rec.rel_subopt),
                _fmt(rec.step), _fmt(rec.grad_norm), rec.status,
            ])


def _write_run_json(path: str, run_id: int, trace: ConvergenceTrace) -> None:
    payload = {
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
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _aggregate_rows(traces: list[ConvergenceTrace]) -> list[list]:
    """Aggregate rel_subopt across runs per iteration index.

    Diverged runs stop contributing to the means at the index where they
    diverge; they are counted in diverged_count instead.
    """
    max_len = max(len(t.records) for t in traces)
    rows = []
    for i in range(max_len):
        vals = []
        diverged = 0
        for t in traces:
            div_idx = next(
                (r.i for r in t.records if r.status == "diverged"), None
            )
            if div_idx is not None and i >= div_idx:
                diverged += 1
                continue
            if i < len(t.records):
                rec = t.records[i]
                if rec.status == "ok" and rec.rel_subopt is not None \
                        and math.isfinite(rec.rel_subopt):
                    vals.append(rec.rel_subopt)
        if vals:
            rows.append([i, _fmt(float(np.mean(vals))), _fmt(min(vals)),
                         _fmt(max(vals)), diverged])
        else:
            rows.append([i, "", "", "", diverged])
    return rows


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
    bundle (per-run CSV/JSON, aggregate CSV, manifest JSON).

    Results are collected in repetition order, so outputs do not depend on
    the thread count.
    """
    if cfg.variants:
        subs = []
        base = out_dir or cfg.out_dir
        for var in cfg.variants:
            subs.append(run_monte_carlo(var, os.path.join(base, var.label), threads))
        os.makedirs(base, exist_ok=True)
        manifest_path = os.path.join(base, "manifest.json")
        with open(manifest_path, "w") as fh:
            json.dump({"label": cfg.label,
                       "variants": [s.label for s in subs]}, fh, indent=2)
            fh.write("\n")
        return OutputBundle(
            out_dir=base, run_paths=[], aggregate_path="",
            manifest_path=manifest_path, traces=[], label=cfg.label,
            sub_bundles=tuple(subs),
        )

    t0 = time.monotonic()
    out_dir = out_dir or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    if threads == "auto":
        workers = min(os.cpu_count() or 1, cfg.repetitions)
    else:
        workers = max(1, int(threads))

    if workers == 1:
        traces = [_run_single(cfg, rep) for rep in range(cfg.repetitions)]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            traces = list(pool.map(lambda rep: _run_single(cfg, rep),
                                   range(cfg.repetitions)))

    ext = "csv" if cfg.out_format == "csv" else "json"
    run_paths = []
    for rep, trace in enumerate(traces):
        path = os.path.join(out_dir, f"run_{rep:04d}.{ext}")
        if ext == "csv":
            _write_run_csv(path, rep, trace)
        else:
            _write_run_json(path, rep, trace)
        run_paths.append(path)

    aggregate_path = os.path.join(out_dir, "aggregate.csv")
    with open(aggregate_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iteration", "mean_rel_subopt", "min_rel_subopt",
                    "max_rel_subopt", "diverged_count"])
        w.writerows(_aggregate_rows(traces))

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
        json.dump(manifest, fh, indent=2)
        fh.write("\n")

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
    """``base`` with ``overrides`` applied; variants whose plant sections are
    equal share the instance in ``plants``, and so its one Riccati solve."""
    data = json.loads(json.dumps(base))
    data["label"] = label
    for key, val in overrides.items():
        node = data
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = val
    cfg = config_from_dict(data)
    plant = plants.setdefault(json.dumps(data["plant"], sort_keys=True), cfg.plant)
    return replace(cfg, plant=plant)


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
            for mode in ("fixed", "adaptive"):
                if mode == "adaptive":
                    sched = {"kind": "adaptive_empirical", "a": 0.09, "b": 1, "c": 2}
                else:
                    sched = {"kind": "fixed",
                             "eta": _fig4_fixed_eta(scale)}
                variants.append(_variant(
                    base, f"noise{scale}_{mode}", plants,
                    **{"plant.noise_cov_scale": scale,
                       "plant.sigma0_scale": scale, "schedule": sched},
                ))
    else:
        raise ConfigurationError(f"unknown figure preset {name!r}")

    # run_monte_carlo reads only the label, out_dir and variants of a parent.
    return replace(variants[0], label=name, variants=tuple(variants))


def _fig4_fixed_eta(noise_scale: float) -> float:
    """Fixed natural-gradient step 0.09 / (1 + 2 Tr(P)) at the detuned
    starting gain, matching the adaptive rule's value there."""
    plant = paper3x3(noise_scale=noise_scale)
    K0 = detuned_initial_gain(plant)
    P = exact_quantities(plant, K0).P
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
    from .sim import default_initial_state_bound

    if L0 is None:
        L0 = default_initial_state_bound(plant.Sigma_0)
    norms = PlantNorms.from_plant(plant)
    pc = perturbation_constants(norms, cost_value, c_star)
    cov_budget = _cov_budget(budget)
    grad_cert = gradient_certificate(norms, cost_value, budget, L0, c_star=c_star)
    cov_cert = covariance_certificate(norms, cost_value, cov_budget, L0,
                                      c_star=c_star)
    report: dict = {
        "cost_value": cost_value,
        "c_star": c_star,
        "h": pc.h,
        "h_sigma": pc.h_sigma,
        "h_cost": pc.h_cost,
        "h_grad": pc.h_grad,
        "b_gain": pc.b_gain,
        "b_grad": pc.b_grad,
        "alpha1": pc.alpha1,
        "alpha2": pc.alpha2,
        "alpha3": pc.alpha3,
        "pgd_step_bound": pgd_step_bound(norms, cost_value, c_star),
        "npg_step_bound": npg_step_bound(norms, cost_value),
        "gradient": grad_cert.as_dict(),
        "covariance": cov_cert.as_dict(),
    }
    if fmt == "json":
        return _json_safe(report)
    lines = ["certificate report", f"  cost_value = {_fmt(cost_value)}"]
    for key in ("c_star", "h", "h_sigma", "h_cost", "h_grad", "b_gain",
                "b_grad", "alpha1", "alpha2", "alpha3", "pgd_step_bound",
                "npg_step_bound"):
        lines.append(f"  {key} = {_fmt(report[key])}")
    lines.append("gradient certificate")
    for key, val in report["gradient"].items():
        if key == "intermediates":
            for ik, iv in val.items():
                lines.append(f"    {ik} = {_fmt(iv)}")
        else:
            lines.append(f"  {key} = {_fmt(val)}")
    lines.append("covariance certificate")
    for key, val in report["covariance"].items():
        if key == "intermediates":
            for ik, iv in val.items():
                lines.append(f"    {ik} = {_fmt(iv)}")
        elif key == "l_min_prime":
            lines.append(f"  l_min = {_fmt(val)}")
        else:
            lines.append(f"  {key} = {_fmt(val)}")
    return "\n".join(lines)
