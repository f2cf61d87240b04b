"""Command-line front end.

Subcommands: exact, mb-run, mf-run, estimate, bounds, figure, validate.
Exit codes: 0 success, 2 configuration error, 3 numeric/divergence error in
a mandatory computation (including a float overflow), 4 IO error.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bounds import ErrorBudget
from .errors import (
    ConfigurationError,
    ConvergenceError,
    InstabilityError,
    NumericError,
    OverflowedRollout,
)
from .estimators import estimate_gradient_covariance
from .exact import exact_quantities, solve_dare
from .harness import (
    _json_safe,
    _load_json,
    config_from_dict,
    emit_bounds_report,
    figure_preset,
    parse_config,
    run_monte_carlo,
)
from .optimizers import OPTIMIZERS
from .sim import RolloutOracle, SeedSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _thread_count(text: str) -> int | str:
    """``--threads``: 'auto' or an integer >= 1."""
    if text == "auto" or text.isdecimal() and int(text) >= 1:
        return text if text == "auto" else int(text)
    raise argparse.ArgumentTypeError(f"expected 'auto' or an integer >= 1, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lqrpg",
        description="Policy-gradient optimization for average-cost LQR",
    )
    sub = p.add_subparsers(dest="command", required=True)

    flags = {
        "--seed": dict(type=int, default=None, help="master seed override"),
        "--out": dict(default=None, help="output directory override"),
        "--repetitions": dict(type=int, default=None,
                              help="Monte Carlo repetition override"),
        "--threads": dict(type=_thread_count, default=1,
                          help="forked worker processes for model-free "
                               "repetitions; outputs do not depend on it "
                               "('auto': one per usable CPU, or an integer >= 1)"),
        "--format": dict(choices=("csv", "json"), default=None,
                         help="artifact format override"),
    }

    def command(name, help, *names):
        """A subcommand that reads ``--config`` and the flags ``names``."""
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--config", required=True,
                        help="path to a JSON experiment config")
        for flag in names:
            sp.add_argument(flag, **flags[flag])
        return sp

    command("exact", "print exact closed-loop quantities and the optimal solution",
            "--format")
    command("mb-run", "run a model-based optimizer", *flags)
    command("mf-run", "run a model-free optimizer", *flags)
    command("estimate", "one-shot gradient/covariance estimate with error vs exact",
            "--seed")
    command("bounds", "print the certificate report at "
                      "ErrorBudget.even_split(0.4, 0.3)", "--format").add_argument(
        "--cost", type=float, default=None,
        help="cost level c (default: cost of the initial gain)")

    fig = sub.add_parser("figure", help="run a figure preset")
    fig.add_argument("name", choices=("fig1", "fig2", "fig3", "fig4"))
    fig.add_argument("--seed", type=int, default=0)
    fig.add_argument("--out", default="out")
    fig.add_argument("--repetitions", type=int, default=None)
    fig.add_argument("--threads", **flags["--threads"])

    val = sub.add_parser("validate", help="validate a config file")
    val.add_argument("config", help="path to a JSON experiment config")
    return p


def _load(args):
    """Read the config file, apply the command-line overrides, validate once.
    A section that is not an object is left for the validation to report."""
    data, given = _load_json(args.config), vars(args)
    overrides = {
        "monte_carlo": {"master_seed": given.get("seed"),
                        "repetitions": given.get("repetitions")},
        "output": {"dir": given.get("out"), "format": given.get("format")},
    }
    if isinstance(data, dict):
        for section, values in overrides.items():
            values = {k: v for k, v in values.items() if v is not None}
            node = data.get(section, {})
            if values and isinstance(node, dict):
                data[section] = {**node, **values}
    return config_from_dict(data)


def _cmd_exact(args) -> int:
    cfg = _load(args)
    q = exact_quantities(cfg.plant, cfg.K0)
    opt = solve_dare(cfg.plant)
    payload = {
        "gain": cfg.K0, "P": q.P, "Sigma": q.Sigma, "E": q.E,
        "cost": q.cost, "grad": q.grad,
        "K_star": opt.K_star, "P_star": opt.P_star,
        "Sigma_star": opt.Sigma_star, "C_star": opt.C_star,
    }
    if cfg.out_format == "json":
        print(json.dumps(_json_safe(payload), indent=2))
    else:
        for key, val in payload.items():
            if isinstance(val, np.ndarray):
                print(f"{key} =")
                for row in np.atleast_2d(val):
                    print("  " + " ".join(format(x, ".17g") for x in row))
            else:
                print(f"{key} = {format(val, '.17g')}")
    return EXIT_OK


def _cmd_run(args, kind: str) -> int:
    cfg = _load(args)
    wanted = tuple(name for name, k in OPTIMIZERS.items() if k == kind)
    if cfg.optimizer not in wanted:
        raise ConfigurationError(
            f"optimizer {cfg.optimizer!r} is not valid for {kind}-run "
            f"(expected one of {wanted})"
        )
    bundle = run_monte_carlo(cfg, threads=args.threads)
    print(f"wrote {len(bundle.run_paths)} run file(s) to {bundle.out_dir}")
    if any(t.terminal_reason == "diverged" for t in bundle.traces):
        print("warning: at least one run diverged (recorded in traces)")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    cfg = _load(args)
    if cfg.rollout is None:
        raise ConfigurationError("estimate requires explicit rollout parameters")
    oracle = RolloutOracle(cfg.plant, SeedSpec(cfg.master_seed), L0=cfg.rollout.L0)
    grad_est, cov_est = estimate_gradient_covariance(
        oracle, cfg.K0, cfg.rollout, run_id=0
    )
    payload = {
        "grad_estimate": grad_est.value,
        "cov_estimate": cov_est.value,
        "failed": grad_est.failed,
        "n": cfg.rollout.n, "l": cfg.rollout.l, "r": cfg.rollout.r,
    }
    if not grad_est.failed:
        q = exact_quantities(cfg.plant, cfg.K0)
        payload["grad_exact"] = q.grad
        payload["cov_exact"] = q.Sigma
        payload["grad_error_fro"] = float(
            np.linalg.norm(grad_est.value - q.grad, "fro")
        )
        payload["cov_error_2"] = float(np.linalg.norm(cov_est.value - q.Sigma, 2))
    print(json.dumps(_json_safe(payload), indent=2))
    if grad_est.failed:
        print("estimate failed: a rollout overflowed", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_bounds(args) -> int:
    cfg = _load(args)
    cost = args.cost
    if cost is None:
        cost = exact_quantities(cfg.plant, cfg.K0).cost
    # The text report is the one for any other format.
    report = emit_bounds_report(cfg.plant, cost, ErrorBudget.even_split(0.4, 0.3),
                                fmt=cfg.out_format)
    print(json.dumps(report, indent=2) if cfg.out_format == "json" else report)
    return EXIT_OK


def _cmd_figure(args) -> int:
    cfg = figure_preset(args.name, repetitions=args.repetitions,
                        master_seed=args.seed)
    bundle = run_monte_carlo(cfg, out_dir=args.out, threads=args.threads)
    n_runs = sum(len(b.run_paths) for b in bundle.sub_bundles) or len(bundle.run_paths)
    print(f"wrote {n_runs} run file(s) under {bundle.out_dir}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    parse_config(args.config)
    print("config OK")
    return EXIT_OK


_COMMANDS = {
    "exact": _cmd_exact,
    "mb-run": lambda args: _cmd_run(args, "mb"),
    "mf-run": lambda args: _cmd_run(args, "mf"),
    "estimate": _cmd_estimate,
    "bounds": _cmd_bounds,
    "figure": _cmd_figure,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InstabilityError, NumericError, ConvergenceError, OverflowedRollout,
            ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
