"""Model-free gradient and covariance estimators.

All three estimators talk to the plant only through a
:class:`~lqrpg.sim.RolloutOracle`: perturb the gain on the Frobenius sphere,
roll out, average. Overflowed rollouts mark the whole estimate failed rather
than being dropped, since dropping them would bias the estimator exactly in
the high-noise regime of interest.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .sim import Purpose, RolloutConfig, RolloutOracle

__all__ = [
    "GradientEstimate",
    "CovarianceEstimate",
    "BaselineEstimate",
    "estimate_gradient_covariance",
    "estimate_baseline",
    "estimate_gradient_vr",
    "estimator_diagnostics",
    "EstimatorDiagnostics",
]


@dataclass(frozen=True)
class GradientEstimate:
    value: np.ndarray  # (n_u, n_x)
    n_used: int
    l_used: int
    r_used: float
    run_id: int
    failed: bool = False
    failed_rollout: int | None = None
    per_rollout_terms: np.ndarray | None = None  # (n, n_u, n_x) when retained
    rollout_costs: np.ndarray | None = None


@dataclass(frozen=True)
class CovarianceEstimate:
    value: np.ndarray  # (n_x, n_x)
    n_used: int
    l_used: int
    r_used: float
    run_id: int
    failed: bool = False
    failed_rollout: int | None = None


@dataclass(frozen=True)
class BaselineEstimate:
    value: float
    n_v_used: int
    x0: np.ndarray
    failed: bool = False


def _rollout_costs(oracle, Ks, x0s, l, run_id, ids, purpose):
    """Roll out and price one batch: (states, costs (n,), None), or
    (states, None, index of the first overflowed rollout)."""
    states, overflow = oracle.rollout_batch(Ks, x0s, l, run_id, ids, purpose)
    if np.any(overflow >= 0):
        return states, None, int(np.argmax(overflow >= 0))
    # Finite states can still give costs that overflow to inf.
    with np.errstate(over="ignore", invalid="ignore"):
        return states, oracle.stage_cost(states, Ks), None


def _baselines(oracle, K, x0s, n_v, l, run_id, rollout_base):
    """Mean cost of n_v rollouts of K from each row k of x0s, on baseline ids
    rollout_base + [k n_v, (k+1) n_v): (baselines, None), or (None, the first
    row with an overflowed rollout)."""
    if n_v < 1:
        raise ConfigurationError(f"n_v must be >= 1, got {n_v}")
    m = len(x0s)
    Ks = np.broadcast_to(K, (m * n_v, *K.shape))
    ids = range(rollout_base, rollout_base + m * n_v)
    _, costs, bad = _rollout_costs(oracle, Ks, np.repeat(x0s, n_v, axis=0), l,
                                   run_id, ids, Purpose.BASELINE)
    if bad is not None:
        return None, bad // n_v
    return costs.reshape(m, n_v).mean(axis=1), None


def _failed(oracle, bad, meta):
    """NaN gradient and covariance estimates, failed at rollout ``bad``."""
    fail = dict(failed=True, failed_rollout=bad, **meta)
    return (
        GradientEstimate(value=np.full((oracle.n_u, oracle.n_x), np.nan), **fail),
        CovarianceEstimate(value=np.full((oracle.n_x, oracle.n_x), np.nan), **fail),
    )


def _gradient(U, costs, baselines, cfg, keep_terms, meta) -> GradientEstimate:
    """Sphere estimate (n_x n_u / r^2) mean_k (C_k - b_k) U_k; the plain
    estimator's baselines are 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        terms = (U[0].size / cfg.r**2) * (costs - baselines)[:, None, None] * U
        value = terms.mean(axis=0)
    return GradientEstimate(
        value=value,
        per_rollout_terms=terms if keep_terms else None,
        rollout_costs=costs if keep_terms else None,
        **meta,
    )


def estimate_gradient_covariance(
    oracle: RolloutOracle,
    K: np.ndarray,
    cfg: RolloutConfig,
    run_id: int = 0,
    keep_terms: bool = False,
) -> tuple[GradientEstimate, CovarianceEstimate]:
    """One-point sphere estimator of grad C(K) and Sigma_K.

    For each of n rollouts: perturb K by U_k with ||U_k||_F = r, roll out l
    steps from a bounded initial state, and average the one-point terms
    (d / r^2) * C_hat_k * U_k, d = n_x n_u, for the gradient and the
    empirical state covariance for Sigma. Only K + U_k is rolled out; there
    is no K - U_k rollout.
    """
    K = np.asarray(K, dtype=float)
    U = oracle.draw_perturbations(cfg.r, run_id, range(cfg.n))
    x0s = oracle.draw_initial_states(run_id, range(cfg.n))
    states, costs, bad = _rollout_costs(oracle, K + U, x0s, cfg.l, run_id,
                                        range(cfg.n), Purpose.NOISE)
    meta = dict(n_used=cfg.n, l_used=cfg.l, r_used=cfg.r, run_id=run_id)
    if bad is not None:
        return _failed(oracle, bad, meta)
    with np.errstate(over="ignore", invalid="ignore"):
        cov = np.einsum("kti,ktj->ij", states, states) / (cfg.n * cfg.l)
        cov = 0.5 * (cov + cov.T)
    return (_gradient(U, costs, 0.0, cfg, keep_terms, meta),
            CovarianceEstimate(value=cov, **meta))


def estimate_baseline(
    oracle: RolloutOracle,
    K: np.ndarray,
    x0: np.ndarray,
    n_v: int,
    l: int,
    run_id: int = 0,
    rollout_base: int = 0,
) -> BaselineEstimate:
    """Average finite-horizon cost of n_v unperturbed rollouts from one x0.

    Estimates the state-dependent baseline used for variance reduction.
    Baseline rollouts draw from dedicated noise substreams starting at
    ``rollout_base`` so they never collide with the main rollouts.
    """
    K = np.asarray(K, dtype=float)
    x0 = np.asarray(x0, dtype=float).reshape(oracle.n_x)
    baselines, bad = _baselines(oracle, K, x0[None], n_v, l, run_id, rollout_base)
    if bad is not None:
        return BaselineEstimate(value=np.nan, n_v_used=n_v, x0=x0, failed=True)
    return BaselineEstimate(value=float(baselines[0]), n_v_used=n_v, x0=x0)


def estimate_gradient_vr(
    oracle: RolloutOracle,
    K: np.ndarray,
    cfg: RolloutConfig,
    n_v: int,
    run_id: int = 0,
    keep_terms: bool = False,
) -> GradientEstimate:
    """Variance-reduced sphere estimator: subtract a per-initial-state
    baseline from each rollout cost before averaging.

    cfg.n plays the role of the outer rollout count; each outer rollout
    estimates its own baseline, as :func:`estimate_baseline` with
    ``rollout_base = k * n_v``, from n_v unperturbed rollouts started at the
    same initial state.
    """
    K = np.asarray(K, dtype=float)
    x0s = oracle.draw_initial_states(run_id, range(cfg.n))
    U = oracle.draw_perturbations(cfg.r, run_id, range(cfg.n))
    meta = dict(n_used=cfg.n, l_used=cfg.l, r_used=cfg.r, run_id=run_id)
    baselines, bad = _baselines(oracle, K, x0s, n_v, cfg.l, run_id, 0)
    if bad is None:
        _, costs, bad = _rollout_costs(oracle, K + U, x0s, cfg.l, run_id,
                                       range(cfg.n), Purpose.NOISE)
    if bad is not None:
        return _failed(oracle, bad, meta)[0]
    return _gradient(U, costs, baselines, cfg, keep_terms, meta)


@dataclass(frozen=True)
class EstimatorDiagnostics:
    mean: np.ndarray
    componentwise_variance: np.ndarray
    frobenius_errors: np.ndarray | None
    mean_frobenius_error: float | None


def estimator_diagnostics(
    estimates, reference: np.ndarray | None = None
) -> EstimatorDiagnostics:
    """Sample mean and unbiased component-wise variance of a batch of
    gradient estimates, with Frobenius errors against an optional exact
    reference."""
    values = [e.value for e in estimates if not e.failed]
    if not values:
        raise ConfigurationError("no successful estimates to summarize")
    stack = np.stack(values)
    mean = stack.mean(axis=0)
    if len(values) > 1:
        var = stack.var(axis=0, ddof=1)
    else:
        var = np.zeros_like(mean)
    errors = None
    mean_err = None
    if reference is not None:
        errors = np.array([np.linalg.norm(v - reference, "fro") for v in values])
        mean_err = float(errors.mean())
    return EstimatorDiagnostics(
        mean=mean,
        componentwise_variance=var,
        frobenius_errors=errors,
        mean_frobenius_error=mean_err,
    )
