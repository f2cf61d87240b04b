"""Model-free gradient and covariance estimators.

The estimators talk to the plant only through a
:class:`~lqrpg.sim.RolloutOracle`: perturb the gain on the Frobenius sphere,
roll out, average. One core, :func:`_estimate`, estimates a group of oracles'
gains on the same draws; each public estimator is a group of one. Overflowed
rollouts mark a member's whole estimate failed rather than being dropped,
since dropping them would bias the estimator exactly in the high-noise regime
of interest.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .sim import Purpose, RolloutConfig, RolloutOracle, _costs, _roll

__all__ = [
    "GradientEstimate",
    "CovarianceEstimate",
    "BaselineEstimate",
    "estimate_gradient",
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


def _baselines(members, n_v, l, run_id, rollout_base) -> list:
    """Mean cost of n_v rollouts of gain K from each row k of x0s, on baseline
    ids rollout_base + [k n_v, (k+1) n_v), for each member (oracle, K, x0s) of
    a :func:`~lqrpg.sim._costs` group: per member (baselines, None), or
    (None, the first row with an overflowed rollout)."""
    if n_v < 1:
        raise ConfigurationError(f"n_v must be >= 1, got {n_v}")
    m = len(members[0][2])
    batches = [(oracle, np.broadcast_to(K, (m * n_v, *K.shape)),
                np.repeat(x0s, n_v, axis=0)) for oracle, K, x0s in members]
    ids = range(rollout_base, rollout_base + m * n_v)
    return [(None, bad // n_v) if bad is not None else
            (costs.reshape(m, n_v).mean(axis=1), None)
            for costs, bad in _costs(batches, l, run_id, ids, Purpose.BASELINE)]


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


def _estimate(members, cfg: RolloutConfig, run_id: int, n_v: int | None = None,
              cov: bool = False, keep_terms: bool = False) -> list:
    """One-point sphere estimates at ``run_id`` for a group of members
    (oracle, K) whose oracles share their master seed and (n_u, n_x): one
    (gradient, covariance or None) pair per member. The group draws its
    perturbations U_k and raw initial-state normals once; each member bounds
    its own initial states. With ``n_v``, a member subtracts from rollout k's
    cost the baseline of its initial state (:func:`_baselines`, ids from 0).
    The K + U_k batches go through one :func:`~lqrpg.sim._costs` call, or,
    with ``cov``, one :func:`~lqrpg.sim._roll` for the state covariance. A
    member fails alone, at its first overflowed rollout."""
    oracle, ids = members[0][0], range(cfg.n)
    U = oracle.draw_perturbations(cfg.r, run_id, ids)
    Z = oracle.seeds.draw(run_id, ids, Purpose.INITIAL_STATE, (oracle.n_x,))
    group = [(o, np.asarray(K, dtype=float), o._bounded(Z, run_id, ids))
             for o, K in members]
    meta = dict(n_used=cfg.n, l_used=cfg.l, r_used=cfg.r, run_id=run_id)
    found = ([(0.0, None)] * len(group) if n_v is None
             else _baselines(group, n_v, cfg.l, run_id, 0))
    out = [None if bad is None else _failed(o, bad, meta)
           for (o, _, _), (_, bad) in zip(group, found)]
    live = [j for j, e in enumerate(out) if e is None]
    batch = [(group[j][0], group[j][1] + U, group[j][2]) for j in live]
    if cov:
        for j, (o, Ks, _), (states, overflow) in zip(
                live, batch, _roll(batch, cfg.l, run_id, ids, Purpose.NOISE)):
            if np.any(overflow >= 0):
                out[j] = _failed(o, int(np.argmax(overflow >= 0)), meta)
                continue
            S = np.ascontiguousarray(states.transpose(1, 0, 2))  # id-major, einsum's order
            # Finite states can still give costs that overflow to inf.
            with np.errstate(over="ignore", invalid="ignore"):
                costs = o.stage_cost(states, Ks)
                C = np.einsum("kti,ktj->ij", S, S) / (cfg.n * cfg.l)
            out[j] = (_gradient(U, costs, 0.0, cfg, keep_terms, meta),
                      CovarianceEstimate(value=0.5 * (C + C.T), **meta))
    elif live:
        for j, (o, _, _), (costs, bad) in zip(
                live, batch, _costs(batch, cfg.l, run_id, ids, Purpose.NOISE)):
            out[j] = _failed(o, bad, meta) if bad is not None else (
                _gradient(U, costs, found[j][0], cfg, keep_terms, meta), None)
    return out


def estimate_gradient(oracle: RolloutOracle, K: np.ndarray, cfg: RolloutConfig,
                      run_id: int = 0, keep_terms: bool = False) -> GradientEstimate:
    """The gradient estimate of :func:`estimate_gradient_covariance`, bit for
    bit, without keeping the states for a covariance. ``cfg.L0`` is not read."""
    return _estimate([(oracle, K)], cfg, run_id, keep_terms=keep_terms)[0][0]


def estimate_gradient_covariance(
    oracle: RolloutOracle,
    K: np.ndarray,
    cfg: RolloutConfig,
    run_id: int = 0,
    keep_terms: bool = False,
) -> tuple[GradientEstimate, CovarianceEstimate]:
    """One-point sphere estimator of grad C(K) and Sigma_K.

    For each of n rollouts: perturb K by U_k with ||U_k||_F = r, roll out l
    steps from an initial state bounded by the oracle's ``L0`` (``cfg.L0`` is
    not read), and average the one-point terms (d / r^2) * C_hat_k * U_k,
    d = n_x n_u, for the gradient and the empirical state covariance for
    Sigma. Only K + U_k is rolled out; there is no K - U_k rollout.
    """
    return _estimate([(oracle, K)], cfg, run_id, cov=True, keep_terms=keep_terms)[0]


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

    Estimates the state-dependent baseline of ``x0``, used as given (no
    ``L0`` bound), for variance reduction. Baseline rollouts draw from
    dedicated noise substreams starting at ``rollout_base`` so they never
    collide with the main rollouts.
    """
    K = np.asarray(K, dtype=float)
    x0 = np.asarray(x0, dtype=float).reshape(oracle.n_x)
    baselines, bad = _baselines([(oracle, K, x0[None])], n_v, l, run_id,
                                rollout_base)[0]
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
    same initial state, bounded by the oracle's ``L0``; ``cfg.L0`` is not read.
    """
    return _estimate([(oracle, K)], cfg, run_id, n_v, keep_terms=keep_terms)[0][0]


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
