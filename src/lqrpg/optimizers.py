"""Policy-gradient optimization over stabilizing feedback gains.

Every optimizer is one loop, K <- step(K, direction, eta), driven by a
direction object. The exact direction evaluates the closed-loop quantities
(model-based gradient descent, natural gradient, Gauss-Newton, and the
noisy-gradient loop, whose step adds seeded Gaussian noise). The estimated
direction consumes a :class:`~lqrpg.sim.RolloutOracle` through the
zeroth-order estimators (model-free gradient descent and natural gradient).
Each public ``run_*`` function supplies a direction and a step map, so every
run emits the same :class:`ConvergenceTrace` schema and CSVs are uniform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bounds import (
    PlantNorms,
    covariance_certificate,
    gradient_certificate,
    npg_step_bound,
    pgd_step_bound,
)
from .errors import ConfigurationError, InstabilityError
from .estimators import estimate_gradient_covariance, estimate_gradient_vr
from .exact import ClosedLoopQuantities, exact_quantities, solve_dare
from .plants import PlantModel, smallest_eigenvalue
from .sim import Purpose, RolloutConfig, RolloutOracle, SeedSpec

__all__ = [
    "StepSchedule",
    "StopRule",
    "IterationRecord",
    "ConvergenceTrace",
    "run_mb_pgd",
    "run_mb_npg",
    "run_mb_gauss_newton",
    "run_mf_pgd",
    "run_mf_npg",
    "run_noisy_gradient_pgd",
]

# A trace is marked diverged once the cost exceeds this multiple of the
# initial cost (or a state overflows).
DIVERGENCE_CEILING_FACTOR = 1e6


@dataclass(frozen=True)
class StepSchedule:
    """Step-size rule shared by all loops.

    kind "fixed" uses eta as is; "adaptive_certified" evaluates the
    certified step bound at the current cost (gradient or natural-gradient
    flavor depending on the loop); "adaptive_empirical" uses
    a / (b + c * tr_P) where tr_P is the current cost divided by
    Tr(Sigma_w), a measurable proxy for Tr(P_K).
    """

    kind: str = "fixed"
    eta: float | None = None
    a: float | None = None
    b: float | None = None
    c: float | None = None

    def __post_init__(self):
        if self.kind not in ("fixed", "adaptive_certified", "adaptive_empirical"):
            raise ConfigurationError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "fixed" and not (self.eta is not None and self.eta > 0):
            raise ConfigurationError("fixed schedule requires eta > 0")
        if self.kind == "adaptive_empirical":
            for name in ("a", "b", "c"):
                v = getattr(self, name)
                if v is None or v < 0:
                    raise ConfigurationError(
                        f"adaptive_empirical requires nonnegative {name}"
                    )
            if self.a == 0:
                raise ConfigurationError("adaptive_empirical requires a > 0")

    def step_size(
        self,
        cost: float,
        norms: PlantNorms | None,
        flavor: str,
        c_star: float = 0.0,
    ) -> float:
        if self.kind == "fixed":
            return float(self.eta)
        if self.kind == "adaptive_certified":
            if norms is None:
                raise ConfigurationError(
                    "adaptive_certified schedule needs plant norms"
                )
            if flavor == "pgd":
                return pgd_step_bound(norms, cost, c_star)
            if flavor == "npg":
                return npg_step_bound(norms, cost)
            raise ConfigurationError(f"unknown step flavor {flavor!r}")
        # adaptive_empirical
        if norms is None or norms.trace_Sigma_w <= 0:
            raise ConfigurationError(
                "adaptive_empirical schedule needs Tr(Sigma_w) > 0"
            )
        tr_p = cost / norms.trace_Sigma_w
        return self.a / (self.b + self.c * tr_p)


@dataclass(frozen=True)
class StopRule:
    """Termination: iteration cap plus optional relative-suboptimality and
    gradient-norm tolerances."""

    max_iters: int = 100
    rel_subopt_tol: float | None = None
    grad_tol: float | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigurationError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class IterationRecord:
    i: int
    cost: float
    rel_subopt: float | None
    step: float
    grad_norm: float
    status: str  # "ok" | "diverged" | "estimate_failed"


@dataclass(frozen=True)
class ConvergenceTrace:
    records: list[IterationRecord]
    K_final: np.ndarray
    terminal_reason: str
    config: dict = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self):
        if not self.records:
            raise ConfigurationError("trace must contain at least one record")
        for j, rec in enumerate(self.records):
            if rec.i != j:
                raise ConfigurationError("record indices must be consecutive from 0")

    @property
    def costs(self) -> np.ndarray:
        return np.array([r.cost for r in self.records])

    @property
    def diverged(self) -> bool:
        return any(r.status == "diverged" for r in self.records)


def _rel_subopt(cost: float, c_star: float | None) -> float | None:
    if c_star is None or c_star == 0:
        return None
    return (cost - c_star) / c_star


def _stop_reason(stop: StopRule, i: int, rel: float | None, grad_norm: float):
    """Terminal reason at iteration ``i``, or None to keep stepping."""
    if i >= stop.max_iters:
        return "max_iters"
    if stop.rel_subopt_tol is not None and rel is not None and rel <= stop.rel_subopt_tol:
        return "converged"
    if stop.grad_tol is not None and grad_norm <= stop.grad_tol:
        return "stationary"
    return None


class _Point(NamedTuple):
    """One evaluation of the current gain: its cost, the (estimated)
    gradient, and the exact quantities or covariance estimate behind them."""

    i: int
    cost: float
    grad: np.ndarray
    q: ClosedLoopQuantities | None = None
    cov: object = None


class _Exact:
    """Direction from the exact closed-loop quantities.

    Solves the DARE once for the optimal cost, treats an unstable gain as
    divergence, and records the final gain after the last step.
    """

    failure = "diverged"
    records_final = True

    def __init__(self, plant: PlantModel, schedule: StepSchedule):
        self.plant = plant
        self.c_star = self.step_c_star = solve_dare(plant).C_star
        self.norms = None
        if schedule.kind != "fixed":
            self.norms = PlantNorms.from_plant(plant)

    def start(self, K0) -> np.ndarray:
        return self.plant.check_gain(K0)

    def evaluate(self, K: np.ndarray, i: int) -> _Point | None:
        try:
            q = exact_quantities(self.plant, K)
        except InstabilityError as exc:
            if i == 0:
                raise ConfigurationError(f"K0 is not stabilizing: {exc}") from exc
            return None
        return _Point(i, q.cost, q.grad, q=q)


class _Estimated:
    """Direction from zeroth-order estimates through a rollout oracle.

    The recorded cost is the mean of the iteration's rollout costs, the only
    cost observable without the model. Rollout parameters are ``rollout_cfg``
    when given; otherwise ``certify(cost)`` derives them from a certificate
    at the last observed cost, every iteration ("online") or once
    ("offline"). ``estimator(K, i)`` replaces the estimate entirely (testing
    hook).
    """

    failure = "estimate_failed"
    records_final = False
    step_c_star = 0.0

    def __init__(self, estimate, certify, rollout_cfg, norms, cert_source,
                 c_star, max_failures, estimator, run_offset):
        if cert_source not in ("online", "offline"):
            raise ConfigurationError(
                f"cert_source must be online/offline, got {cert_source}"
            )
        self.estimate, self.certify = estimate, certify
        self.rollout_cfg, self.norms, self.cert_source = rollout_cfg, norms, cert_source
        self.c_star, self.max_failures = c_star, max_failures
        self.estimator, self.run_offset = estimator, run_offset
        self.cost = None
        self.cached = None

    def start(self, K0) -> np.ndarray:
        return np.asarray(K0, dtype=float)

    def _config(self) -> RolloutConfig:
        if self.rollout_cfg is not None:
            return self.rollout_cfg
        if self.cached is not None:
            return self.cached
        if self.cost is None:
            raise ConfigurationError(
                "from-bounds model-free runs need an initial rollout configuration "
                "or an initial cost; provide rollout_cfg for the first iteration"
            )
        cfg = self.certify(self.cost)
        if self.cert_source == "offline":
            self.cached = cfg
        return cfg

    def evaluate(self, K: np.ndarray, i: int) -> _Point | None:
        if self.estimator is not None:
            g, cov = self.estimator(K, i)
        else:
            g, cov = self.estimate(K, self._config(), self.run_offset + i)
        if g.failed:
            return None
        cost = math.nan
        if g.rollout_costs is not None and len(g.rollout_costs):
            cost = self.cost = float(np.mean(g.rollout_costs))
        return _Point(i, cost, g.value, cov=cov)


def _optimize(direction, K0, schedule: StepSchedule, stop: StopRule, step,
              flavor: str, config: dict, seed: int | None = None) -> ConvergenceTrace:
    """The one optimization loop.

    Each iteration evaluates the current gain, stops on divergence (an
    infinite cost, or a NaN cost or one past ``DIVERGENCE_CEILING_FACTOR``
    times the first finite cost) or the stop rule, and otherwise moves to
    ``step(K, point, eta)``. Before a finite cost a NaN cost is unobservable,
    not divergence. A failed evaluation ends the run as ``direction.failure``
    "diverged"; otherwise it counts, like a step that returns None, toward
    ``direction.max_failures`` consecutive failures. Exact directions
    evaluate once more after the last step to record the final gain.
    """
    records: list[IterationRecord] = []

    def record(cost, rel, eta, grad_norm, status="ok"):
        records.append(IterationRecord(
            i=len(records), cost=float(cost), rel_subopt=rel, step=float(eta),
            grad_norm=float(grad_norm), status=status,
        ))

    def finish(K, reason) -> ConvergenceTrace:
        return ConvergenceTrace(records=records, K_final=np.array(K),
                                terminal_reason=reason, config=config, seed=seed)

    K = direction.start(K0)
    ceiling = None
    failures = 0
    for i in range(stop.max_iters + direction.records_final):
        pt = direction.evaluate(K, i)
        if pt is None:
            record(math.inf, None, 0.0, math.nan, status=direction.failure)
            if direction.failure == "diverged":
                return finish(K, "diverged")
        else:
            # A huge but finite estimated gradient has an infinite norm.
            with np.errstate(over="ignore"):
                grad_norm = float(np.linalg.norm(pt.grad, "fro"))
            rel = _rel_subopt(pt.cost, direction.c_star)
            if ceiling is None and math.isfinite(pt.cost):
                ceiling = DIVERGENCE_CEILING_FACTOR * max(pt.cost, 1.0)
            if math.isinf(pt.cost) or (
                ceiling is not None and (math.isnan(pt.cost) or pt.cost > ceiling)
            ):
                record(pt.cost, rel, 0.0, grad_norm, status="diverged")
                return finish(K, "diverged")
            reason = _stop_reason(stop, i, rel, grad_norm)
            if reason is not None:
                record(pt.cost, rel, 0.0, grad_norm)
                return finish(K, reason)
            eta = schedule.step_size(pt.cost, direction.norms, flavor,
                                     c_star=direction.step_c_star)
            K_next = step(K, pt, eta)
            if K_next is not None:
                failures = 0
                record(pt.cost, rel, eta, grad_norm)
                K = K_next
                continue
            record(pt.cost, rel, 0.0, grad_norm, status="estimate_failed")
        failures += 1
        if failures >= direction.max_failures:
            return finish(K, "too_many_failures")
    return finish(K, "max_iters")


def _gradient_step(K, pt, eta):
    return K - eta * pt.grad


def run_mb_pgd(
    plant: PlantModel, K0: np.ndarray, schedule: StepSchedule, stop: StopRule
) -> ConvergenceTrace:
    """Exact policy gradient descent K <- K - eta * grad C(K)."""
    return _optimize(
        _Exact(plant, schedule), K0, schedule, stop, _gradient_step, "pgd",
        config={"optimizer": "mb_pgd", "schedule": schedule.kind},
    )


def _natural_step(K, pt, eta):
    direct = K - 2.0 * eta * pt.q.E
    via_inverse = K - eta * pt.grad @ np.linalg.inv(pt.q.Sigma)
    err = np.linalg.norm(direct - via_inverse, "fro")
    if err > 1e-10 * max(1.0, np.linalg.norm(direct, "fro")):
        raise ConfigurationError(
            f"natural-gradient identity violated (discrepancy {err:.3e})"
        )
    return direct


def run_mb_npg(
    plant: PlantModel, K0: np.ndarray, schedule: StepSchedule, stop: StopRule
) -> ConvergenceTrace:
    """Exact natural policy gradient K <- K - 2 eta E_K.

    The update equals K - eta * grad C(K) Sigma_K^{-1}; both forms are
    evaluated and must agree to 1e-10, which guards the Lyapunov solves.
    """
    return _optimize(
        _Exact(plant, schedule), K0, schedule, stop, _natural_step, "npg",
        config={"optimizer": "mb_npg", "schedule": schedule.kind},
    )


def run_mb_gauss_newton(
    plant: PlantModel, K0: np.ndarray, eta: float, stop: StopRule
) -> ConvergenceTrace:
    """Gauss-Newton update K <- K - 2 eta (R + B'PB)^{-1} E_K.

    With eta = 1/2 each step is exactly the policy-improvement map
    -(R + B'PB)^{-1} B'PA.
    """
    if not (0.0 < eta <= 0.5):
        raise ConfigurationError(f"Gauss-Newton requires 0 < eta <= 1/2, got {eta}")

    def step(K, pt, eta_i):
        G = plant.R + plant.B.T @ pt.q.P @ plant.B
        return K - 2.0 * eta_i * np.linalg.solve(G, pt.q.E)

    schedule = StepSchedule(kind="fixed", eta=eta)
    return _optimize(
        _Exact(plant, schedule), K0, schedule, stop, step, "pgd",
        config={"optimizer": "mb_gauss_newton", "eta": eta},
    )


def run_noisy_gradient_pgd(
    plant: PlantModel,
    K0: np.ndarray,
    eta: float,
    noise_sigma: float,
    stop: StopRule,
    seeds: SeedSpec,
    run_id: int = 0,
) -> ConvergenceTrace:
    """Gradient descent on the exact gradient plus i.i.d. Gaussian noise:
    K <- K - eta (grad C(K) + Delta), Delta entries N(0, noise_sigma^2)."""
    if not eta > 0:
        raise ConfigurationError(f"eta must be positive, got {eta}")
    if noise_sigma < 0:
        raise ConfigurationError(f"noise_sigma must be >= 0, got {noise_sigma}")

    # Iteration i's noise is its (run_id, i) substream, drawn in one batch.
    deltas = np.zeros(stop.max_iters)
    if noise_sigma > 0:
        deltas = noise_sigma * seeds.draw(
            run_id, range(stop.max_iters), Purpose.PERTURBATION,
            lambda g: g.standard_normal((plant.n_u, plant.n_x)))

    def step(K, pt, eta_i):
        return K - eta_i * (pt.grad + deltas[pt.i])

    schedule = StepSchedule(kind="fixed", eta=eta)
    return _optimize(
        _Exact(plant, schedule), K0, schedule, stop, step, "pgd",
        config={"optimizer": "noisy_gradient_pgd", "eta": eta,
                "noise_sigma": noise_sigma},
        seed=seeds.master_seed,
    )


def run_mf_pgd(
    oracle: RolloutOracle,
    K0: np.ndarray,
    schedule: StepSchedule,
    stop: StopRule,
    rollout_cfg: RolloutConfig | None = None,
    norms: PlantNorms | None = None,
    budget=None,
    cert_source: str = "offline",
    c_star: float | None = None,
    use_vr: bool = False,
    n_v: int = 1,
    max_consecutive_failures: int = 5,
    estimator=None,
    run_offset: int = 0,
) -> ConvergenceTrace:
    """Model-free policy gradient descent with zeroth-order estimates.

    Rollout parameters come either from ``rollout_cfg`` or from the gradient
    certificate evaluated at the current empirical cost ("online") or once at
    the initial cost ("offline"). ``use_vr`` switches to the
    variance-reduced estimator with ``n_v`` baseline rollouts. ``estimator``
    overrides the estimator entirely (testing hook).
    """

    def estimate(K, cfg, rid):
        if use_vr:
            return estimate_gradient_vr(oracle, K, cfg, n_v, run_id=rid, keep_terms=True), None
        return estimate_gradient_covariance(oracle, K, cfg, run_id=rid, keep_terms=True)

    def certify(cost):
        if norms is None or budget is None:
            raise ConfigurationError(
                "model-free run needs explicit rollout parameters or norms+budget"
            )
        g = gradient_certificate(norms, cost, budget, L0=oracle.L0)
        return RolloutConfig(n=max(g.N1, g.N2), l=g.l_min, r=g.r_max, L0=oracle.L0)

    direction = _Estimated(estimate, certify, rollout_cfg, norms, cert_source,
                           c_star, max_consecutive_failures, estimator, run_offset)
    return _optimize(
        direction, K0, schedule, stop, _gradient_step, "pgd",
        config={"optimizer": "mf_pgd", "schedule": schedule.kind,
                "cert_source": cert_source, "use_vr": use_vr},
    )


def run_mf_npg(
    oracle: RolloutOracle,
    K0: np.ndarray,
    schedule: StepSchedule,
    stop: StopRule,
    rollout_cfg: RolloutConfig | None = None,
    norms: PlantNorms | None = None,
    budget=None,
    cov_budget=None,
    cert_source: str = "offline",
    c_star: float | None = None,
    cov_floor: float | None = None,
    max_consecutive_failures: int = 5,
    estimator=None,
    run_offset: int = 0,
) -> ConvergenceTrace:
    """Model-free natural policy gradient.

    Each iteration estimates the gradient and the average state covariance
    together and updates K <- K - eta * grad_hat Sigma_hat^{-1}. The
    covariance is inverted only when its smallest eigenvalue clears
    ``cov_floor`` (default lam_1(Sigma_w)/2 when norms are supplied, else
    1e-8); otherwise the iteration is an estimate failure. When both budgets
    are given, (n, l, r) combine the two certificates as max/max/min.
    """
    if cov_floor is None:
        cov_floor = norms.lam_Sigma_w / 2.0 if norms is not None else 1e-8

    def estimate(K, cfg, rid):
        return estimate_gradient_covariance(oracle, K, cfg, run_id=rid, keep_terms=True)

    def certify(cost):
        if norms is None or budget is None or cov_budget is None:
            raise ConfigurationError(
                "model-free NPG needs explicit rollout parameters or "
                "norms + both budgets"
            )
        g = gradient_certificate(norms, cost, budget, L0=oracle.L0)
        s = covariance_certificate(norms, cost, cov_budget, L0=oracle.L0)
        return RolloutConfig(
            n=max(max(g.N1, g.N2), s.n_min_prime),
            l=max(g.l_min, s.l_min_prime),
            r=min(g.r_max, s.r_max_prime),
            L0=oracle.L0,
        )

    def step(K, pt, eta):
        if pt.cov is None or pt.cov.failed:
            return None
        if smallest_eigenvalue(pt.cov.value) < cov_floor:
            return None
        return K - eta * pt.grad @ np.linalg.inv(pt.cov.value)

    direction = _Estimated(estimate, certify, rollout_cfg, norms, cert_source,
                           c_star, max_consecutive_failures, estimator, run_offset)
    return _optimize(
        direction, K0, schedule, stop, step, "npg",
        config={"optimizer": "mf_npg", "schedule": schedule.kind,
                "cert_source": cert_source},
    )
