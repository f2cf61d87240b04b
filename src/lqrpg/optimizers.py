"""Policy-gradient optimization over stabilizing feedback gains.

Every optimizer is one loop, K <- step(K, direction, eta), driven by a
direction object. The exact direction evaluates the closed-loop quantities
(model-based gradient descent, natural gradient and Gauss-Newton, and the
noisy-gradient loop, gradient descent whose step adds seeded Gaussian
noise), so each is a step rule on the same direction. The estimated
direction consumes a :class:`~lqrpg.sim.RolloutOracle` through the
zeroth-order estimators (model-free gradient descent and natural gradient).
Each public ``run_*`` function supplies a direction and a step map, so every
run emits the same :class:`ConvergenceTrace` schema and CSVs are uniform.
The loop advances a stack of runs in lockstep and yields after each
iteration, and each run has its own rules; :func:`_round_robin` drives
several loops one iteration each in turn. The public functions run a stack
of one, the harness runs every exact-gradient run of a grid on one plant
as one stack, and a grid's model-free variants as loops driven round-robin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import PlantNorms, npg_step_bound, pgd_step_bound
from .errors import ConfigurationError
from .estimators import (estimate_gradient, estimate_gradient_covariance,
                         estimate_gradient_vr)
from .exact import ClosedLoopQuantities, _exact_stack, _not_stabilizing, solve_dare
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
# A model-free run ends after this many consecutive failed iterations.
MAX_CONSECUTIVE_FAILURES = 5
# Every optimizer by config name, with its run command: "mb" ones follow the
# exact gradient, a grid's runs on one plant as one stack; "mf" ones estimate it.
OPTIMIZERS = {"mb_pgd": "mb", "mb_npg": "mb", "mb_gauss_newton": "mb",
              "mf_pgd": "mf", "mf_npg": "mf", "noisy_pgd": "mb"}
# Every step-schedule kind, with the parameters it reads.
SCHEDULE_PARAMS = {"fixed": {"eta"}, "adaptive_certified": set(),
                   "adaptive_empirical": {"a", "b", "c"}}


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
        if self.kind not in SCHEDULE_PARAMS:
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
    """One evaluation of a run's current gain at iteration ``i``: its cost,
    the (estimated) gradient, and the exact quantities or covariance
    estimate behind them."""

    i: int
    cost: float
    grad: np.ndarray
    q: ClosedLoopQuantities | None = None
    cov: object = None


class _Exact:
    """Direction from the exact closed-loop quantities.

    Solves the DARE once for the optimal cost, takes the plant norms when a
    run's schedule is adaptive, evaluates the gains of all active runs in one
    call of the batched core, treats an unstable gain as the divergence of
    its run, and records the final gain after the last step.
    """

    failure = "diverged"
    records_final = True

    def __init__(self, plant: PlantModel, runs: list[_Run]):
        self.plant = plant
        self.c_star = self.step_c_star = solve_dare(plant).C_star
        adaptive = any(run.schedule.kind != "fixed" for run in runs)
        self.norms = PlantNorms.from_plant(plant) if adaptive else None

    def start(self, K0s) -> list[np.ndarray]:
        return [self.plant.check_gain(K0) for K0 in K0s]

    def evaluate(self, Ks: list, runs: list[int], i: int) -> list[_Point | None]:
        s = _exact_stack(self.plant, np.array([Ks[r] for r in runs]))
        stable = s.rho < 1.0
        if i == 0 and not stable.all():
            exc = _not_stabilizing(float(s.rho[~stable][0]))
            raise ConfigurationError(f"K0 is not stabilizing: {exc}") from exc
        points, j = [], 0
        for r, ok in zip(runs, stable):
            if not ok:
                points.append(None)
                continue
            q = ClosedLoopQuantities(P=s.P[j], Sigma=s.Sigma[j], E=s.E[j],
                                     cost=float(s.cost[j]), grad=s.grad[j])
            points.append(_Point(i, q.cost, q.grad, q=q))
            j += 1
        return points


class _Estimated:
    """Direction from zeroth-order estimates through a rollout oracle, for a
    stack of one run.

    The recorded cost is the mean of the iteration's rollout costs, the only
    cost observable without the model. Every estimate uses ``rollout_cfg``,
    with run id ``run_offset + i`` at iteration i, unless the testing hook
    ``estimator(K, i)`` replaces it.
    """

    failure = "estimate_failed"
    records_final = False
    step_c_star = 0.0

    def __init__(self, estimate, rollout_cfg, norms, c_star, estimator, run_offset):
        if rollout_cfg is None and estimator is None:
            raise ConfigurationError("model-free runs need a RolloutConfig")
        self.estimate, self.rollout_cfg, self.norms = estimate, rollout_cfg, norms
        self.c_star, self.estimator, self.run_offset = c_star, estimator, run_offset

    def start(self, K0s) -> list[np.ndarray]:
        return [np.asarray(K0, dtype=float) for K0 in K0s]

    def evaluate(self, Ks: list, runs: list[int], i: int) -> list[_Point | None]:
        (r,) = runs
        if self.estimator is not None:
            g, cov = self.estimator(Ks[r], i)
        else:
            g, cov = self.estimate(Ks[r], self.rollout_cfg, self.run_offset + i)
        if g.failed:
            return [None]
        cost = math.nan
        if g.rollout_costs is not None and len(g.rollout_costs):
            cost = float(np.mean(g.rollout_costs))
        return [_Point(i, cost, g.value, cov=cov)]


class _Run:
    """Start gain, schedule, stop rule, step rule and step-bound flavor of
    one run, then its records, divergence ceiling, failure count and end."""

    def __init__(self, K0, schedule: StepSchedule, stop: StopRule, step, flavor: str):
        self.K0, self.schedule, self.stop = K0, schedule, stop
        self.step, self.flavor = step, flavor
        self.records: list[IterationRecord] = []
        self.ceiling = None
        self.failures = 0
        self.reason = None

    def record(self, cost, rel, eta, grad_norm, status="ok"):
        self.records.append(IterationRecord(
            i=len(self.records), cost=float(cost), rel_subopt=rel, step=float(eta),
            grad_norm=float(grad_norm), status=status,
        ))


def _optimize(direction, runs: list[_Run]):
    """The one optimization loop, over a stack of runs in lockstep: a
    generator that yields None after each iteration, then the traces.

    Each iteration evaluates the current gains of the runs still active in
    one ``direction.evaluate`` call. A run stops on divergence (an infinite
    cost, or a NaN cost or one past ``DIVERGENCE_CEILING_FACTOR`` times its
    first finite cost) or its stop rule, and otherwise moves to its
    ``step(K, point, eta)`` with the step of its schedule. Before a finite
    cost a NaN cost is unobservable, not divergence. A failed evaluation ends
    the run as ``direction.failure`` "diverged"; otherwise it counts, like a
    step that returns None, toward ``MAX_CONSECUTIVE_FAILURES`` consecutive
    failures. Exact directions evaluate once more after the last step to
    record the final gain. One run's end leaves the others running.
    """
    Ks = direction.start([run.K0 for run in runs])
    active = list(range(len(Ks)))
    for i in range(max(run.stop.max_iters for run in runs) + direction.records_final):
        for r, pt in zip(active, direction.evaluate(Ks, active, i)):
            run = runs[r]
            if pt is None:
                run.record(math.inf, None, 0.0, math.nan, status=direction.failure)
                if direction.failure == "diverged":
                    run.reason = "diverged"
                    continue
            else:
                # A huge but finite estimated gradient has an infinite norm.
                with np.errstate(over="ignore"):
                    grad_norm = float(np.linalg.norm(pt.grad, "fro"))
                rel = _rel_subopt(pt.cost, direction.c_star)
                if run.ceiling is None and math.isfinite(pt.cost):
                    run.ceiling = DIVERGENCE_CEILING_FACTOR * max(pt.cost, 1.0)
                if math.isinf(pt.cost) or (
                    run.ceiling is not None
                    and (math.isnan(pt.cost) or pt.cost > run.ceiling)
                ):
                    run.record(pt.cost, rel, 0.0, grad_norm, status="diverged")
                    run.reason = "diverged"
                    continue
                reason = _stop_reason(run.stop, i, rel, grad_norm)
                if reason is not None:
                    run.record(pt.cost, rel, 0.0, grad_norm)
                    run.reason = reason
                    continue
                eta = run.schedule.step_size(pt.cost, direction.norms, run.flavor,
                                             c_star=direction.step_c_star)
                K_next = run.step(Ks[r], pt, eta)
                if K_next is not None:
                    run.failures = 0
                    run.record(pt.cost, rel, eta, grad_norm)
                    Ks[r] = K_next
                    continue
                run.record(pt.cost, rel, 0.0, grad_norm, status="estimate_failed")
            run.failures += 1
            if run.failures >= MAX_CONSECUTIVE_FAILURES:
                run.reason = "too_many_failures"
        active = [r for r in active if runs[r].reason is None]
        if not active:
            break
        yield None
    yield [ConvergenceTrace(records=run.records, K_final=np.array(K),
                             terminal_reason=run.reason or "max_iters")
            for run, K in zip(runs, Ks)]


def _round_robin(loops: list) -> list[list[ConvergenceTrace]]:
    """Drive :func:`_optimize` loops one iteration each in turn, so that
    every live loop makes iteration i before any makes i + 1; the traces of
    each loop, in order."""
    traces = [None] * len(loops)
    while None in traces:
        for j, loop in enumerate(loops):
            if traces[j] is None:
                traces[j] = next(loop)
    return traces


def _exact(plant, K0s, schedule, stop, step, flavor) -> list[ConvergenceTrace]:
    """Traces of exact-gradient runs from ``K0s``, each moved by ``step``."""
    return _exact_runs(plant, [_Run(K0, schedule, stop, step, flavor) for K0 in K0s])


def _exact_runs(plant, runs: list[_Run]) -> list[ConvergenceTrace]:
    """Traces of the exact-gradient ``runs`` on ``plant``, as one stack."""
    return _round_robin([_optimize(_Exact(plant, runs), runs)])[0]


def _gradient_step(K, pt, eta):
    return K - eta * pt.grad


def _pgd(plant, K0s, schedule, stop, noise_sigma=0.0, seeds=None,
         run_ids=()) -> list[ConvergenceTrace]:
    """Gradient descent on the exact gradient plus i.i.d. N(0, noise_sigma^2)
    noise, which run r of the stack draws from the substreams of
    ``run_ids[r]``; at ``noise_sigma`` 0, exact gradient descent, no draws."""
    if noise_sigma < 0:
        raise ConfigurationError(f"noise_sigma must be >= 0, got {noise_sigma}")
    if noise_sigma == 0:
        return _exact(plant, K0s, schedule, stop, _gradient_step, "pgd")
    shape = (plant.n_u, plant.n_x)
    steps = [_noisy_step(noise_sigma, _noise_rows(seeds, run_id, stop.max_iters, shape))
             for run_id in run_ids]
    return _exact_runs(plant, [_Run(K0, schedule, stop, step, "pgd")
                               for K0, step in zip(K0s, steps)])


def _noise_rows(seeds: SeedSpec, run_id: int, length: int, shape) -> np.ndarray:
    """Run ``run_id``'s raw gradient noise, one N(0, 1) row per iteration:
    row i is its (run_id, i) substream, so a shorter draw is a prefix."""
    return seeds.draw(run_id, range(length), Purpose.PERTURBATION, shape)


def _noisy_step(noise_sigma, normals):
    """Gradient step on the exact gradient plus noise_sigma * normals[i]."""
    return lambda K, pt, eta: K - eta * (pt.grad + noise_sigma * normals[pt.i])


def _natural_step(K, pt, eta):
    direct = K - 2.0 * eta * pt.q.E
    via_inverse = K - eta * pt.grad @ np.linalg.inv(pt.q.Sigma)
    err = np.linalg.norm(direct - via_inverse, "fro")
    if err > 1e-10 * max(1.0, np.linalg.norm(direct, "fro")):
        raise ConfigurationError(
            f"natural-gradient identity violated (discrepancy {err:.3e})"
        )
    return direct


def _gauss_newton_step(plant):
    """The Gauss-Newton step rule K <- K - 2 eta (R + B'PB)^{-1} E_K."""
    return lambda K, pt, eta: K - 2.0 * eta * np.linalg.solve(
        plant.R + plant.B.T @ pt.q.P @ plant.B, pt.q.E)


def _gauss_newton_schedule(schedule: StepSchedule) -> StepSchedule:
    """``schedule`` if Gauss-Newton may take it: a fixed step 0 < eta <= 1/2."""
    if schedule.kind != "fixed" or not 0.0 < schedule.eta <= 0.5:
        raise ConfigurationError("Gauss-Newton requires a fixed step 0 < eta <= 1/2, "
                                 f"got {schedule.kind} eta={schedule.eta}")
    return schedule


def _exact_rule(optimizer: str, plant: PlantModel) -> tuple:
    """Step rule and step-bound flavor of exact-gradient ``optimizer`` on
    ``plant``; noisy_pgd adds its noise to the mb_pgd rule."""
    if optimizer == "mb_npg":
        return _natural_step, "npg"
    if optimizer == "mb_gauss_newton":
        return _gauss_newton_step(plant), "pgd"
    return _gradient_step, "pgd"


def run_mb_pgd(
    plant: PlantModel, K0: np.ndarray, schedule: StepSchedule, stop: StopRule
) -> ConvergenceTrace:
    """Exact policy gradient descent K <- K - eta * grad C(K)."""
    return _pgd(plant, [K0], schedule, stop)[0]


def run_mb_npg(
    plant: PlantModel, K0: np.ndarray, schedule: StepSchedule, stop: StopRule
) -> ConvergenceTrace:
    """Exact natural policy gradient K <- K - 2 eta E_K.

    The update equals K - eta * grad C(K) Sigma_K^{-1}; both forms are
    evaluated and must agree to 1e-10, which guards the Lyapunov solves.
    """
    return _exact(plant, [K0], schedule, stop, *_exact_rule("mb_npg", plant))[0]


def run_mb_gauss_newton(
    plant: PlantModel, K0: np.ndarray, eta: float, stop: StopRule
) -> ConvergenceTrace:
    """Gauss-Newton update K <- K - 2 eta (R + B'PB)^{-1} E_K.

    With eta = 1/2 each step is exactly the policy-improvement map
    -(R + B'PB)^{-1} B'PA.
    """
    schedule = _gauss_newton_schedule(StepSchedule(kind="fixed", eta=eta))
    return _exact(plant, [K0], schedule, stop, *_exact_rule("mb_gauss_newton", plant))[0]


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
    return _pgd(plant, [K0], StepSchedule(kind="fixed", eta=eta), stop,
                noise_sigma, seeds, [run_id])[0]


def run_mf_pgd(
    oracle: RolloutOracle,
    K0: np.ndarray,
    schedule: StepSchedule,
    stop: StopRule,
    rollout_cfg: RolloutConfig | None = None,
    norms: PlantNorms | None = None,
    c_star: float | None = None,
    use_vr: bool = False,
    n_v: int = 1,
    estimator=None,
    run_offset: int = 0,
) -> ConvergenceTrace:
    """Model-free policy gradient descent with zeroth-order estimates.

    Every iteration estimates the gradient with the rollout parameters
    ``rollout_cfg`` (n, l, r, L0). ``use_vr`` switches to the
    variance-reduced estimator with ``n_v`` baseline rollouts. ``norms`` is
    needed only by the adaptive step schedules. ``estimator`` overrides the
    estimator entirely (testing hook) and then ``rollout_cfg`` may be None.
    """
    return _round_robin([_mf_pgd(oracle, K0, schedule, stop, rollout_cfg, norms,
                                 c_star, use_vr, n_v, estimator, run_offset)])[0][0]


def _mf_pgd(oracle, K0, schedule, stop, rollout_cfg, norms, c_star, use_vr, n_v,
            estimator, run_offset):
    """The :func:`_optimize` loop of :func:`run_mf_pgd`."""

    def estimate(K, cfg, rid):
        if use_vr:
            return estimate_gradient_vr(oracle, K, cfg, n_v, run_id=rid, keep_terms=True), None
        return estimate_gradient(oracle, K, cfg, run_id=rid, keep_terms=True), None

    direction = _Estimated(estimate, rollout_cfg, norms, c_star, estimator, run_offset)
    return _optimize(direction, [_Run(K0, schedule, stop, _gradient_step, "pgd")])


def run_mf_npg(
    oracle: RolloutOracle,
    K0: np.ndarray,
    schedule: StepSchedule,
    stop: StopRule,
    rollout_cfg: RolloutConfig | None = None,
    norms: PlantNorms | None = None,
    c_star: float | None = None,
    estimator=None,
    run_offset: int = 0,
) -> ConvergenceTrace:
    """Model-free natural policy gradient.

    Each iteration estimates the gradient and the average state covariance
    together, from the same ``rollout_cfg`` rollouts, and updates
    K <- K - eta * grad_hat Sigma_hat^{-1}. The covariance is inverted only
    when its smallest eigenvalue clears lam_1(Sigma_w)/2 when norms are
    supplied, else 1e-8; otherwise the iteration is an estimate failure.
    ``estimator`` is the testing hook of :func:`run_mf_pgd`.
    """
    return _round_robin([_mf_npg(oracle, K0, schedule, stop, rollout_cfg, norms,
                                 c_star, estimator, run_offset)])[0][0]


def _mf_npg(oracle, K0, schedule, stop, rollout_cfg, norms, c_star, estimator,
            run_offset):
    """The :func:`_optimize` loop of :func:`run_mf_npg`."""
    cov_floor = norms.lam_Sigma_w / 2.0 if norms is not None else 1e-8

    def estimate(K, cfg, rid):
        return estimate_gradient_covariance(oracle, K, cfg, run_id=rid, keep_terms=True)

    def step(K, pt, eta):
        if pt.cov is None or pt.cov.failed:
            return None
        if smallest_eigenvalue(pt.cov.value) < cov_floor:
            return None
        return K - eta * pt.grad @ np.linalg.inv(pt.cov.value)

    direction = _Estimated(estimate, rollout_cfg, norms, c_star, estimator, run_offset)
    return _optimize(direction, [_Run(K0, schedule, stop, step, "npg")])
