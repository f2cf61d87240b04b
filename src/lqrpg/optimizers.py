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
The loop holds a stack of runs as arrays and advances it in lockstep,
yielding after each iteration; each run has its own rules, and each step
rule moves all of its runs at once. :func:`_round_robin` drives several
loops one iteration each in turn. The public functions run a stack of one,
the harness every exact-gradient run of a grid on one plant as one stack.
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
from .exact import _Stack, _exact_stack, _not_stabilizing, solve_dare
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


def _fro(X: np.ndarray) -> np.ndarray:
    """Frobenius norms of a stack of matrices, each bitwise equal to
    ``np.linalg.norm(X[j], "fro")``; the stacked ``np.linalg.norm`` sums in
    another order."""
    flat = X.reshape(-1, X.shape[-2] * X.shape[-1])
    return np.sqrt(np.vecdot(flat, flat))


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

    def evaluate(self, Ks: np.ndarray, i: int):
        s = _exact_stack(self.plant, Ks)
        stable = s.rho < 1.0
        if i == 0 and not stable.all():
            exc = _not_stabilizing(float(s.rho[~stable][0]))
            raise ConfigurationError(f"K0 is not stabilizing: {exc}") from exc
        return stable, s


class _Estimated:
    """Direction from zeroth-order estimates through a rollout oracle, for a
    stack of one run.

    The recorded cost is the mean of the iteration's rollout costs, the only
    cost observable without the model. Every estimate uses ``rollout_cfg``,
    with run id ``run_offset + i`` at iteration i, unless the testing hook
    ``estimator(K, i)`` replaces it. The estimated covariance, unless it
    failed, stands in for Sigma_K.
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

    def evaluate(self, Ks: np.ndarray, i: int):
        (K,) = Ks
        if self.estimator is not None:
            g, cov = self.estimator(K, i)
        else:
            g, cov = self.estimate(K, self.rollout_cfg, self.run_offset + i)
        ok = np.array([not g.failed])
        cost = math.nan
        if ok[0] and g.rollout_costs is not None and len(g.rollout_costs):
            cost = float(np.mean(g.rollout_costs))
        Sigma = None if cov is None or cov.failed else cov.value[None][ok]
        return ok, _Stack(None, None, Sigma, None, np.array([cost])[ok], g.value[None][ok])


class _Run(NamedTuple):
    """Start gain, schedule, stop rule, step rule and step-bound flavor of
    one run, and for a noisy run its sigma and N(0, 1) noise rows."""

    K0: np.ndarray
    schedule: StepSchedule
    stop: StopRule
    step: object
    flavor: str
    sigma: float = 0.0
    normals: np.ndarray | None = None


# Terminal reasons by code; 0 keeps a run stepping.
_REASONS = (None, "max_iters", "converged", "stationary", "diverged",
            "too_many_failures")


def _optimize(direction, runs: list[_Run]):
    """The one optimization loop, over a stack of runs in lockstep: a
    generator that yields None after each iteration, then the traces.

    The stack's state is arrays: its gains ``Ks`` (m, n_u, n_x), the index
    array of its live runs, and per run a divergence ceiling, a failure count
    and a terminal reason (``_REASONS``). Each iteration evaluates the live
    gains in one ``direction.evaluate`` call, which returns an ok mask and
    the ``_Stack`` of the ok runs. A run stops on divergence (an infinite
    cost, or a NaN cost or one past ``DIVERGENCE_CEILING_FACTOR`` times its
    first finite cost) or its stop rule, tested as masked array operations;
    otherwise each step rule ``step(K, stack, eta)`` moves all of its runs at
    once, with the steps of their schedules, and a noisy run's gradient is
    its gradient plus sigma times its noise row. Before a finite cost a NaN
    cost is unobservable, not divergence. A failed evaluation ends the run
    as ``direction.failure`` "diverged"; otherwise it counts, like a step
    rule that returns None, toward ``MAX_CONSECUTIVE_FAILURES`` consecutive
    failures. Exact directions evaluate once more after the last step to
    record the final gain. One run's end leaves the others running. Each
    iteration fills its row of the (iteration, run) record columns; the
    traces' records are built from them at the end.
    """
    m, c_star = len(runs), direction.c_star or math.nan
    Ks = np.array(direction.start([run.K0 for run in runs]))
    max_iters, rel_tol, grad_tol = np.array(
        [(r.stop.max_iters, r.stop.rel_subopt_tol, r.stop.grad_tol) for r in runs],
        dtype=float).T  # a None tolerance is NaN, which no value meets
    fixed = np.array([r.schedule.eta if r.schedule.kind == "fixed" else math.nan
                      for r in runs])
    rules = list(dict.fromkeys(r.step for r in runs))
    rule = np.array([rules.index(r.step) for r in runs])
    # table[i]: row i of each distinct noise array (all of one length), once.
    normals = {id(r.normals): r.normals for r in runs if r.normals is not None}
    table = np.stack(list(normals.values()), axis=1) if normals else None
    index = {key: k for k, key in enumerate(normals)}
    row = np.array([index.get(id(r.normals), -1) for r in runs])
    sigma = np.array([r.sigma for r in runs])[:, None, None]
    ceiling, failures, reason = np.full(m, math.nan), np.zeros(m, int), np.zeros(m, int)
    live, gathered = np.arange(m), None
    n = int(max_iters.max()) + direction.records_final
    # Record columns by (iteration, run): cost, rel_subopt, step, grad_norm
    # and a status code; NaN where a run has ended.
    log = np.full((5, n, m), math.nan)
    for i in range(n):
        ok, s = direction.evaluate(Ks.take(live, axis=0), i)
        if not (all_ok := np.count_nonzero(ok) == len(ok)):
            bad, live = live[~ok], live[ok]
            log[:, i, bad] = [[math.inf], [math.nan], [0.0], [math.nan], [3]]
            if direction.failure == "diverged":  # an unstable gain ends its run
                reason[bad] = 4
            else:  # a failed estimate counts toward too many failures
                failures[bad] += 1
                reason[bad[failures[bad] >= MAX_CONSECUTIVE_FAILURES]] = 5
        if live is not gathered:  # the constants of the live runs, until one ends
            gathered, cap, rtol, gtol, eta0 = (live, max_iters[live], rel_tol[live],
                                               grad_tol[live], fixed[live])
            groups = [(step, (rule[live] == g).nonzero()[0])
                      for g, step in enumerate(rules)]
            noisy = (row[live] >= 0).nonzero()[0]
        # A huge but finite cost or gradient overflows its norm, its
        # suboptimality or its ceiling to inf.
        with np.errstate(over="ignore"):
            cost, grad_norm = s.cost, _fro(s.grad)
            rel = (cost - c_star) / c_star
            ceil = ceiling[live]
            unset = np.isnan(ceil)
            if np.count_nonzero(unset):
                first = unset & np.isfinite(cost)
                ceil[first] = DIVERGENCE_CEILING_FACTOR * np.maximum(cost[first], 1.0)
                ceiling[live] = ceil
        diverged = np.isinf(cost) | ~(cost <= ceil) & ~unset
        halted = diverged | (i >= cap) | (rel <= rtol) | (grad_norm <= gtol)
        eta = eta0.copy()
        if stopped := np.count_nonzero(halted):
            reason[live] = halted * np.select([diverged, i >= cap, rel <= rtol],
                                              [4, 1, 2], 3)
            eta[halted] = 0.0
        for p in np.isnan(eta).nonzero()[0]:  # the adaptive schedules
            run = runs[live[p]]
            eta[p] = run.schedule.step_size(float(cost[p]), direction.norms, run.flavor,
                                            c_star=direction.step_c_star)
        if stopped:  # the halted runs take no step
            groups = [(step, sel[~halted[sel]]) for step, sel in groups]
            noisy = noisy[~halted[noisy]]
        if len(noisy):  # a noisy run steps on its gradient plus its noise
            r = live[noisy]
            grad = s.grad.copy()
            grad[noisy] += sigma[r] * table[i].take(row[r], axis=0)
            s = _Stack(*s[:5], grad)
        failed = np.zeros(len(live), dtype=bool)
        for step, sel in groups:
            if not len(sel):
                continue
            r = live[sel]
            pt = s if len(sel) == len(live) else _Stack(None, *(
                None if f is None else f.take(sel, axis=0) for f in s[1:]))
            K_next = step(Ks.take(r, axis=0), pt, eta[sel])
            if K_next is None:
                failed[sel] = True
            else:
                Ks[r] = K_next
        if np.count_nonzero(failed) or np.count_nonzero(failures):
            failures[live] = (failures[live] + 1) * failed  # consecutive failures
            reason[live[failures[live] >= MAX_CONSECUTIVE_FAILURES]] = 5
            eta[failed] = 0.0
        log[:, i, live] = cost, rel, eta, grad_norm, diverged + 2 * failed
        if not all_ok or np.count_nonzero(reason[live]):
            live = (reason == 0).nonzero()[0]
        if not len(live):
            break
        yield None
    statuses = ("ok", "diverged", "estimate_failed", direction.failure)
    traces = []
    for r, length in enumerate(np.count_nonzero(log[4] >= 0, axis=0).tolist()):
        records = [IterationRecord(i, c, None if k == 3 or not direction.c_star else x,
                                   e, gn, statuses[int(k)])
                   for i, (c, x, e, gn, k) in enumerate(zip(*log[:, :length, r].tolist()))]
        traces.append(ConvergenceTrace(records, Ks[r].copy(),
                                       _REASONS[reason[r]] or "max_iters"))
    yield traces


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


def _gradient_step(K, s, eta):
    return K - eta[:, None, None] * s.grad


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
    return _exact_runs(plant, [
        _Run(K0, schedule, stop, _gradient_step, "pgd", noise_sigma,
             _noise_rows(seeds, run_id, stop.max_iters, shape))
        for K0, run_id in zip(K0s, run_ids)])


def _noise_rows(seeds: SeedSpec, run_id: int, length: int, shape) -> np.ndarray:
    """Run ``run_id``'s raw gradient noise, one N(0, 1) row per iteration:
    row i is its (run_id, i) substream, so a shorter draw is a prefix."""
    return seeds.draw(run_id, range(length), Purpose.PERTURBATION, shape)


def _natural_step(K, s, eta):
    eta = eta[:, None, None]
    direct = K - 2.0 * eta * s.E
    via_inverse = K - eta * s.grad @ np.linalg.inv(s.Sigma)
    err = _fro(direct - via_inverse)
    if np.any(err > 1e-10 * np.maximum(1.0, _fro(direct))):
        raise ConfigurationError(
            f"natural-gradient identity violated (discrepancy {err.max():.3e})"
        )
    return direct


def _gauss_newton_step(plant):
    """The Gauss-Newton step rule K <- K - 2 eta (R + B'PB)^{-1} E_K."""
    return lambda K, s, eta: K - 2.0 * eta[:, None, None] * np.linalg.solve(
        plant.R + plant.B.T @ s.P @ plant.B, s.E)


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

    def step(K, s, eta):
        if s.Sigma is None or smallest_eigenvalue(s.Sigma[0]) < cov_floor:
            return None
        return K - eta[:, None, None] * s.grad @ np.linalg.inv(s.Sigma)

    direction = _Estimated(estimate, rollout_cfg, norms, c_star, estimator, run_offset)
    return _optimize(direction, [_Run(K0, schedule, stop, step, "npg")])
