"""Closed-form perturbation constants and sample-complexity certificates.

Pure functions of plant norms, a cost value c, and an error/probability
budget. The formulas are evaluated verbatim, with no tightening; every
intermediate (the alpha constants, the sample-cost ceilings C_bar and
friends) is retained on the returned objects for inspection. Every rollout
count (N1, N2, N3, n'_min, n~_min) is one matrix-Bernstein count,
``_bernstein``, and every rollout-cost ceiling one ``_cost_ceiling``; each
count is returned as its raw real value and its integer ceiling side by side.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, asdict, replace

import numpy as np

from .errors import ConfigurationError
from .plants import PlantModel, smallest_eigenvalue

__all__ = [
    "PlantNorms",
    "PerturbationConstants",
    "ErrorBudget",
    "CovErrorBudget",
    "SampleCertificate",
    "perturbation_constants",
    "pgd_step_bound",
    "npg_step_bound",
    "state_bound",
    "gradient_certificate",
    "covariance_certificate",
    "vr_certificate",
    "required_accuracies",
    "RequiredAccuracies",
    "iteration_counts",
    "IterationCounts",
]


@dataclass(frozen=True)
class PlantNorms:
    """The handful of scalars the certificate formulas consume."""

    n_x: int
    n_u: int
    norm_A: float
    norm_B: float
    norm_R: float
    lam_Q: float
    lam_R: float
    lam_Sigma_w: float
    trace_Sigma_w: float
    norm_Sigma_w: float
    norm_Sigma_0: float
    lam_Sigma_0: float

    @classmethod
    def from_plant(cls, plant: PlantModel):
        return cls(
            n_x=plant.n_x,
            n_u=plant.n_u,
            norm_A=float(np.linalg.norm(plant.A, 2)),
            norm_B=float(np.linalg.norm(plant.B, 2)),
            norm_R=float(np.linalg.norm(plant.R, 2)),
            lam_Q=smallest_eigenvalue(plant.Q),
            lam_R=smallest_eigenvalue(plant.R),
            lam_Sigma_w=smallest_eigenvalue(plant.Sigma_w),
            trace_Sigma_w=float(np.trace(plant.Sigma_w)),
            norm_Sigma_w=float(np.linalg.norm(plant.Sigma_w, 2)),
            norm_Sigma_0=float(np.linalg.norm(plant.Sigma_0, 2)),
            lam_Sigma_0=smallest_eigenvalue(plant.Sigma_0),
        )


@dataclass(frozen=True)
class PerturbationConstants:
    """Local Lipschitz constants and norm bounds, all functions of a cost
    value c (and a conservative lower bound on the optimal cost)."""

    c: float
    c_star: float
    h: float          # trust radius for the gain perturbation
    h_sigma: float    # Lipschitz constant of the average covariance
    h_cost: float     # Lipschitz constant of the cost
    h_grad: float     # Lipschitz constant of the gradient (alpha1 + alpha3)
    b_gain: float     # upper bound on ||K||
    b_grad: float     # upper bound on ||grad C(K)||
    alpha1: float
    alpha2: float
    alpha3: float


def _require_cost(norms: PlantNorms, c: float, c_star: float) -> None:
    if not 0 < c < math.inf:
        raise ConfigurationError(f"cost value must be positive and finite, got {c}")
    if c < c_star:
        raise ConfigurationError(f"cost value {c} below optimal cost {c_star}")
    if norms.lam_Sigma_w <= 0:
        raise ConfigurationError("certificates require positive-definite Sigma_w")


def perturbation_constants(
    norms: PlantNorms, c: float, c_star: float = 0.0
) -> PerturbationConstants:
    """Evaluate the trust radius h and the Lipschitz/norm bounds at cost c.

    c_star defaults to 0, which only enlarges the bounds (conservative) when
    the optimal cost is unknown.
    """
    _require_cost(norms, c, c_star)
    lam_q, lam_w = norms.lam_Q, norms.lam_Sigma_w
    nB, nR, nA = norms.norm_B, norms.norm_R, norms.norm_A

    h = lam_w * lam_q / (8.0 * c * nB)
    h_sigma = 8.0 * (c / lam_q) ** 2 * nB / lam_w

    gap = c - c_star
    # ||R + B'P B|| enlarged through ||P|| <= c / lam(Sigma_w).
    r_plus = nR + nB**2 * c / lam_w
    b_gain = (math.sqrt(gap * r_plus / lam_w) + nB * nA * c / lam_w) / norms.lam_R

    alpha2 = (
        6.0
        * (c / (lam_w * lam_q)) ** 2
        * (2.0 * b_gain**2 * nR * nB + b_gain * nR)
    )
    h_cost = alpha2 * norms.trace_Sigma_w
    b_grad = math.sqrt(4.0 * (c / lam_q) ** 2 * gap / lam_w * r_plus)

    alpha1 = 2.0 * math.sqrt(gap / lam_w * r_plus) * h_sigma
    # The middle term divides by the smallest eigenvalue of Sigma_0, exactly
    # as the source derivation prints it; degenerate Sigma_0 yields +inf.
    if norms.lam_Sigma_0 > 0:
        mid = nB**2 * c / norms.lam_Sigma_0
    else:
        mid = math.inf
    alpha3 = nR + mid + alpha2 * (nB * nA + b_gain * nB**2)
    h_grad = alpha1 + alpha3

    return PerturbationConstants(
        c=c, c_star=c_star, h=h, h_sigma=h_sigma, h_cost=h_cost,
        h_grad=h_grad, b_gain=b_gain, b_grad=b_grad,
        alpha1=alpha1, alpha2=alpha2, alpha3=alpha3,
    )


def pgd_step_bound(norms: PlantNorms, c: float, c_star: float = 0.0) -> float:
    """Largest certified gradient-descent step size at cost level c:
    the smaller of the curvature and the gradient-magnitude branches."""
    pc = perturbation_constants(norms, c, c_star)
    lam_q, lam_w = norms.lam_Q, norms.lam_Sigma_w
    if pc.b_grad > 0:
        branch1 = (lam_q * lam_w / c) ** 2 / (2.0 * norms.norm_B * pc.b_grad)
    else:
        branch1 = math.inf
    branch2 = lam_q / (2.0 * c * (norms.norm_R + norms.norm_B**2 * c / lam_w))
    return min(branch1, branch2) / 32.0


def npg_step_bound(norms: PlantNorms, c: float) -> float:
    """Largest certified natural-gradient step size at cost level c."""
    _require_cost(norms, c, 0.0)
    return 1.0 / (2.0 * norms.norm_R + 2.0 * norms.norm_B**2 * c / norms.lam_Sigma_w)


@dataclass(frozen=True)
class StateBound:
    value: float        # high-probability bound on max_t ||x_t||
    w_bar: float        # per-step noise norm bound
    mode: str           # "paper" or "chebyshev"


def state_bound(
    L0: float, t: int, trace_sigma_w: float, delta_x: float, mode: str = "paper"
) -> StateBound:
    """High-probability bound L0 + t * w_bar on the state norm over t steps.

    mode "paper" takes w_bar = Tr(Sigma_w) / (1 - (1-delta_x)^(1/t)) as
    printed in the source derivation; mode "chebyshev" takes the square root
    of that ratio, which is what a direct Chebyshev argument yields. Neither
    is endorsed; the mode is recorded in the output.
    """
    if not (0.0 < delta_x < 1.0):
        raise ConfigurationError(f"delta_x must be in (0,1), got {delta_x}")
    if t < 1:
        raise ConfigurationError(f"t must be >= 1, got {t}")
    # 1 - (1 - delta_x)^(1/t), evaluated without cancellation: the plain
    # form rounds to 0 once t passes ~1e16.
    denom = -math.expm1(math.log1p(-delta_x) / t)
    if mode == "paper":
        w_bar = trace_sigma_w / denom
    elif mode == "chebyshev":
        w_bar = math.sqrt(trace_sigma_w / denom)
    else:
        raise ConfigurationError(f"unknown state-bound mode {mode!r}")
    return StateBound(value=L0 + t * w_bar, w_bar=w_bar, mode=mode)


def _check_budget(budget) -> None:
    """Every eps_* share must be positive and every delta_* in (0,1)."""
    for f in fields(budget):
        v = getattr(budget, f.name)
        if f.name.startswith("eps_") and not v > 0:
            raise ConfigurationError(f"{f.name} must be positive")
        if f.name.startswith("delta_") and not (0.0 < v < 1.0):
            raise ConfigurationError(f"{f.name} must be in (0,1), got {v}")


@dataclass(frozen=True)
class ErrorBudget:
    """Decomposition of the gradient-estimation tolerance and probability.

    eps = eps_d + eps_l + eps_n + eps_r;
    delta = 1 - (1-delta_d)(1-delta_n)(1-delta_x).
    """

    eps_d: float
    eps_l: float
    eps_n: float
    eps_r: float
    delta_x: float
    delta_n: float
    delta_d: float

    __post_init__ = _check_budget

    @property
    def eps(self) -> float:
        return self.eps_d + self.eps_l + self.eps_n + self.eps_r

    @property
    def delta(self) -> float:
        return 1.0 - (1.0 - self.delta_d) * (1.0 - self.delta_n) * (1.0 - self.delta_x)

    @classmethod
    def even_split(cls, eps: float, delta: float) -> "ErrorBudget":
        """Split eps into four equal parts and delta into three equal
        multiplicative factors."""
        part = 1.0 - (1.0 - delta) ** (1.0 / 3.0)
        return cls(
            eps_d=eps / 4, eps_l=eps / 4, eps_n=eps / 4, eps_r=eps / 4,
            delta_x=part, delta_n=part, delta_d=part,
        )


@dataclass(frozen=True)
class CovErrorBudget:
    """Covariance analog: eps' = eps_l + eps_n + eps_r,
    delta' = 1 - (1-delta_n)(1-delta_x)."""

    eps_l: float
    eps_n: float
    eps_r: float
    delta_x: float
    delta_n: float

    __post_init__ = _check_budget

    @property
    def eps(self) -> float:
        return self.eps_l + self.eps_n + self.eps_r

    @property
    def delta(self) -> float:
        return 1.0 - (1.0 - self.delta_n) * (1.0 - self.delta_x)

    @classmethod
    def even_split(cls, eps: float, delta: float) -> "CovErrorBudget":
        part = 1.0 - (1.0 - delta) ** (1.0 / 2.0)
        return cls(eps_l=eps / 3, eps_n=eps / 3, eps_r=eps / 3,
                   delta_x=part, delta_n=part)


def _ceil_int(x: float) -> int:
    if not math.isfinite(x):
        raise ConfigurationError(f"certificate value {x} is not finite")
    return max(1, int(math.ceil(x)))


def _bernstein(dim, eps, variance, bound, log_arg) -> tuple[int, float]:
    """Matrix-Bernstein rollout count (ceiling, raw value):
    2 dim / eps^2 * (variance + bound * eps / (3 sqrt(dim))) * log(log_arg)."""
    raw = (2.0 * dim / eps**2 * (variance + bound * eps / (3.0 * math.sqrt(dim)))
           * math.log(log_arg))
    return _ceil_int(raw), raw


def _cost_ceiling(norms: PlantNorms, c, L0, l, w):
    """Upper bound c / lam(Sigma_w) * (L0 + (l-1) w)^2 on one l-step rollout
    cost. As printed: the growth factor appears once inside the square."""
    return c / norms.lam_Sigma_w * (L0 + (l - 1) * w) ** 2


def _radius(pc: PerturbationConstants, norm_K, cap) -> float:
    """Exploration radius min(h, ||K|| if given else b_gain, cap)."""
    return min(pc.h, pc.b_gain if norm_K is None else norm_K, cap)


@dataclass(frozen=True)
class SampleCertificate:
    """Certified (r, l, n) requirements plus every retained intermediate."""

    r_max: float | None = None
    l_min: int | None = None
    l_min_raw: float | None = None
    N1: int | None = None
    N1_raw: float | None = None
    N2: int | None = None
    N2_raw: float | None = None
    r_max_prime: float | None = None
    l_min_prime: int | None = None
    l_min_prime_raw: float | None = None
    n_min_prime: int | None = None
    n_min_prime_raw: float | None = None
    N3: int | None = None
    N3_raw: float | None = None
    n_tilde_min: int | None = None
    n_tilde_min_raw: float | None = None
    vr_improves: bool | None = None
    intermediates: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        d = {k: v for k, v in asdict(self).items() if v is not None and k != "intermediates"}
        d["intermediates"] = dict(self.intermediates)
        return d


def gradient_certificate(
    norms: PlantNorms,
    c: float,
    budget: ErrorBudget,
    L0: float,
    c_star: float = 0.0,
    norm_K: float | None = None,
    state_bound_mode: str = "paper",
) -> SampleCertificate:
    """Certified (r_max, l_min, N1, N2) for the plain gradient estimator.

    The gain-norm slot in r_max uses the supplied ||K|| when available and
    the cost-based bound b_gain otherwise, so evaluation works model-free.
    """
    pc = perturbation_constants(norms, c, c_star)
    r = _radius(pc, norm_K, budget.eps_r / pc.h_grad)
    lam_q, lam_w = norms.lam_Q, norms.lam_Sigma_w
    c_pert = c + r * pc.h_cost
    l_raw = (
        2.0 * norms.n_x * norms.n_u * c_pert**2 / (budget.eps_l * r * lam_w)
        * ((norms.norm_Sigma_0 * lam_w + c_pert) / (lam_q * lam_w**2) + 1.0 / lam_q)
    )
    l = _ceil_int(l_raw)

    d = norms.n_x * norms.n_u
    mn = min(norms.n_x, norms.n_u)
    mx = max(norms.n_x, norms.n_u)
    sample_norm = d * c_pert / r
    alpha4 = sample_norm + budget.eps_r + pc.b_grad
    alpha5 = mx**2 * sample_norm**2 + (budget.eps_r + pc.b_grad) ** 2
    N1, N1_raw = _bernstein(mn, budget.eps_n, alpha4**2, alpha5,
                            (norms.n_x + norms.n_u) / budget.delta_n)

    sb = state_bound(L0, l, norms.trace_Sigma_w, budget.delta_x, mode=state_bound_mode)
    c_bar = _cost_ceiling(norms, c_pert, L0, l, sb.w_bar)
    alpha6 = d * c_bar / r
    eps_sum = budget.eps_l + budget.eps_n + budget.eps_r
    alpha7 = eps_sum + pc.b_grad + alpha6
    alpha8 = mx**2 * alpha6**2 + (eps_sum + pc.b_grad) ** 2
    N2, N2_raw = _bernstein(mn, budget.eps_d, alpha7**2, alpha8,
                            (norms.n_x + norms.n_u) / budget.delta_d)

    return SampleCertificate(
        r_max=r,
        l_min=l, l_min_raw=l_raw,
        N1=N1, N1_raw=N1_raw,
        N2=N2, N2_raw=N2_raw,
        intermediates={
            "alpha4": alpha4, "alpha5": alpha5, "alpha6": alpha6,
            "alpha7": alpha7, "alpha8": alpha8, "c_bar": c_bar,
            "h": pc.h, "h_cost": pc.h_cost, "h_grad": pc.h_grad,
            "b_gain": pc.b_gain, "b_grad": pc.b_grad,
            "state_bound_mode": state_bound_mode,
        },
    )


def covariance_certificate(
    norms: PlantNorms,
    c: float,
    budget: CovErrorBudget,
    L0: float,
    c_star: float = 0.0,
    norm_K: float | None = None,
    state_bound_mode: str = "paper",
) -> SampleCertificate:
    """Certified (r'_max, l'_min, n'_min) for the covariance estimator."""
    pc = perturbation_constants(norms, c, c_star)
    r = _radius(pc, norm_K,
                budget.eps_r / pc.b_grad if pc.b_grad > 0 else math.inf)

    lam_q, lam_w = norms.lam_Q, norms.lam_Sigma_w
    l_raw = (
        2.0 * c / (budget.eps_l * lam_w)
        * (c * norms.norm_Sigma_0 / (lam_q * lam_w)
           + c**2 / (lam_q * lam_w**2)
           + c / lam_q)
    )
    l = _ceil_int(l_raw)

    sb = state_bound(L0, l, norms.trace_Sigma_w, budget.delta_x, mode=state_bound_mode)
    c_pert = c + r * pc.h_cost
    alpha9 = c_pert / lam_q + sb.value**2
    alpha10 = norms.n_x**2 * (sb.value**2 + (c_pert / lam_q) ** 2)
    n, n_raw = _bernstein(norms.n_x, budget.eps_n, alpha10, alpha9,
                          2.0 * norms.n_x / budget.delta_n)

    return SampleCertificate(
        r_max_prime=r,
        l_min_prime=l, l_min_prime_raw=l_raw,
        n_min_prime=n, n_min_prime_raw=n_raw,
        intermediates={
            "alpha9": alpha9, "alpha10": alpha10,
            "state_bound": sb.value, "state_bound_mode": state_bound_mode,
            "h": pc.h, "b_gain": pc.b_gain, "b_grad": pc.b_grad,
        },
    )


def vr_certificate(
    norms: PlantNorms,
    c: float,
    budget: ErrorBudget,
    b_hat: float,
    b_s_bound: float,
    L0: float,
    l: int,
    c_star: float = 0.0,
    norm_K: float | None = None,
    r: float | None = None,
    state_bound_mode: str = "paper",
) -> SampleCertificate:
    """Rollout-count requirement N3 for the variance-reduced estimator and
    the baseline-rollout count that certifies N3 <= N2.

    ``b_hat`` is the estimated baseline value, ``b_s_bound`` an upper bound
    on the exact baseline. Also reports the comparison against the plain
    estimator's N2 at the same budget.
    """
    if b_hat < 0 or b_s_bound < 0:
        raise ConfigurationError("baseline values must be nonnegative")
    grad_cert = gradient_certificate(
        norms, c, budget, L0, c_star=c_star, norm_K=norm_K,
        state_bound_mode=state_bound_mode,
    )
    grad = grad_cert.intermediates
    r = grad_cert.r_max if r is None else r
    d = norms.n_x * norms.n_u
    mn = min(norms.n_x, norms.n_u)
    mx = max(norms.n_x, norms.n_u)

    sb = state_bound(L0, l, norms.trace_Sigma_w, budget.delta_x, mode=state_bound_mode)
    c_bar = _cost_ceiling(norms, c + r * grad["h_cost"], L0, l, sb.w_bar)
    alpha12 = d / r * (max(c_bar - b_s_bound, b_s_bound) + abs(b_s_bound - b_hat))
    eps_sum = budget.eps_l + budget.eps_n + budget.eps_r
    alpha11 = mx**2 * alpha12**2 + (eps_sum + grad["b_grad"]) ** 2
    N3, N3_raw = _bernstein(mn, budget.eps_d, grad["alpha7"] ** 2, alpha11,
                            (norms.n_x + norms.n_u) / budget.delta_d)

    c_bar_v = _cost_ceiling(norms, c, L0, l, sb.w_bar)
    c_bar_ev = _cost_ceiling(norms, c, L0, l, norms.norm_Sigma_w)
    eps_v = min(b_s_bound, c_bar - b_s_bound)
    if eps_v > 0:
        n_tilde, n_tilde_raw = _bernstein(
            1, eps_v, (c_bar_ev + c_bar_v) ** 2, c_bar_ev**2 + c_bar_v**2,
            2.0 / budget.delta_d,
        )
    else:
        n_tilde, n_tilde_raw = None, math.inf

    return replace(
        grad_cert,
        N3=N3, N3_raw=N3_raw,
        n_tilde_min=n_tilde, n_tilde_min_raw=n_tilde_raw,
        vr_improves=bool(N3_raw <= grad_cert.N2_raw),
        intermediates={
            **grad,
            "alpha11": alpha11, "alpha12": alpha12,
            "c_bar_v": c_bar_v, "c_bar_ev": c_bar_ev, "eps_v": eps_v,
        },
    )


def _require_positive(**scalars: float) -> None:
    for name, x in scalars.items():
        if not 0 < x < math.inf:
            raise ConfigurationError(f"{name} must be positive and finite, got {x}")


@dataclass(frozen=True)
class RequiredAccuracies:
    """Per-iteration estimation accuracies the model-free loops must meet."""

    eps_pgd: float          # gradient accuracy for descent (via h_grad)
    eps_pgd_alt: float      # same threshold stated via h_cost
    eps_npg_grad: float
    eps_npg_cov: float


def required_accuracies(
    norms: PlantNorms,
    c: float,
    norm_sigma_star: float,
    eps: float,
    sigma: float,
    c_star: float = 0.0,
) -> RequiredAccuracies:
    """Thresholds on the gradient/covariance estimation errors that keep the
    model-free contraction factors valid, linear in both eps and sigma."""
    if not (0.0 < sigma < 1.0):
        raise ConfigurationError(f"sigma must be in (0,1), got {sigma}")
    _require_positive(eps=eps, norm_sigma_star=norm_sigma_star, lam_R=norms.lam_R,
                      lam_Sigma_w=norms.lam_Sigma_w)
    pc = perturbation_constants(norms, c, c_star)
    lam_r, lam_w = norms.lam_R, norms.lam_Sigma_w
    base = sigma * eps * lam_r * lam_w**2 / norm_sigma_star
    eps_pgd = base / (2.0 * pc.h_grad)
    eps_pgd_alt = base / (2.0 * pc.h_cost)
    eps_npg_grad = base / (8.0 * pc.h_grad)
    if pc.b_grad > 0:
        eps_npg_cov = (
            sigma * eps * lam_r * lam_w**3
            / (4.0 * pc.h_grad * norm_sigma_star * math.sqrt(pc.b_grad))
        )
    else:
        eps_npg_cov = math.inf
    return RequiredAccuracies(
        eps_pgd=eps_pgd, eps_pgd_alt=eps_pgd_alt,
        eps_npg_grad=eps_npg_grad, eps_npg_cov=eps_npg_cov,
    )


@dataclass(frozen=True)
class IterationCounts:
    n_pgd_exact: int
    n_pgd_model_free: int
    n_npg_model_free: int


def iteration_counts(
    norm_sigma_star: float,
    lam_R: float,
    lam_Sigma_w: float,
    c0: float,
    c_star: float,
    eps: float,
    eta: float,
    sigma: float = 0.0,
) -> IterationCounts:
    """Logarithmic iteration counts to reach suboptimality eps from c0 with
    step size eta > 0 and estimation-error fraction sigma in [0, 1); returns
    0 when c0 is already within eps of optimal."""
    _require_positive(eps=eps, eta=eta, norm_sigma_star=norm_sigma_star, lam_R=lam_R,
                      lam_Sigma_w=lam_Sigma_w)
    if not (0.0 <= sigma < 1.0):
        raise ConfigurationError(f"sigma must be in [0,1), got {sigma}")
    if c0 <= c_star + eps:
        return IterationCounts(0, 0, 0)
    log_term = math.log((c0 - c_star) / eps)
    pgd = norm_sigma_star / (2.0 * eta * lam_R * lam_Sigma_w**2) * log_term
    pgd_mf = pgd / (1.0 - sigma)
    npg_mf = norm_sigma_star / (2.0 * (1.0 - sigma) * eta * lam_Sigma_w) * log_term
    return IterationCounts(*(_ceil_int(n) if n > 0 else 0 for n in (pgd, pgd_mf, npg_mf)))
