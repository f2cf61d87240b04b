"""Policy-gradient optimization for the average-cost LQR.

Exact model-based quantities, seeded zeroth-order estimators with variance
reduction, certified sample-complexity bounds, the optimization loops, and
an experiment harness with a CLI front end.
"""
from .bounds import (
    CovErrorBudget,
    ErrorBudget,
    PerturbationConstants,
    PlantNorms,
    SampleCertificate,
    covariance_certificate,
    gradient_certificate,
    iteration_counts,
    npg_step_bound,
    perturbation_constants,
    pgd_step_bound,
    required_accuracies,
    state_bound,
    vr_certificate,
)
from .errors import (
    ConfigurationError,
    ConvergenceError,
    InstabilityError,
    LqrpgError,
    NumericError,
    OverflowedRollout,
)
from .estimators import (
    BaselineEstimate,
    CovarianceEstimate,
    GradientEstimate,
    estimate_baseline,
    estimate_gradient,
    estimate_gradient_covariance,
    estimate_gradient_vr,
    estimator_diagnostics,
)
from .exact import (
    ClosedLoopQuantities,
    OptimalSolution,
    exact_quantities,
    finite_horizon_quantities,
    gradient_domination_mu,
    solve_dare,
    solve_discrete_lyapunov,
)
from .harness import (
    ExperimentConfig,
    OutputBundle,
    config_from_dict,
    detuned_initial_gain,
    emit_bounds_report,
    figure_preset,
    parse_config,
    run_monte_carlo,
)
from .optimizers import (
    ConvergenceTrace,
    IterationRecord,
    StepSchedule,
    StopRule,
    run_mb_gauss_newton,
    run_mb_npg,
    run_mb_pgd,
    run_mf_npg,
    run_mf_pgd,
    run_noisy_gradient_pgd,
)
from .plants import PlantModel, StabilityReport, closed_loop, paper3x3, scalar_s1
from .sim import (
    Purpose,
    RolloutConfig,
    RolloutOracle,
    SeedSpec,
    Trajectory,
    empirical_cost,
    empirical_covariance,
    sample_initial_state,
    sample_sphere_perturbation,
    simulate_batch,
)

__version__ = "0.1.0"
