"""Streaming joint estimation of the quantile (VaR) and superquantile
(CVaR/expected shortfall) of an unknown distribution, with analytic
asymptotics and a Monte-Carlo verification harness."""

from .asymptotics import (
    ComparisonReport,
    c_alpha_b1,
    clt_covariance_fast,
    clt_variance_slow,
    finite_n_mse,
    mse_bound_averaged_quantile,
    mse_bound_embedded,
    sigma_from_generator,
    variance_comparison,
)
from .distributions import (
    DistributionModel,
    Exponential,
    Gaussian,
    Pareto,
    QuadratureError,
    RiskOracle,
    Uniform,
    numeric_oracle,
    oracle,
    sample,
    substream,
)
from .estimators import JointEstimatorState, init, run_stream, step
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    RateFit,
    compare_variants,
    empirical_clt_cov,
    fit_rate,
    run_experiment,
)
from .schedules import StepSchedule, unmet

__version__ = "0.1.0"
