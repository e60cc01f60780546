"""Adaptive wavelet density estimation for weakly dependent time series."""

from .wavelet_basis import WaveletFilter, WaveletTables, build_filter, cascade_tables
from .estimator import (
    Sample,
    CoefficientLevel,
    CoefficientSet,
    ThresholdPlan,
    DensityEstimate,
    empirical_coefficients,
    hard_threshold,
    soft_threshold,
    theoretical_plan,
    apply_plan,
    reconstruct,
)
from .cross_validation import (
    CvCriterionValue,
    CvSelection,
    cv_criterion,
    select_lambda,
    select_j1,
    fit_cv,
)
from .processes import (
    TargetDensity,
    ProcessSpec,
    build_target,
    simulate,
    lsv_step,
    derived_seed,
)
from .baseline_kernel import (
    KernelConfig,
    rule_of_thumb_bandwidth,
    lscv_score,
    cv_bandwidth,
    kernel_estimate,
)
from .risk_metrics import (
    Fit,
    RiskReport,
    DecayProfile,
    lp_distance,
    monte_carlo_risks,
    integrated_moments,
    covariance_decay,
)

__version__ = "0.1.0"
