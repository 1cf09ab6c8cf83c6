"""Causal mediation effects in linear models.

Point estimation by OLS or a semiparametric adaptive-score estimator, stacked
estimating-equation sandwich covariance, delta-method Wald intervals, and a
reproducible Monte Carlo harness.
"""

__version__ = "0.1.0"

from .data import Dataset, DataError, DesignMatrix, ModelSpec, build_design, dataset_from_arrays, load_csv
from .estimators import (
    EstimationError,
    FitFailure,
    RegressionFit,
    fit_ols,
    fit_semiparametric,
    newton_root,
    semiparam_psi,
)
from .inference import (
    EffectEstimates,
    InferenceError,
    MediationResult,
    StackedFit,
    effect_map_g0,
    effect_map_g1,
    map_intervals,
    mediate,
    stack_fits,
)
from .simulation import (
    DgpConstants,
    ErrorSpec,
    MetricsRow,
    PowerReport,
    ReplicateResult,
    ScenarioConfig,
    run_power_study,
    run_scenario,
)

__all__ = [
    "Dataset",
    "DataError",
    "DesignMatrix",
    "ModelSpec",
    "build_design",
    "dataset_from_arrays",
    "load_csv",
    "EstimationError",
    "FitFailure",
    "RegressionFit",
    "fit_ols",
    "fit_semiparametric",
    "newton_root",
    "semiparam_psi",
    "EffectEstimates",
    "InferenceError",
    "MediationResult",
    "StackedFit",
    "effect_map_g0",
    "effect_map_g1",
    "map_intervals",
    "mediate",
    "stack_fits",
    "DgpConstants",
    "ErrorSpec",
    "MetricsRow",
    "PowerReport",
    "ReplicateResult",
    "ScenarioConfig",
    "run_power_study",
    "run_scenario",
]
