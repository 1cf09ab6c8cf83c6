"""Monte Carlo harness: error laws, data generation, scorecards, power study.

Replicates run one after another, in index order, on the calling thread.
Every replicate draws from RNG streams keyed by (master seed, replicate index,
purpose tag), so a replicate's output depends only on (seed, replicate index),
not on which other replicates ran or in what order.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import astuple, dataclass, field, fields

import numpy as np

logger = logging.getLogger(__name__)

from .data import Dataset, dataset_from_arrays
from .estimators import EstimationError
from .inference import (
    INTERACTION_EFFECTS,
    METHOD_OLS,
    METHOD_SEMIPARAMETRIC,
    InferenceError,
    MediationResult,
    effect_map_g1,
    mediate,
)

GAUSSIAN = "gaussian"
SKEW_NORMAL = "skew_normal"
ASYMMETRIC_MIXTURE = "asymmetric_mixture"
SYMMETRIC_BIMODAL = "symmetric_bimodal"
ERROR_LAWS = (GAUSSIAN, SKEW_NORMAL, ASYMMETRIC_MIXTURE, SYMMETRIC_BIMODAL)

# Skew-normal shape; delta = alpha / sqrt(1 + alpha^2) in the two-normal
# representation, with analytic centering and scaling to unit variance.
SKEW_SHAPE = 5.0

# Mixture components 0.9 N(-0.3, 0.5^2) + 0.1 N(2.7, 0.5^2): mean already 0,
# variance 1.06. Bimodal 0.5 N(-1, 0.5^2) + 0.5 N(1, 0.5^2): variance 1.25.
ASYM_WEIGHT = 0.9
ASYM_MEANS = (-0.3, 2.7)
ASYM_SD = 0.5
ASYM_SCALE = 1.0 / math.sqrt(1.06)
BIMODAL_MEAN = 1.0
BIMODAL_SD = 0.5
BIMODAL_SCALE = 1.0 / math.sqrt(1.25)


@dataclass(frozen=True)
class ErrorSpec:
    """A standardized error law (population mean 0, variance 1 by construction)."""

    law: str

    def __post_init__(self) -> None:
        if self.law not in ERROR_LAWS:
            raise ValueError(f"unknown error law {self.law!r}; valid: {ERROR_LAWS}")


@dataclass(frozen=True)
class DgpConstants:
    """Mediation data-generating constants: M = a2 + b2 T + e2, Y = b3 T + g M + h TM + e3."""

    alpha2: float
    beta2: float
    beta3: float
    gamma: float
    eta: float

    def truth(self) -> np.ndarray:
        """True (ACME(0), ACME(1), ADE(0), ADE(1), ATE) under the model."""
        theta1 = np.array([self.alpha2, self.beta2, self.beta3, self.gamma, self.eta])
        return effect_map_g1(theta1, np.empty(0))


MAIN_DGP = DgpConstants(alpha2=0.2, beta2=0.4, beta3=0.5, gamma=-0.8, eta=1.0)
POWER_DGP = DgpConstants(alpha2=0.2, beta2=0.26, beta3=0.5, gamma=-0.26, eta=0.8)
POWER_N = 220


@dataclass(frozen=True)
class ScenarioConfig:
    error: ErrorSpec
    n: int
    reps: int
    seed: int
    dgp: DgpConstants = MAIN_DGP

    def __post_init__(self) -> None:
        if self.n < 30:
            raise ValueError(f"n must be at least 30 (got {self.n})")
        if self.reps < 1:
            raise ValueError(f"reps must be at least 1 (got {self.reps})")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer (got {self.seed})")


@dataclass(frozen=True)
class ReplicateResult:
    """One method's outcome on one replicate; estimates are NaN on failure."""

    replicate_index: int
    method: str
    success: bool
    estimates: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray


@dataclass(frozen=True)
class MetricsRow:
    scenario: str
    method: str
    effect: str
    bias: float
    rmse: float
    coverage: float
    avg_length: float
    success_rate: float
    reps_used: int


METRICS_HEADER = tuple(f.name for f in fields(MetricsRow))
REPLICATE_HEADER = ("replicate", "method", "effect", "estimate", "ci_lo", "ci_hi", "success")


def stream_rng(seed: int, replicate_index: int, purpose: int) -> np.random.Generator:
    """Deterministic per-(seed, replicate, purpose) random stream."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(replicate_index, purpose)))


def sample_error(spec: ErrorSpec, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` values from the standardized error law."""
    if count < 1:
        raise ValueError("count must be at least 1")
    if spec.law == GAUSSIAN:
        return rng.standard_normal(count)
    if spec.law == SKEW_NORMAL:
        delta = SKEW_SHAPE / math.sqrt(1.0 + SKEW_SHAPE**2)
        u0 = rng.standard_normal(count)
        u1 = rng.standard_normal(count)
        x = delta * np.abs(u0) + math.sqrt(1.0 - delta**2) * u1
        mean = delta * math.sqrt(2.0 / math.pi)
        sd = math.sqrt(1.0 - 2.0 * delta**2 / math.pi)
        return (x - mean) / sd
    if spec.law == ASYMMETRIC_MIXTURE:
        comp = rng.random(count) < ASYM_WEIGHT
        means = np.where(comp, ASYM_MEANS[0], ASYM_MEANS[1])
        return (means + ASYM_SD * rng.standard_normal(count)) * ASYM_SCALE
    # symmetric bimodal
    sign = np.where(rng.random(count) < 0.5, -1.0, 1.0)
    return (sign * BIMODAL_MEAN + BIMODAL_SD * rng.standard_normal(count)) * BIMODAL_SCALE


def generate_interaction_dataset(config: ScenarioConfig, replicate_index: int) -> Dataset:
    """One simulated (T, M, Y) table under the interaction model."""
    c = config.dgp
    n = config.n
    t = (stream_rng(config.seed, replicate_index, 0).random(n) < 0.5).astype(float)
    e2 = sample_error(config.error, stream_rng(config.seed, replicate_index, 1), n)
    e3 = sample_error(config.error, stream_rng(config.seed, replicate_index, 2), n)
    m = c.alpha2 + c.beta2 * t + e2
    y = c.beta3 * t + c.gamma * m + c.eta * t * m + e3
    return dataset_from_arrays(T=t, M=m, Y=y)


def _run_replicate(config: ScenarioConfig, index: int) -> list[ReplicateResult]:
    """Both methods' results on one replicate, least squares first."""
    n_eff = len(INTERACTION_EFFECTS)
    nan = np.full(n_eff, np.nan)
    data = generate_interaction_dataset(config, index)
    try:
        result: MediationResult | None = mediate(data, "T", "M", "Y", covariates=(), interaction=True)
    except (EstimationError, InferenceError):
        # A numerical failure of this replicate. The harness makes its own
        # data, so anything else, a DataError included, is a bug and propagates.
        result = None
    out: list[ReplicateResult] = []
    for m in (METHOD_OLS, METHOD_SEMIPARAMETRIC):
        mr = result.methods[m] if result is not None else None
        if mr is not None and mr.effects is not None:
            eff = mr.effects
            out.append(ReplicateResult(index, m, True, eff.values, eff.ci_lower, eff.ci_upper))
        else:
            out.append(ReplicateResult(index, m, False, nan, nan, nan))
    return out


def run_replicates(config: ScenarioConfig) -> list[ReplicateResult]:
    """All replicate results, ordered by (replicate, method)."""
    return [r for i in range(config.reps) for r in _run_replicate(config, i)]


def _successes(results: list[ReplicateResult], method: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One method's successful replicates as stacked (estimates, ci_lower, ci_upper), k x effects each."""
    ok = [r for r in results if r.method == method and r.success]
    shape = (len(ok), len(INTERACTION_EFFECTS))
    return tuple(np.array([getattr(r, a) for r in ok]).reshape(shape) for a in ("estimates", "ci_lower", "ci_upper"))


def aggregate_metrics(scenario: str, results: list[ReplicateResult], truth: np.ndarray, reps: int) -> list[MetricsRow]:
    """Scorecard per method over successful replicates; reps_used records how many."""
    rows: list[MetricsRow] = []
    for m in (METHOD_OLS, METHOD_SEMIPARAMETRIC):
        est_all, lo_all, hi_all = _successes(results, m)
        n_ok = len(est_all)
        success_rate = n_ok / reps
        for j, effect in enumerate(INTERACTION_EFFECTS):
            if n_ok == 0:
                rows.append(MetricsRow(scenario, m, effect, math.nan, math.nan, math.nan, math.nan, success_rate, 0))
                continue
            est, lo, hi = est_all[:, j], lo_all[:, j], hi_all[:, j]
            rows.append(
                MetricsRow(
                    scenario=scenario,
                    method=m,
                    effect=effect,
                    bias=float(est.mean() - truth[j]),
                    rmse=float(np.sqrt(np.mean((est - truth[j]) ** 2))),
                    coverage=float(np.mean((lo <= truth[j]) & (truth[j] <= hi))),
                    avg_length=float(np.mean(hi - lo)),
                    success_rate=success_rate,
                    reps_used=n_ok,
                )
            )
    return rows


def run_scenario(config: ScenarioConfig, workers: int = 1) -> tuple[list[MetricsRow], list[ReplicateResult]]:
    """Run one simulation scenario end to end.

    Returns the metrics table and the per-replicate log. Pervasive failure
    (success rate below 0.5 for a method) is logged as a warning; nothing is
    raised. ``workers`` is accepted and ignored: replicates run serially.
    """
    results = run_replicates(config)
    truth = config.dgp.truth()
    rows = aggregate_metrics(config.error.law, results, truth, config.reps)
    for m in (METHOD_OLS, METHOD_SEMIPARAMETRIC):
        rate = next(r.success_rate for r in rows if r.method == m)
        if rate < 0.5:
            logger.warning("scenario %s: pervasive failure for %s (success rate %.3f)", config.error.law, m, rate)
    return rows, results


@dataclass(frozen=True)
class PowerMethodSummary:
    method: str
    rejection_rate: float
    mean_estimate: float
    avg_ci_length: float
    success_rate: float
    reps_used: int


@dataclass(frozen=True)
class PowerReport:
    """Rejection behavior of the ACME(0) interval near the detection boundary."""

    truth_acme0: float
    methods: dict[str, PowerMethodSummary]
    # Published benchmark values reported alongside computed results for
    # context; never merged into them.
    paper_reference: dict[str, float] = field(
        default_factory=lambda: {
            "ols_rejection_rate": 0.183,
            "semiparametric_rejection_rate": 1.0,
            "ols_avg_length": 0.1781,
            "semiparametric_avg_length": 0.0439,
        }
    )


def power_config(reps: int, seed: int) -> ScenarioConfig:
    """Near-boundary power design: asymmetric-mixture errors, n=220."""
    return ScenarioConfig(error=ErrorSpec(ASYMMETRIC_MIXTURE), n=POWER_N, reps=reps, seed=seed, dgp=POWER_DGP)


def run_power_study(config: ScenarioConfig, workers: int = 1) -> PowerReport:
    """Fraction of replicates whose ACME(0) 95% interval excludes zero, per method.

    ``workers`` is accepted and ignored: replicates run serially.
    """
    results = run_replicates(config)
    acme0 = INTERACTION_EFFECTS.index("ACME(0)")
    summaries: dict[str, PowerMethodSummary] = {}
    for m in (METHOD_OLS, METHOD_SEMIPARAMETRIC):
        est, lo, hi = (a[:, acme0] for a in _successes(results, m))
        k = len(est)
        if k:
            rejection = float(np.mean((lo > 0.0) | (hi < 0.0)))
            summaries[m] = PowerMethodSummary(m, rejection, float(est.mean()), float(np.mean(hi - lo)), k / config.reps, k)
        else:
            summaries[m] = PowerMethodSummary(m, math.nan, math.nan, math.nan, 0.0, 0)
    return PowerReport(truth_acme0=float(config.dgp.truth()[0]), methods=summaries)


def _fmt(x: float) -> str:
    return repr(float(x))


def write_metrics_csv(path: str, rows: list[MetricsRow]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_HEADER)
        for r in rows:
            writer.writerow(_fmt(v) if isinstance(v, float) else v for v in astuple(r))


def write_replicate_csv(path: str, results: list[ReplicateResult]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPLICATE_HEADER)
        for r in results:
            for j, effect in enumerate(INTERACTION_EFFECTS):
                writer.writerow(
                    [r.replicate_index, r.method, effect, _fmt(r.estimates[j]), _fmt(r.ci_lower[j]), _fmt(r.ci_upper[j]), int(r.success)]
                )

