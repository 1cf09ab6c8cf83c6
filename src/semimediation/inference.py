"""Stacked two-model inference and the causal effect maps.

The mediator fit and the outcome fit are combined into one estimating-equation
system; its sandwich covariance is pushed through the closed-form effect maps
(product-of-coefficients without interaction, the treatment-specific extension
with interaction) by the delta method to produce Wald intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import (
    ROLE_INTERACTION,
    ROLE_MEDIATOR,
    ROLE_TREATMENT,
    Dataset,
    DesignMatrix,
    ModelSpec,
    build_design,
    response_vector,
)
from .estimators import (
    FitFailure,
    RegressionFit,
    fit_ols,
    fit_semiparametric,
    sandwich_covariance,
)

# Two-sided 95% normal quantile, fixed for Wald intervals.
Z95 = 1.959963985

NO_INTERACTION_EFFECTS = ("ACME", "ADE", "ATE")
INTERACTION_EFFECTS = ("ACME(0)", "ACME(1)", "ADE(0)", "ADE(1)", "ATE")

METHOD_OLS = "ols"
METHOD_SEMIPARAMETRIC = "semiparametric"


class InferenceError(ValueError):
    """Raised when stacked inference cannot be carried out."""


@dataclass(frozen=True)
class ParameterIndex:
    """Positions of the named coefficients inside the stacked vector."""

    alpha2: int
    beta2: int
    xi2: tuple[int, ...]
    beta3: int
    gamma: int
    eta: int | None
    dim: int


@dataclass(frozen=True)
class StackedFit:
    """Joint parameter vector with A, B, and sandwich covariance."""

    theta: np.ndarray
    A: np.ndarray
    B: np.ndarray
    cov: np.ndarray
    index_map: ParameterIndex
    n: int


@dataclass(frozen=True)
class EffectEstimates:
    """Point estimates, delta-method covariance, and 95% Wald bounds."""

    kind: str  # "no_interaction" or "interaction"
    names: tuple[str, ...]
    values: np.ndarray
    jacobian_G: np.ndarray
    cov: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    xbar: np.ndarray

    @property
    def ci_length(self) -> np.ndarray:
        return self.ci_upper - self.ci_lower


def _index_map(med_design: DesignMatrix, out_design: DesignMatrix) -> ParameterIndex:
    off = med_design.p + 1
    roles_out = out_design.column_roles
    eta = roles_out.index(ROLE_INTERACTION) + off if ROLE_INTERACTION in roles_out else None
    return ParameterIndex(
        alpha2=0,
        beta2=med_design.role_index(ROLE_TREATMENT),
        xi2=med_design.covariate_indices(),
        beta3=off + roles_out.index(ROLE_TREATMENT),
        gamma=off + roles_out.index(ROLE_MEDIATOR),
        eta=eta,
        dim=off + out_design.p + 1,
    )


def stack_fits(med: RegressionFit, out: RegressionFit) -> StackedFit:
    """Stack the mediator and outcome estimating equations.

    A is the averaged parameter Jacobian of the stacked psi. The two models
    share no parameters, so A is block diagonal with each fit's own
    ``jacobian_A`` as its block and exact zeros elsewhere; nothing is
    re-evaluated here. B is the averaged outer product, whose cross blocks
    capture the dependence induced by the shared sample. cov = A^-1 B A^-T / n.

    Each block arrives checked: ``fit_ols`` rejects a least-squares ``A``
    and ``fit_semiparametric`` a root's ``A`` whose reciprocal condition
    number is not above ``RCOND_MIN``. The LU solve of a block-diagonal
    matrix works block by block, so A is not checked again.
    """
    if med.n != out.n:
        raise InferenceError(f"fits are on different sample sizes ({med.n} vs {out.n})")
    if med.method != out.method:
        raise InferenceError(f"fits use different methods ({med.method} vs {out.method})")
    n = med.n
    d1 = med.design.p + 1
    d2 = out.design.p + 1
    dim = d1 + d2

    theta = np.concatenate([med.params.as_vector(), out.params.as_vector()])
    psi = np.hstack([med.psi_values, out.psi_values])

    A = np.zeros((dim, dim))
    A[:d1, :d1] = med.jacobian_A
    A[d1:, d1:] = out.jacobian_A
    B = psi.T @ psi / n
    cov = sandwich_covariance(A, B, n)
    return StackedFit(theta, A, B, cov, _index_map(med.design, out.design), n)


def effect_map_g0(theta: np.ndarray) -> np.ndarray:
    """(ACME, ADE, ATE) from (beta2, beta3, gamma): the product-of-coefficients map."""
    beta2, beta3, gamma = np.asarray(theta, dtype=float)
    return np.array([beta2 * gamma, beta3, beta3 + beta2 * gamma])


def jacobian_g0(theta: np.ndarray) -> np.ndarray:
    """3x3 Jacobian of the no-interaction effect map in (beta2, beta3, gamma) order."""
    beta2, _, gamma = np.asarray(theta, dtype=float)
    return np.array(
        [
            [gamma, 0.0, beta2],
            [0.0, 1.0, 0.0],
            [gamma, 1.0, beta2],
        ]
    )


def effect_map_g1(theta1: np.ndarray, xbar: np.ndarray) -> np.ndarray:
    """(ACME(0), ACME(1), ADE(0), ADE(1), ATE) from (alpha2, beta2, xi2, beta3, gamma, eta).

    The mediator means mu_M(0) = alpha2 + xi2'xbar and mu_M(1) = mu_M(0) + beta2
    use the empirical covariate mean, treated as fixed.
    """
    theta1 = np.asarray(theta1, dtype=float)
    xbar = np.asarray(xbar, dtype=float)
    q = xbar.size
    alpha2, beta2 = theta1[0], theta1[1]
    xi2 = theta1[2 : 2 + q]
    beta3, gamma, eta = theta1[2 + q], theta1[3 + q], theta1[4 + q]
    mu0 = alpha2 + xi2 @ xbar
    mu1 = mu0 + beta2
    return np.array(
        [
            beta2 * gamma,
            beta2 * (gamma + eta),
            beta3 + eta * mu0,
            beta3 + eta * mu1,
            beta3 + beta2 * gamma + eta * mu1,
        ]
    )


def jacobian_g1(theta1: np.ndarray, xbar: np.ndarray) -> np.ndarray:
    """5x(5+q) row gradients of the interaction effect map.

    Rows are the gradients of ACME(0), ACME(1), ADE(0), ADE(1), ATE with
    respect to (alpha2, beta2, xi2, beta3, gamma, eta).
    """
    theta1 = np.asarray(theta1, dtype=float)
    xbar = np.asarray(xbar, dtype=float)
    q = xbar.size
    alpha2, beta2 = theta1[0], theta1[1]
    xi2 = theta1[2 : 2 + q]
    gamma, eta = theta1[3 + q], theta1[4 + q]
    mu0 = alpha2 + xi2 @ xbar
    mu1 = mu0 + beta2

    G = np.zeros((5, 5 + q))
    # d ACME(0): (0, gamma, 0', 0, beta2, 0)
    G[0, 1] = gamma
    G[0, 3 + q] = beta2
    # d ACME(1): (0, gamma+eta, 0', 0, beta2, beta2)
    G[1, 1] = gamma + eta
    G[1, 3 + q] = beta2
    G[1, 4 + q] = beta2
    # d ADE(0): (eta, 0, eta*xbar', 1, 0, mu0)
    G[2, 0] = eta
    G[2, 2 : 2 + q] = eta * xbar
    G[2, 2 + q] = 1.0
    G[2, 4 + q] = mu0
    # d ADE(1): (eta, eta, eta*xbar', 1, 0, mu1)
    G[3, 0] = eta
    G[3, 1] = eta
    G[3, 2 : 2 + q] = eta * xbar
    G[3, 2 + q] = 1.0
    G[3, 4 + q] = mu1
    # d ATE: (eta, gamma+eta, eta*xbar', 1, beta2, mu1)
    G[4, 0] = eta
    G[4, 1] = gamma + eta
    G[4, 2 : 2 + q] = eta * xbar
    G[4, 2 + q] = 1.0
    G[4, 3 + q] = beta2
    G[4, 4 + q] = mu1
    return G


def embed_jacobian(small: np.ndarray, positions: list[int], dim: int) -> np.ndarray:
    """Place reduced-parameter gradient columns into the stacked vector, zero-padded."""
    G = np.zeros((small.shape[0], dim))
    G[:, positions] = small
    return G


def theta1_from_stacked(theta: np.ndarray, idx: ParameterIndex) -> tuple[np.ndarray, list[int]]:
    """Extract (alpha2, beta2, xi2, beta3, gamma, eta) and its stacked positions."""
    if idx.eta is None:
        raise InferenceError("interaction effect map requires an interaction coefficient")
    positions = [idx.alpha2, idx.beta2, *idx.xi2, idx.beta3, idx.gamma, idx.eta]
    return theta[positions], positions


def delta_intervals(
    values: np.ndarray,
    G: np.ndarray,
    cov_theta: np.ndarray,
    kind: str,
    xbar: np.ndarray,
) -> EffectEstimates:
    """Propagate the stacked covariance through an effect map: cov = G Sigma G'.

    95% Wald bounds use the fixed z quantile. A diagonal entry below -1e-12
    signals a broken covariance upstream and raises; tiny negatives are
    clipped to zero.
    """
    cov = G @ cov_theta @ G.T
    cov = (cov + cov.T) / 2.0
    diag = np.diag(cov).copy()
    if np.any(diag < -1e-12):
        raise InferenceError(f"negative effect variance ({diag.min():.3g}): covariance is broken upstream")
    diag[diag < 0.0] = 0.0
    se = np.sqrt(diag)
    names = INTERACTION_EFFECTS if kind == "interaction" else NO_INTERACTION_EFFECTS
    return EffectEstimates(
        kind=kind,
        names=names,
        values=np.asarray(values, dtype=float),
        jacobian_G=G,
        cov=cov,
        ci_lower=values - Z95 * se,
        ci_upper=values + Z95 * se,
        xbar=np.asarray(xbar, dtype=float),
    )


def effects_from_stacked(stacked: StackedFit, xbar: np.ndarray, interaction: bool) -> EffectEstimates:
    """Apply the appropriate effect map and delta method to a stacked fit."""
    idx = stacked.index_map
    if interaction:
        theta1, positions = theta1_from_stacked(stacked.theta, idx)
        values = effect_map_g1(theta1, xbar)
        G = embed_jacobian(jacobian_g1(theta1, xbar), positions, idx.dim)
        kind = "interaction"
    else:
        positions = [idx.beta2, idx.beta3, idx.gamma]
        theta0 = stacked.theta[positions]
        values = effect_map_g0(theta0)
        G = embed_jacobian(jacobian_g0(theta0), positions, idx.dim)
        kind = "no_interaction"
    return delta_intervals(values, G, stacked.cov, kind, xbar)


@dataclass(frozen=True)
class MethodResult:
    """One method's full pipeline output, or its failure record."""

    method: str
    effects: EffectEstimates | None
    stacked: StackedFit | None
    mediator_fit: RegressionFit | FitFailure
    outcome_fit: RegressionFit | FitFailure | None
    interaction_p_value: float | None

    @property
    def failed(self) -> bool:
        return self.effects is None

    def failure_reasons(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, tuple[str, ...]] = {}
        if isinstance(self.mediator_fit, FitFailure):
            out["mediator"] = self.mediator_fit.reasons
        if isinstance(self.outcome_fit, FitFailure):
            out["outcome"] = self.outcome_fit.reasons
        return out


@dataclass(frozen=True)
class MediationResult:
    methods: dict[str, MethodResult]
    xbar: np.ndarray
    covariates: tuple[str, ...]
    interaction: bool
    n: int

    def effects(self, method: str) -> EffectEstimates:
        res = self.methods[method].effects
        if res is None:
            raise InferenceError(f"{method} fit failed; no effects available")
        return res


def _normal_p_value(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))


def mediate(
    dataset: Dataset,
    treatment: str,
    mediator: str,
    outcome: str,
    covariates: tuple[str, ...] = (),
    interaction: bool = False,
    method: str = "both",
) -> MediationResult:
    """Full mediation pipeline: fit both models, stack, map to effects.

    The mediator model regresses the mediator on treatment and covariates; the
    outcome model adds the mediator and, when requested, the treatment*mediator
    interaction. ``method`` selects "ols", "semiparametric", or "both". A
    semiparametric numerical failure is recorded per model rather than raised.
    """
    if method not in (METHOD_OLS, METHOD_SEMIPARAMETRIC, "both"):
        raise InferenceError(f"unknown method {method!r}")
    wanted = [METHOD_OLS, METHOD_SEMIPARAMETRIC] if method == "both" else [method]

    med_spec = ModelSpec(response=mediator, treatment=treatment, covariates=covariates)
    out_spec = ModelSpec(
        response=outcome,
        treatment=treatment,
        mediator=mediator,
        covariates=covariates,
        interaction=interaction,
    )
    med_design = build_design(dataset, med_spec)
    out_design = build_design(dataset, out_spec)
    # Least-squares fits: the OLS method's result, and the semiparametric
    # fits' data, starts and screens.
    med_ols = fit_ols(med_design, response_vector(dataset, med_spec))
    out_ols = fit_ols(out_design, response_vector(dataset, out_spec))
    xbar = (
        np.array([dataset.column(c).mean() for c in covariates])
        if covariates
        else np.empty(0)
    )

    results: dict[str, MethodResult] = {}
    for m in wanted:
        if m == METHOD_OLS:
            med_fit: RegressionFit | FitFailure = med_ols
            out_fit: RegressionFit | FitFailure | None = out_ols
        else:
            med_fit = fit_semiparametric(med_ols)
            out_fit = fit_semiparametric(out_ols) if isinstance(med_fit, RegressionFit) else None

        if isinstance(med_fit, RegressionFit) and isinstance(out_fit, RegressionFit):
            stacked = stack_fits(med_fit, out_fit)
            effects = effects_from_stacked(stacked, xbar, interaction)
            p_val: float | None = None
            if interaction:
                eta_idx = stacked.index_map.eta
                if eta_idx is None:
                    raise RuntimeError("interaction model stacked without an interaction coefficient")
                se = math.sqrt(max(stacked.cov[eta_idx, eta_idx], 0.0))
                p_val = _normal_p_value(stacked.theta[eta_idx] / se) if se > 0 else float("nan")
            results[m] = MethodResult(m, effects, stacked, med_fit, out_fit, p_val)
        else:
            results[m] = MethodResult(m, None, None, med_fit, out_fit, None)

    return MediationResult(results, xbar, tuple(covariates), interaction, dataset.n)
