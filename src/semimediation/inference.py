"""Stacked estimating-equation inference and the causal effect maps.

:func:`stack_fits` stacks any fits on the same rows into one
estimating-equation system; its sandwich covariance, the only one formed,
comes from the fits' rows and ``A`` and is checked for finiteness there.
:func:`mediate` stacks a mediator and an outcome fit, locates their named
coefficients once, and pushes the covariance through the closed-form effect
maps (product-of-coefficients without interaction, the treatment-specific
extension with interaction) by the delta method to produce Wald intervals.
Each map is written once: its Jacobian is taken from the map by one exact
complex step per parameter, and the interaction map applies exactly when the
layout has an interaction coefficient.
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
)
from .estimators import (
    FitFailure,
    RegressionFit,
    fit_ols,
    fit_semiparametric,
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
    """Positions of the named coefficients in the stacked (mediator, outcome) vector."""

    alpha2: int
    beta2: int
    xi2: tuple[int, ...]
    beta3: int
    gamma: int
    eta: int | None


@dataclass(frozen=True)
class StackedFit:
    """Joint parameter vector with A, B, and sandwich covariance."""

    theta: np.ndarray
    A: np.ndarray
    B: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True)
class EffectEstimates:
    """Point estimates, delta-method covariance, and 95% Wald bounds."""

    kind: str  # "no_interaction" or "interaction"
    names: tuple[str, ...]
    values: np.ndarray
    cov: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray

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
    )


def sandwich_covariance(A: np.ndarray, B: np.ndarray, n: int) -> np.ndarray:
    """Symmetrized A^-1 B A^-T / n, computed by linear solves."""
    C = np.linalg.solve(A, B)
    cov = np.linalg.solve(A, C.T).T / n
    return (cov + cov.T) / 2.0


def stack_fits(*fits: RegressionFit) -> StackedFit:
    """Stack the estimating equations of fits on the same rows, in the order given.

    theta is the fits' parameter vectors end to end. A is the averaged
    parameter Jacobian of the stacked psi. The fits share no parameters, so A
    is block diagonal with each fit's own ``jacobian_A`` as its block and
    exact zeros elsewhere; nothing is re-evaluated here. B is the averaged
    outer product of the stacked rows, whose off-diagonal blocks capture the
    dependence induced by the shared sample. cov = A^-1 B A^-T / n is the one
    sandwich covariance of the pipeline; the fits carry none. Nothing here
    reads a design or a role, so any fits stack: a mediator and an outcome
    fit, or two fits of one model.

    Each block arrives checked: ``fit_ols`` rejects a least-squares ``A``
    and ``fit_semiparametric`` a root's ``A`` whose reciprocal condition
    number is not above ``RCOND_MIN``. The LU solve of a block-diagonal
    matrix works block by block, so A is not checked again. Fits on
    different sample sizes, no fits at all, or a covariance with a non-finite
    entry (rows large enough to overflow B) raise :class:`InferenceError`.
    """
    sizes = [fit.n for fit in fits]
    if len(set(sizes)) != 1:
        raise InferenceError(f"stack_fits needs one or more fits on the same rows, not sample sizes {sizes}")
    n = sizes[0]
    theta = np.concatenate([fit.theta for fit in fits])
    psi = np.hstack([fit.psi_values for fit in fits])

    A = np.zeros((theta.size, theta.size))
    start = 0
    for fit in fits:
        stop = start + fit.theta.size
        A[start:stop, start:stop] = fit.jacobian_A
        start = stop
    # Rows that overflow B are reported once, by the finiteness check below.
    with np.errstate(over="ignore", invalid="ignore"):
        B = psi.T @ psi / n
    cov = sandwich_covariance(A, B, n)
    if not np.all(np.isfinite(cov)):
        raise InferenceError("stacked sandwich covariance is not finite")
    return StackedFit(theta, A, B, cov)


def _complex_step_jacobian(f, theta: np.ndarray) -> np.ndarray:
    """Jacobian of an effect map ``f`` at real ``theta``, one complex step per parameter.

    Im f(theta + i h e_j) / h is the derivative in theta_j up to an O(h^2)
    term (Squire & Trapp 1998, SIAM Rev. 40:110). The effect maps are affine
    in each parameter taken alone, so that term is zero, and the power-of-two
    h makes the division exact: the result is the closed-form gradient bit
    for bit. Stepping one parameter at a time keeps every sum in the order of
    the real evaluation, which one batched call would not. Adding 0.0 turns
    the -0.0 that a negative real part leaves in a structural zero into 0.0.
    """
    h = 2.0**-60
    steps = np.asarray(theta, dtype=float) + 1j * h * np.eye(np.size(theta))
    return np.column_stack([f(z).imag for z in steps]) / h + 0.0


def effect_map_g0(theta: np.ndarray) -> np.ndarray:
    """(ACME, ADE, ATE) from (beta2, beta3, gamma): the product-of-coefficients map.

    Complex input is kept complex, for :func:`jacobian_g0`'s complex step.
    """
    beta2, beta3, gamma = np.asarray(theta, dtype=complex if np.iscomplexobj(theta) else float)
    return np.array([beta2 * gamma, beta3, beta3 + beta2 * gamma])


def jacobian_g0(theta: np.ndarray) -> np.ndarray:
    """3x3 Jacobian of the no-interaction effect map in (beta2, beta3, gamma) order."""
    return _complex_step_jacobian(effect_map_g0, theta)


def effect_map_g1(theta1: np.ndarray, xbar: np.ndarray) -> np.ndarray:
    """(ACME(0), ACME(1), ADE(0), ADE(1), ATE) from (alpha2, beta2, xi2, beta3, gamma, eta).

    The mediator means mu_M(0) = alpha2 + xi2'xbar and mu_M(1) = mu_M(0) + beta2
    use the empirical covariate mean, treated as fixed. Complex ``theta1`` is
    kept complex, for :func:`jacobian_g1`'s complex step.
    """
    theta1 = np.asarray(theta1, dtype=complex if np.iscomplexobj(theta1) else float)
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
    return _complex_step_jacobian(lambda v: effect_map_g1(v, xbar), theta1)


def delta_intervals(
    values: np.ndarray,
    G: np.ndarray,
    cov_theta: np.ndarray,
    kind: str,
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
        cov=cov,
        ci_lower=values - Z95 * se,
        ci_upper=values + Z95 * se,
    )


def effects_from_stacked(stacked: StackedFit, idx: ParameterIndex, xbar: np.ndarray) -> EffectEstimates:
    """Apply the model's effect map and the delta method to a stacked fit.

    ``idx`` locates the named coefficients in a (mediator, outcome) stack.
    The interaction map applies exactly when the outcome model has an
    interaction coefficient; the map's Jacobian columns go to their stacked
    positions and every other column of G is zero.
    """
    if idx.eta is None:
        positions = [idx.beta2, idx.beta3, idx.gamma]
        theta = stacked.theta[positions]
        values, J, kind = effect_map_g0(theta), jacobian_g0(theta), "no_interaction"
    else:
        positions = [idx.alpha2, idx.beta2, *idx.xi2, idx.beta3, idx.gamma, idx.eta]
        theta = stacked.theta[positions]
        values, J, kind = effect_map_g1(theta, xbar), jacobian_g1(theta, xbar), "interaction"
    G = np.zeros((J.shape[0], stacked.theta.size))
    G[:, positions] = J
    return delta_intervals(values, G, stacked.cov, kind)


@dataclass(frozen=True)
class MethodResult:
    """One method's full pipeline output, or its failure record."""

    effects: EffectEstimates | None
    stacked: StackedFit | None
    mediator_fit: RegressionFit | FitFailure
    outcome_fit: RegressionFit | FitFailure | None
    interaction_p_value: float | None

    @property
    def failed(self) -> bool:
        return self.effects is None


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
    interaction. ``method`` is "ols", or "both" to add the semiparametric fits.
    Every method stacks its mediator fit before its outcome fit, so one
    coefficient layout serves them all. A semiparametric numerical failure is
    recorded per model, not raised.
    """
    if method not in (METHOD_OLS, "both"):
        raise InferenceError(f"unknown method {method!r}")
    wanted = [METHOD_OLS, METHOD_SEMIPARAMETRIC] if method == "both" else [METHOD_OLS]

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
    med_ols = fit_ols(med_design, dataset.column(mediator))
    out_ols = fit_ols(out_design, dataset.column(outcome))
    idx = _index_map(med_design, out_design)
    xbar = np.array([dataset.column(c).mean() for c in covariates])

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
            effects = effects_from_stacked(stacked, idx, xbar)
            p_val: float | None = None
            if idx.eta is not None:
                se = math.sqrt(max(stacked.cov[idx.eta, idx.eta], 0.0))
                p_val = _normal_p_value(stacked.theta[idx.eta] / se) if se > 0 else float("nan")
            results[m] = MethodResult(effects, stacked, med_fit, out_fit, p_val)
        else:
            results[m] = MethodResult(None, None, med_fit, out_fit, None)

    return MediationResult(results, xbar, tuple(covariates), interaction, dataset.n)
