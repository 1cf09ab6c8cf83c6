"""Stacked estimating-equation inference and the causal effect maps.

:func:`stack_fits` stacks any fits on the same rows into one
estimating-equation system; its sandwich covariance, the only one formed,
comes from the fits' rows and ``A`` and is checked for finiteness there.
``B`` is a sum over rows, so it is accumulated over blocks of rows, each
fit's rows of a block formed on demand from its residuals, per pair of fits;
no fit holds its rows and no n-row array of them is built (Stefanski & Boos
2002, Am. Stat. 56:29).
:func:`map_intervals` is the one route from a stack to a reported number: it
pushes the covariance through a map of some stacked parameters by the delta
method and returns the values, their covariance, Wald bounds and p-values.
:func:`mediate` stacks a mediator and an outcome fit, locates their named
coefficients once, and maps them to the effects (product-of-coefficients
without interaction, the treatment-specific extension with interaction) and,
with interaction, to the interaction coefficient's p-value by the identity
map. Each map is written once: its Jacobian is taken from the map by one
exact complex step per parameter, and the interaction map applies exactly
when the layout has an interaction coefficient.
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
    row_blocks,
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
    """Mapped values, their delta-method covariance, 95% Wald bounds and p-values."""

    names: tuple[str, ...]
    values: np.ndarray
    cov: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    p_values: np.ndarray

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
    outer product of the stacked rows, a sum over rows: it is accumulated
    over ``row_blocks`` of the stacked width, each fit's rows of a block
    formed once by ``RegressionFit.rows``, so nothing of length n is held
    beyond the fits. Per pair of fits i <= j the block adds ``psi_i' psi_j``
    to B's (i, j) block, and the sum is divided by n once; with the n rows in
    one block that is ``psi_i' psi_j / n`` of the whole rows. A block off
    the diagonal is mirrored into (j, i) and one on it is a sum of symmetric
    products, so B is exactly symmetric. The off-diagonal blocks capture the
    dependence induced by the shared sample. cov = A^-1 B A^-T / n is the one
    sandwich covariance of the pipeline; the fits carry none. Nothing here
    reads a role, so any fits stack: a mediator and an outcome fit, or two
    fits of one model.

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
    bounds = np.cumsum([0] + [fit.theta.size for fit in fits])
    blocks = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]

    A = np.zeros((theta.size, theta.size))
    B = np.zeros((theta.size, theta.size))
    # Rows that overflow B are reported once, by the finiteness check below.
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in row_blocks(n, theta.size):
            psi = [fit.rows(rows) for fit in fits]
            for i, block in enumerate(blocks):
                for j in range(i, len(fits)):
                    B[block, blocks[j]] += psi[i].T @ psi[j]
            del psi  # freed before the next block's rows are formed, not after
        B /= n
    for i, (fit, block) in enumerate(zip(fits, blocks)):
        A[block, block] = fit.jacobian_A
        for j in range(i + 1, len(fits)):
            B[blocks[j], block] = B[block, blocks[j]].T
    cov = sandwich_covariance(A, B, n)
    if not np.all(np.isfinite(cov)):
        raise InferenceError("stacked sandwich covariance is not finite")
    return StackedFit(theta, A, B, cov)


def _complex_step_jacobian(f, theta: np.ndarray) -> np.ndarray:
    """Jacobian of a map ``f`` at real ``theta``, one complex step per parameter.

    Im f(theta + i h e_j) / h is the derivative in theta_j up to an O(h^2)
    term (Squire & Trapp 1998, SIAM Rev. 40:110). The maps in use (the effect
    maps and the identity) are affine in each parameter taken alone, so that
    term is zero, and the power-of-two h makes the division exact: the result
    is the closed-form gradient bit for bit. Stepping one parameter at a time
    keeps every sum in the order of the real evaluation, which one batched
    call would not. Adding 0.0 turns the -0.0 that a negative real part
    leaves in a structural zero into 0.0.
    """
    h = 2.0**-60
    steps = np.asarray(theta, dtype=float) + 1j * h * np.eye(np.size(theta))
    return np.column_stack([f(z).imag for z in steps]) / h + 0.0


def effect_map_g0(theta: np.ndarray) -> np.ndarray:
    """(ACME, ADE, ATE) from (beta2, beta3, gamma): the product-of-coefficients map.

    Complex input is kept complex, for :func:`map_intervals`' complex step.
    """
    beta2, beta3, gamma = np.asarray(theta, dtype=complex if np.iscomplexobj(theta) else float)
    return np.array([beta2 * gamma, beta3, beta3 + beta2 * gamma])


def effect_map_g1(theta1: np.ndarray, xbar: np.ndarray) -> np.ndarray:
    """(ACME(0), ACME(1), ADE(0), ADE(1), ATE) from (alpha2, beta2, xi2, beta3, gamma, eta).

    The mediator means mu_M(0) = alpha2 + xi2'xbar and mu_M(1) = mu_M(0) + beta2
    use the empirical covariate mean, treated as fixed. Complex ``theta1`` is
    kept complex, for :func:`map_intervals`' complex step.
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


def map_intervals(stacked: StackedFit, positions: list[int], f, names: tuple[str, ...]) -> EffectEstimates:
    """Push the stacked covariance through a map ``f`` of ``stacked.theta[positions]``.

    This is the one inference route: every reported number is such a map,
    and ``f`` must keep complex input complex. The values are ``f`` at the
    estimate, J is its complex-step Jacobian, and their covariance is
    J Sigma J' on the positions' block of the stacked covariance, symmetrized.
    A variance below -1e-12 signals a broken covariance upstream and raises;
    tiny negatives are clipped to zero. The 95% Wald bounds use the fixed z
    quantile, and the two-sided normal p-values erfc(|z| / sqrt 2) are NaN
    where the standard error is 0.
    """
    theta = stacked.theta[positions]
    values = np.asarray(f(theta), dtype=float)
    J = _complex_step_jacobian(f, theta)
    cov = J @ stacked.cov[positions][:, positions] @ J.T
    cov = (cov + cov.T) / 2.0
    var = cov.diagonal().copy()
    if (var < -1e-12).any():
        raise InferenceError(f"negative variance ({var.min():.3g}): covariance is broken upstream")
    var[var < 0.0] = 0.0
    se = np.sqrt(var)
    p_values = np.array([math.erfc(abs(v / s) / math.sqrt(2.0)) if s > 0 else math.nan for v, s in zip(values, se)])
    return EffectEstimates(
        names=names,
        values=values,
        cov=cov,
        ci_lower=values - Z95 * se,
        ci_upper=values + Z95 * se,
        p_values=p_values,
    )


def effects_from_stacked(stacked: StackedFit, idx: ParameterIndex, xbar: np.ndarray) -> EffectEstimates:
    """The model's effects from a stacked fit, through :func:`map_intervals`.

    ``idx`` locates the named coefficients in a (mediator, outcome) stack.
    The interaction map applies exactly when the outcome model has an
    interaction coefficient.
    """
    if idx.eta is None:
        return map_intervals(stacked, [idx.beta2, idx.beta3, idx.gamma], effect_map_g0, NO_INTERACTION_EFFECTS)
    positions = [idx.alpha2, idx.beta2, *idx.xi2, idx.beta3, idx.gamma, idx.eta]
    return map_intervals(stacked, positions, lambda v: effect_map_g1(v, xbar), INTERACTION_EFFECTS)


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
        if method not in self.methods:
            raise InferenceError(f"method {method!r} was not run; mediate ran {', '.join(self.methods)}")
        res = self.methods[method].effects
        if res is None:
            raise InferenceError(f"{method} fit failed; no effects available")
        return res


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
    # The covariate means are the mediator design's, computed once with it.
    xbar = med_design.column_means[list(med_design.covariate_indices())]

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
                p_val = float(map_intervals(stacked, [idx.eta], lambda v: v, ("eta",)).p_values[0])
            results[m] = MethodResult(effects, stacked, med_fit, out_fit, p_val)
        else:
            results[m] = MethodResult(None, None, med_fit, out_fit, None)

    return MediationResult(results, xbar, tuple(covariates), interaction, dataset.n)
