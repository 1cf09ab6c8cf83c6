"""Regression estimators for one linear model.

Two fitting routes share a single estimating-function interface:

* ``fit_ols`` solves least squares and evaluates the moment rows
  ``(x_ij * e_i, e_i^2 - sigma2)``.
* ``fit_semiparametric`` solves the adaptive score equations -- intercept row
  ``e_i``, slope rows ``(x_ij - xbar_j) * shat(e_i)`` with ``shat`` the
  centered kernel-estimated log-density derivative of the residuals, variance
  row ``e_i^2 - sigma2`` -- by damped Newton iteration from five deterministic
  starting points, screening implausible roots.

Both return per-observation estimating-function values, the averaged Jacobian
``A`` and the sandwich covariance ``A^-1 B A^-T / n``. Each fit computes its
``A`` once, by central differences with any fitted nuisance held fixed;
downstream inference stacks the fits' ``psi_values`` and ``jacobian_A`` across
the mediator and outcome models without re-evaluating either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import DesignMatrix

# Solver constants. The iteration cap is part of the fitting contract; the
# remaining tolerances keep the Gaussian benchmark within least-squares noise.
MAX_NEWTON_ITERATIONS = 200
NEWTON_RESIDUAL_TOL = 1e-8
NEWTON_STEP_TOL = 1e-10
MAX_STEP_HALVINGS = 10
FD_STEP_REL = 1e-6
JACOBIAN_STEP_REL = 1e-5
ACCEPT_PSI_MEAN_TOL = 1e-6

# Kernel-score constants: density floor relative to the peak, and the
# bandwidth-scaled cap applied to the final score values.
DENSITY_FLOOR_REL = 1e-3
SCORE_CLIP_OVER_H = 10.0


class EstimationError(ValueError):
    """Violated precondition of an estimation routine."""


@dataclass(frozen=True)
class ParameterPoint:
    """One regression parameter value theta = (beta, sigma2)."""

    beta: np.ndarray
    sigma2: float

    def as_vector(self) -> np.ndarray:
        return np.append(self.beta, self.sigma2)

    @staticmethod
    def from_vector(v: np.ndarray) -> "ParameterPoint":
        v = np.asarray(v, dtype=float)
        return ParameterPoint(v[:-1].copy(), float(v[-1]))


@dataclass(frozen=True)
class FitDiagnostics:
    start_index_used: int | None
    iterations: int
    residual_norm: float
    rcond: float
    screened_reasons: tuple[str, ...] = ()


@dataclass(frozen=True)
class RegressionFit:
    """A fitted regression with its inferential ingredients.

    ``psi_values`` holds the n x (p+1) per-observation estimating-function
    rows at the solution, ``jacobian_A`` their averaged parameter derivative
    with any fitted nuisance (the estimated score function) held fixed, and
    ``cov`` the sandwich covariance of theta. Stacked inference takes
    ``jacobian_A`` as its diagonal block as is.
    """

    params: ParameterPoint
    method: str
    psi_values: np.ndarray
    jacobian_A: np.ndarray
    cov: np.ndarray
    diagnostics: FitDiagnostics
    design: DesignMatrix
    response: np.ndarray

    @property
    def n(self) -> int:
        return self.response.shape[0]


@dataclass(frozen=True)
class FitFailure:
    """Numerical-failure flag: no candidate root survived screening."""

    method: str
    reasons: tuple[str, ...]


@dataclass(frozen=True)
class ScoreEstimate:
    """Kernel estimate of the residual log-density derivative f'/f.

    Values are clamped to the score at the nearest adequately-dense point
    wherever the density estimate falls below its relative floor, then clipped
    to ``clip_bound`` in absolute value.
    """

    eval_points: np.ndarray
    score_values: np.ndarray
    bandwidth: float
    clip_bound: float


@dataclass(frozen=True)
class StartSet:
    """The five deterministic solver starts: OLS, then +-d, then +-(s*d)."""

    starts: tuple[ParameterPoint, ...]
    d: np.ndarray
    s: np.ndarray


@dataclass(frozen=True)
class ScreeningRule:
    rcond_min: float = 1e-10
    sigma2_max_ratio: float = 25.0
    coef_abs_max: float = 100.0
    coef_ols_dev_max: float = 15.0


@dataclass(frozen=True)
class NewtonResult:
    root: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool
    reason: str | None = None


def mean_psi_jacobian(mean_psi: Callable[[np.ndarray], np.ndarray], theta: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of the averaged estimating function."""
    theta = np.asarray(theta, dtype=float)
    dim = theta.size
    J = np.empty((dim, dim))
    for j in range(dim):
        step = JACOBIAN_STEP_REL * max(1.0, abs(theta[j]))
        hi = theta.copy()
        lo = theta.copy()
        hi[j] += step
        lo[j] -= step
        J[:, j] = (mean_psi(hi) - mean_psi(lo)) / (2.0 * step)
    return J


def reciprocal_condition(matrix: np.ndarray) -> float:
    """Smallest-to-largest singular-value ratio; 0.0 for non-finite input."""
    if not np.all(np.isfinite(matrix)):
        return 0.0
    svals = np.linalg.svd(matrix, compute_uv=False)
    if svals[0] == 0.0:
        return 0.0
    return float(svals[-1] / svals[0])


def sandwich_covariance(A: np.ndarray, B: np.ndarray, n: int) -> np.ndarray:
    """Symmetrized A^-1 B A^-T / n, computed by linear solves."""
    C = np.linalg.solve(A, B)
    cov = np.linalg.solve(A, C.T).T / n
    return (cov + cov.T) / 2.0


def ols_psi(design: DesignMatrix, response: np.ndarray, point: ParameterPoint) -> np.ndarray:
    """Least-squares moment rows (x_ij * e_i, e_i^2 - sigma2)."""
    X = design.values
    e = response - X @ point.beta
    psi = np.empty((X.shape[0], design.p + 1))
    psi[:, : design.p] = X * e[:, None]
    psi[:, design.p] = e * e - point.sigma2
    return psi


def fit_ols(design: DesignMatrix, response: np.ndarray) -> RegressionFit:
    """Least-squares fit with sandwich (HC0-style) coefficient covariance.

    ``sigma2`` is the usual RSS/(n-p); the variance moment row therefore does
    not average to zero exactly, but the coefficient block of the sandwich is
    unaffected because the averaged Jacobian is block-triangular in sigma2.
    """
    X = design.values
    y = np.asarray(response, dtype=float)
    n, p = X.shape
    if y.shape != (n,):
        raise EstimationError(f"response has shape {y.shape}, expected ({n},)")
    if n <= p:
        raise EstimationError(f"need n > p for least squares (n={n}, p={p})")
    beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < p:
        raise EstimationError("design matrix is rank-deficient")
    e = y - X @ beta
    sigma2 = float(e @ e) / (n - p)
    point = ParameterPoint(beta, sigma2)
    psi = ols_psi(design, y, point)
    A = mean_psi_jacobian(lambda v: ols_psi(design, y, ParameterPoint.from_vector(v)).mean(axis=0), point.as_vector())
    B = psi.T @ psi / n
    cov = sandwich_covariance(A, B, n)
    diag = FitDiagnostics(
        start_index_used=None,
        iterations=0,
        residual_norm=float(np.max(np.abs(psi.mean(axis=0)))),
        rcond=reciprocal_condition(A),
    )
    return RegressionFit(point, "ols", psi, A, cov, diag, design, y)


def _score_values(r: np.ndarray, pts: np.ndarray, h: float, exclude_self: bool) -> np.ndarray:
    """Clamped, clipped kernel score values; optionally drop index-paired self terms."""
    # Unnormalized kernel sums; the 1/(n h sqrt(2 pi)) factor cancels both in
    # the ratio f'/f and in the relative density floor.
    u = (pts[:, None] - r[None, :]) / h
    K = np.exp(-0.5 * u * u)
    density = K.sum(axis=1)
    # f'(e) proportional to -sum(u K)/h, so f'/f = -(sum u K)/(h sum K).
    numer = -(u * K).sum(axis=1) / h
    if exclude_self:
        d = (pts - r) / h
        k_self = np.exp(-0.5 * d * d)
        density = density - k_self
        numer = numer + d * k_self / h

    floor = DENSITY_FLOOR_REL * float(density.max(initial=0.0))
    ok = density >= floor
    if floor <= 0.0 or not ok.any():
        raise EstimationError("degenerate density estimate")
    score = np.zeros_like(pts)
    np.divide(numer, density, out=score, where=ok)
    if not ok.all():
        bad = np.flatnonzero(~ok)
        good = np.flatnonzero(ok)
        nearest = good[np.abs(pts[bad][:, None] - pts[good][None, :]).argmin(axis=1)]
        score[bad] = score[nearest]

    clip = SCORE_CLIP_OVER_H / h
    np.clip(score, -clip, clip, out=score)
    return score


def silverman_bandwidth(residuals: np.ndarray) -> float:
    sd = float(np.std(residuals, ddof=1))
    if sd == 0.0:
        raise EstimationError("zero-variance residuals: kernel bandwidth is 0")
    return 1.06 * sd * residuals.size ** (-0.2)


def estimate_score(
    residuals: np.ndarray,
    eval_points: np.ndarray,
    bandwidth: float | None = None,
) -> ScoreEstimate:
    """Estimate the residual log-density derivative f'/f by Gaussian-kernel KDE.

    The bandwidth defaults to Silverman's 1.06 * sd * n^(-1/5). Evaluation
    points where the density estimate is below 1e-3 of its maximum inherit the
    score of the nearest adequately-dense point, and the result is clipped to
    |score| <= 10 / bandwidth, preventing tail blow-ups from derailing the
    Newton steps that consume these values.
    """
    r = np.asarray(residuals, dtype=float)
    pts = np.asarray(eval_points, dtype=float)
    if r.size < 10:
        raise EstimationError(f"need at least 10 residuals for score estimation (got {r.size})")
    if not np.all(np.isfinite(r)):
        raise EstimationError("residuals contain non-finite values")
    if bandwidth is None:
        h = silverman_bandwidth(r)
    else:
        h = float(bandwidth)
        if h <= 0.0:
            raise EstimationError("bandwidth must be positive")
    return ScoreEstimate(pts, _score_values(r, pts, h, exclude_self=False), h, SCORE_CLIP_OVER_H / h)


def _assemble_score_psi(
    design: DesignMatrix,
    e: np.ndarray,
    s_centered: np.ndarray,
    sigma2: float,
) -> np.ndarray:
    # Slope rows pair the centered score with the centered regressor. The
    # centering changes nothing about the solved equations (both centerings
    # expand to mean(x_j shat) - xbar_j * mean(shat) = 0), but it makes the
    # per-observation rows a proper estimating function for the sandwich: the
    # adaptive score is invariant to intercept shifts, so the slope rows must
    # carry no intercept coupling and their outer products must scale with the
    # centered regressor moments, or the covariance is inconsistent.
    X = design.values
    psi = np.empty((X.shape[0], design.p + 1))
    psi[:, 0] = e
    x_centered = X[:, 1:] - X[:, 1:].mean(axis=0)
    psi[:, 1 : design.p] = x_centered * s_centered[:, None]
    psi[:, design.p] = e * e - sigma2
    return psi


def semiparam_psi(
    design: DesignMatrix,
    response: np.ndarray,
    point: ParameterPoint,
    bandwidth: float | None = None,
) -> np.ndarray:
    """Adaptive-score estimating-function rows at one parameter point.

    The score is re-estimated from the current residuals on every call, so the
    system stays fully implicit in (beta, sigma2): intercept row e_i, slope
    rows (x_ij - xbar_j) times the centered score, variance row e_i^2 - sigma2.
    Each observation's own kernel is left out of its score evaluation; keeping
    it shrinks the in-sample scores and steepens their derivative, which biases
    the downstream sandwich.
    """
    if point.sigma2 <= 0.0:
        raise EstimationError("sigma2 must be positive")
    X = design.values
    y = np.asarray(response, dtype=float)
    e = y - X @ point.beta
    if e.size < 10:
        raise EstimationError(f"need at least 10 residuals for score estimation (got {e.size})")
    if not np.all(np.isfinite(e)):
        raise EstimationError("residuals contain non-finite values")
    h = silverman_bandwidth(e) if bandwidth is None else float(bandwidth)
    s = _score_values(e, e, h, exclude_self=True)
    return _assemble_score_psi(design, e, s - s.mean(), point.sigma2)


def frozen_score_psi_and_jacobian(
    design: DesignMatrix,
    response: np.ndarray,
    root: ParameterPoint,
) -> tuple[np.ndarray, np.ndarray]:
    """Estimating-function rows at the root and their Jacobian, fitted score frozen.

    The kernel score function (data points, bandwidth, centering constant) is
    frozen at the root's residuals; only the evaluation points move with the
    parameter. Differentiating this function, rather than re-estimating the
    score inside the difference quotient, is what makes the sandwich
    A^-1 B A^-T consistent for the estimator's variance: the adaptive score
    estimate is first-order ignorable, while re-estimation inside A cancels
    part of the derivative and inflates the variance roughly twofold. At the
    root the evaluation points are the data points, so the one kernel pass
    that gives the centering constant also gives the rows.
    """
    X = design.values
    y = np.asarray(response, dtype=float)
    root_resid = y - X @ root.beta
    h0 = silverman_bandwidth(root_resid)
    root_score = _score_values(root_resid, root_resid, h0, exclude_self=True)
    center = float(root_score.mean())

    def mean_psi(v: np.ndarray) -> np.ndarray:
        point = ParameterPoint.from_vector(v)
        e = y - X @ point.beta
        s = _score_values(root_resid, e, h0, exclude_self=True) - center
        return _assemble_score_psi(design, e, s, point.sigma2).mean(axis=0)

    psi = _assemble_score_psi(design, root_resid, root_score - center, root.sigma2)
    return psi, mean_psi_jacobian(mean_psi, root.as_vector())


def newton_root(
    F: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    max_iterations: int = MAX_NEWTON_ITERATIONS,
) -> NewtonResult:
    """Damped Newton iteration with a forward-difference Jacobian.

    Success means the sup-norm of F drops below 1e-8 or the damped step norm
    below 1e-10; each step is halved up to 10 times seeking a decrease in
    ||F||_inf, and a singular numerical Jacobian or non-finite values end the
    run as a failure.
    """
    x = np.asarray(x0, dtype=float).copy()
    fx = np.asarray(F(x), dtype=float)
    if not np.all(np.isfinite(fx)):
        return NewtonResult(x, 0, float("inf"), False, "non-finite function value at start")
    norm = float(np.max(np.abs(fx)))

    for iteration in range(1, max_iterations + 1):
        if norm < NEWTON_RESIDUAL_TOL:
            return NewtonResult(x, iteration - 1, norm, True)

        J = np.empty((fx.size, x.size))
        for j in range(x.size):
            step = FD_STEP_REL * max(1.0, abs(x[j]))
            xj = x.copy()
            xj[j] += step
            J[:, j] = (F(xj) - fx) / step
        if not np.all(np.isfinite(J)):
            return NewtonResult(x, iteration, norm, False, "non-finite jacobian")
        try:
            dx = np.linalg.solve(J, -fx)
        except np.linalg.LinAlgError:
            return NewtonResult(x, iteration, norm, False, "singular jacobian")
        if not np.all(np.isfinite(dx)):
            return NewtonResult(x, iteration, norm, False, "singular jacobian")

        # Step-halving line search on ||F||_inf; if no halving finds a
        # decrease, the smallest step is taken and the step-norm criterion
        # or the iteration cap ends the run.
        t = 1.0
        x_new = x + dx
        f_new = np.asarray(F(x_new), dtype=float)
        for _ in range(MAX_STEP_HALVINGS):
            if np.all(np.isfinite(f_new)) and float(np.max(np.abs(f_new))) < norm:
                break
            t /= 2.0
            x_new = x + t * dx
            f_new = np.asarray(F(x_new), dtype=float)
        if not np.all(np.isfinite(f_new)):
            return NewtonResult(x, iteration, norm, False, "non-finite function value")

        step_norm = float(np.linalg.norm(t * dx))
        x, fx = x_new, f_new
        norm = float(np.max(np.abs(fx)))
        if norm < NEWTON_RESIDUAL_TOL:
            return NewtonResult(x, iteration, norm, True)
        if step_norm < NEWTON_STEP_TOL:
            return NewtonResult(x, iteration, norm, True)

    return NewtonResult(x, max_iterations, norm, False, "maximum iterations reached")


def make_starts(ols: RegressionFit) -> StartSet:
    """Five deterministic starts around the least-squares solution.

    Per-coefficient steps d_j = max(0.05, 0.1 * max(1, |beta_j|)) and the
    alternating sign vector s = (1, -1, 1, -1, ...); the variance start is the
    least-squares residual variance throughout.
    """
    b = ols.params.beta
    s2 = ols.params.sigma2
    d = np.maximum(0.05, 0.1 * np.maximum(1.0, np.abs(b)))
    s = np.where(np.arange(b.size) % 2 == 0, 1.0, -1.0)
    starts = (
        ParameterPoint(b.copy(), s2),
        ParameterPoint(b + d, s2),
        ParameterPoint(b - d, s2),
        ParameterPoint(b + s * d, s2),
        ParameterPoint(b - s * d, s2),
    )
    return StartSet(starts, d, s)


def screen_root(
    candidate: ParameterPoint,
    cov: np.ndarray | None,
    rcond: float,
    ols: RegressionFit,
    rule: ScreeningRule = ScreeningRule(),
) -> tuple[bool, str | None]:
    """Accept or reject a converged root; the reason names the first violated rule."""
    b = candidate.beta
    b_ols = ols.params.beta
    if not np.all(np.isfinite(b)):
        return False, "non-finite coefficient"
    if not math.isfinite(candidate.sigma2) or candidate.sigma2 <= 0.0:
        return False, "non-positive variance"
    if candidate.sigma2 > rule.sigma2_max_ratio * ols.params.sigma2:
        return False, "variance ratio"
    if np.any(np.abs(b) > rule.coef_abs_max):
        return False, "coefficient magnitude"
    if np.any(np.abs(b - b_ols) > rule.coef_ols_dev_max * np.maximum(1.0, np.abs(b_ols))):
        return False, "coefficient deviation"
    if cov is not None and not np.all(np.isfinite(cov)):
        return False, "non-finite covariance"
    if not (rcond > rule.rcond_min):
        return False, "condition number"
    return True, None


def fit_semiparametric(
    design: DesignMatrix,
    response: np.ndarray,
    rule: ScreeningRule = ScreeningRule(),
) -> RegressionFit | FitFailure:
    """Multi-start solve of the adaptive score equations for one regression.

    Starts are tried in their fixed order; the first converged root that
    passes the condition-number and plausibility screens is returned with its
    sandwich covariance. If none survives, a :class:`FitFailure` records one
    reason per start. Requires n >= p + 10 so the residual score estimate has
    something to work with.
    """
    X = design.values
    y = np.asarray(response, dtype=float)
    n, p = X.shape
    if n < p + 10:
        raise EstimationError(f"need n >= p + 10 for score estimation (n={n}, p={p})")
    ols = fit_ols(design, y)
    starts = make_starts(ols)
    dim = p + 1

    def mean_psi(v: np.ndarray) -> np.ndarray:
        try:
            return semiparam_psi(design, y, ParameterPoint.from_vector(v)).mean(axis=0)
        except EstimationError:
            return np.full(dim, np.nan)

    reasons: list[str] = []
    for idx, start in enumerate(starts.starts):
        result = newton_root(mean_psi, start.as_vector())
        if not result.converged:
            reasons.append(f"start {idx}: {result.reason}")
            continue
        if result.residual_norm > ACCEPT_PSI_MEAN_TOL:
            reasons.append(f"start {idx}: stalled with residual norm {result.residual_norm:.3g}")
            continue
        point = ParameterPoint.from_vector(result.root)
        try:
            psi, A = frozen_score_psi_and_jacobian(design, y, point)
        except EstimationError as exc:
            reasons.append(f"start {idx}: {exc}")
            continue
        rcond = reciprocal_condition(A)
        cov: np.ndarray | None = None
        if rcond > rule.rcond_min:
            B = psi.T @ psi / n
            cov = sandwich_covariance(A, B, n)
        accepted, reason = screen_root(point, cov, rcond, ols, rule)
        if accepted:
            assert cov is not None
            diag = FitDiagnostics(
                start_index_used=idx,
                iterations=result.iterations,
                residual_norm=result.residual_norm,
                rcond=rcond,
                screened_reasons=tuple(reasons),
            )
            return RegressionFit(point, "semiparametric", psi, A, cov, diag, design, y)
        reasons.append(f"start {idx}: {reason}")
    return FitFailure("semiparametric", tuple(reasons))

