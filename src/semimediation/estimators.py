"""Regression estimators for one linear model.

Two fitting routes share a single estimating-function interface:

* ``fit_ols`` solves least squares and evaluates the moment rows
  ``(x_ij * e_i, e_i^2 - sigma2)``. It is the one place that decides whether
  a design can be fitted: its ``A`` must have reciprocal condition number
  above ``RCOND_MIN``.
* ``fit_semiparametric`` solves the adaptive score equations -- intercept row
  ``e_i``, slope rows ``(x_ij - xbar_j) * shat(e_i)`` with ``shat`` the
  centered kernel-estimated log-density derivative of the residuals, variance
  row ``e_i^2 - sigma2`` -- by damped Newton iteration from five deterministic
  starting points, each judged once: a reason string, or None if accepted.

A model's parameters are one vector theta = (beta, sigma2), coefficients
first and the variance last, from the starts through Newton and the screens
to the stacked sandwich. Both fits return theta, the per-observation
estimating-function values and the averaged Jacobian ``A``, and nothing
more: the sandwich covariance is formed once, over the stacked rows of both
models, by ``inference.stack_fits``. Every Jacobian is exact and
closed-form: least squares gives ``[[-X'X/n, 0], [-2 mean(e x)', -1]]``, and
one leave-one-out Gaussian-kernel pass (``semiparam_psi``) gives the rows,
Newton's Jacobian (score re-estimated) and ``A`` (score frozen) as moment
sums. The pass runs over row blocks of the kernel matrix in two reused
buffers, so its memory is a fixed budget (``KERNEL_BLOCK_BYTES``) plus
O(n p), never O(n^2). ``fit_semiparametric`` reads its design and response
from the least-squares fit that seeds its starts, and Newton hands back the
rows and ``A`` of its evaluation at the root together with the root, so no
kernel pass follows the solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .data import DesignMatrix

# Solver constants, read by newton_root alone. The iteration cap is part of the
# fitting contract; the tolerances keep the Gaussian benchmark within OLS noise.
MAX_NEWTON_ITERATIONS = 200
NEWTON_RESIDUAL_TOL = 1e-8
NEWTON_STEP_TOL = 1e-10
MAX_STEP_HALVINGS = 10
ACCEPT_PSI_MEAN_TOL = 1e-6

# The reciprocal-condition floor of every sandwich A: a least-squares design
# below it is rejected, and so is a root. The other root screens: the largest
# variance relative to least squares, and the largest coefficient deviation
# from least squares in units of max(1, |beta_ols|).
RCOND_MIN = 1e-10
SIGMA2_MAX_RATIO = 25.0
COEF_OLS_DEV_MAX = 15.0

# Kernel-score constants: density floor relative to the peak, and the
# bandwidth-scaled cap applied to the final score values.
DENSITY_FLOOR_REL = 1e-3
SCORE_CLIP_OVER_H = 10.0
# Memory for the kernel pass's two row-block buffers, about one core's L2:
# up to n of about 360 the pass is a single block. Of budgets from 0.5 to
# 32 MiB this was the fastest at n = 20 000 on a 2-vCPU VM with 2 MiB of L2
# per core (32 MiB took 1.5 times as long).
KERNEL_BLOCK_BYTES = 2 * 1024 * 1024


class EstimationError(ValueError):
    """Violated precondition of an estimation routine."""


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

    ``theta`` is the parameter vector (beta, sigma2), coefficients first and
    the variance last. ``psi_values`` holds the n x (p+1) per-observation
    estimating-function rows at the solution and ``jacobian_A`` their averaged
    parameter derivative with any fitted nuisance (the estimated score
    function) held fixed. Stacked inference takes the rows and ``jacobian_A``
    as they are and forms the only covariance from them.
    """

    theta: np.ndarray
    method: str
    psi_values: np.ndarray
    jacobian_A: np.ndarray
    diagnostics: FitDiagnostics
    design: DesignMatrix
    response: np.ndarray

    @property
    def n(self) -> int:
        return self.response.shape[0]


@dataclass(frozen=True)
class FitFailure:
    """Numerical-failure flag of a semiparametric fit: no candidate root survived screening."""

    reasons: tuple[str, ...]


@dataclass(frozen=True)
class NewtonResult:
    """Where a Newton run ended, and how: ``reason`` is None if it converged.

    ``extra`` is the third output of the function's evaluation at ``root``,
    whether or not the run converged.
    """

    root: np.ndarray
    extra: Any
    iterations: int
    residual_norm: float
    reason: str | None = None


def reciprocal_condition(matrix: np.ndarray) -> float:
    """Smallest-to-largest singular-value ratio; 0.0 for non-finite input."""
    if not np.all(np.isfinite(matrix)):
        return 0.0
    svals = np.linalg.svd(matrix, compute_uv=False)
    if svals[0] == 0.0:
        return 0.0
    return float(svals[-1] / svals[0])


def fit_ols(design: DesignMatrix, response: np.ndarray) -> RegressionFit:
    """Least-squares fit with its moment rows and their averaged Jacobian.

    The moment rows are ``(x_ij * e_i, e_i^2 - sigma2)``. ``sigma2`` is the
    usual RSS/(n-p); the variance moment row therefore does not average to
    zero exactly, but the coefficient block of the sandwich formed from these
    rows (HC0-style) is unaffected because the averaged Jacobian
    ``A = [[-X'X/n, 0], [-2 mean(e x)', -1]]`` is block-triangular in sigma2.

    This is where a design is judged: ``A`` is singular exactly when X is
    rank-deficient, and a design whose ``A`` has reciprocal condition number
    not above ``RCOND_MIN`` (rank-deficient or ill-conditioned) raises
    :class:`EstimationError`, so every later step may invert ``A``.
    """
    X = design.values
    y = np.asarray(response, dtype=float)
    n, p = X.shape
    if y.shape != (n,):
        raise EstimationError(f"response has shape {y.shape}, expected ({n},)")
    if n <= p:
        raise EstimationError(f"need n > p for least squares (n={n}, p={p})")
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    e = y - X @ beta
    sigma2 = float(e @ e) / (n - p)
    A = np.zeros((p + 1, p + 1))
    A[:p, :p] = -(X.T @ X) / n
    A[p, :p] = -2.0 * (e @ X) / n
    A[p, p] = -1.0
    rcond = reciprocal_condition(A)
    if not (rcond > RCOND_MIN):
        raise EstimationError(f"design matrix is rank-deficient or ill-conditioned (rcond={rcond:.3g})")
    psi = np.empty((n, p + 1))
    psi[:, :p] = X * e[:, None]
    psi[:, p] = e * e - sigma2
    diag = FitDiagnostics(
        start_index_used=None,
        iterations=0,
        residual_norm=float(np.max(np.abs(psi.mean(axis=0)))),
        rcond=rcond,
    )
    return RegressionFit(np.append(beta, sigma2), "ols", psi, A, diag, design, y)


def _kernel_score(
    e: np.ndarray,
    h: float,
    X: np.ndarray,
    dh: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leave-one-out kernel score of the residuals at themselves, and its two beta-derivatives.

    One pass over K_ik = exp(-u_ik^2 / 2), u_ik = (e_i - e_k) / h, with the
    diagonal K_ii dropped (leave-one-out). With the row sums S_j = sum_k u^j K
    the score is f'/f = -S1 / (h S0); the kernel's 1/(n h sqrt(2 pi)) factor
    cancels both here and in the relative density floor. Points below the
    floor copy the score of the nearest dense point, and every score is
    clipped to 10 / h.

    The residuals are e = y - X beta, so d e_i / d beta = -x_i, and the same
    pass gives two n x p derivatives d score / d beta:

    * ``ds_newton``, the score re-estimated: data points move with the
      evaluation points, adding the products K X, (u K) X and (u^2 K) X, and
      the bandwidth moves by ``dh`` (zeros for a fixed one), adding S2 and S3.
      Clipped points hold -s dh / h, the derivative of the clip bound.
    * ``ds_frozen``, the score function frozen: data points, bandwidth and
      clip bound stay put and only the evaluation points move, which needs S2
      alone. Clipped points hold 0.

    Clamped points take the derivative of the point whose score they copy.

    The pass runs over blocks of rows = ``KERNEL_BLOCK_BYTES`` // (16 n) rows,
    at least one, in two reused rows x n buffers (u and K), which take at most
    max(``KERNEL_BLOCK_BYTES``, 16 n) bytes together; the rest is O(n p). Each
    block's moments M_j = sum_k u^j K [1, x_k], j = 0, 1, 2, come from three
    products with G = [1 | X], and S3 from one row-wise dot product. The
    nearest dense point of a clamped one is found in blocks of as many rows.
    """
    n, p = X.shape
    G = np.empty((n, p + 1))
    G[:, 0] = 1.0
    G[:, 1:] = X
    M = np.empty((3, n, p + 1))
    S3 = np.empty(n)
    # u = [e, 1] @ [1; -e] rounds each e_i - e_k once, as np.subtract.outer
    # does, but fills the buffer 2.5 times as fast at n = 300; the block is
    # then scaled by 1 / h.
    lhs = np.column_stack([e, np.ones(n)])
    rhs = np.vstack([np.ones(n), -e])
    inv_h = 1.0 / h
    rows = max(1, min(n, KERNEL_BLOCK_BYTES // (16 * n)))
    u_buf = np.empty((rows, n))
    K_buf = np.empty((rows, n))
    for a in range(0, n, rows):
        b = min(n, a + rows)
        u, K = u_buf[: b - a], K_buf[: b - a]
        np.matmul(lhs[a:b], rhs, out=u)
        u *= inv_h
        np.multiply(u, u, out=K)
        K *= -0.5
        np.exp(K, out=K)
        K.reshape(-1)[a :: n + 1] = 0.0  # entries (i, a + i): leave one out
        np.matmul(K, G, out=M[0, a:b])
        K *= u
        np.matmul(K, G, out=M[1, a:b])
        K *= u
        np.matmul(K, G, out=M[2, a:b])
        np.einsum("ik,ik->i", K, u, out=S3[a:b])
    S0, S1, S2 = M[:, :, 0]

    floor = DENSITY_FLOOR_REL * float(S0.max(initial=0.0))
    ok = S0 >= floor
    if floor <= 0.0 or not ok.any():
        raise EstimationError("degenerate density estimate")
    raw = np.zeros_like(e)
    np.divide(-S1 / h, S0, out=raw, where=ok)
    # Each point reads its score from src: itself, or the nearest dense point.
    src = np.arange(n)
    if not ok.all():
        bad = np.flatnonzero(~ok)
        good = np.flatnonzero(ok)
        for a in range(0, bad.size, rows):
            blk = bad[a : a + rows]
            src[blk] = good[np.abs(e[blk, None] - e[good]).argmin(axis=1)]
    clip = SCORE_CLIP_OVER_H / h
    score = np.clip(raw[src], -clip, clip)
    clipped = np.abs(raw[src]) > clip

    # score = -q / h with q = S1 / S0. With C = M0 - M2 + q M1 the derivatives
    # collapse to h (dS1 - q dS0) = -x C[0] + C[1:] - (S1 - S3 + q S2) dh,
    # and the frozen score keeps only the -x C[0] term.
    inv = np.zeros_like(S0)
    np.divide(1.0, S0, out=inv, where=ok)
    q = S1 * inv
    w = inv / (h * h)
    C = M[0] - M[2] + q[:, None] * M[1]
    draw_frozen = X * (C[:, 0] * w)[:, None]
    draw = draw_frozen - C[:, 1:] * w[:, None] + np.outer((S1 - S3 + q * S2) * w - raw / h, dh)
    ds_newton = draw[src]
    ds_newton[clipped] = -np.outer(score[clipped], dh) / h
    ds_frozen = draw_frozen[src]
    ds_frozen[clipped] = 0.0
    return score, ds_newton, ds_frozen


def silverman_bandwidth(residuals: np.ndarray) -> float:
    sd = float(np.std(residuals, ddof=1))
    if sd == 0.0:
        raise EstimationError("zero-variance residuals: kernel bandwidth is 0")
    return 1.06 * sd * residuals.size ** (-0.2)


def semiparam_psi(
    design: DesignMatrix,
    response: np.ndarray,
    theta: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adaptive-score estimating-function rows at one parameter vector
    theta = (beta, sigma2), with the Jacobians of their mean for Newton (J)
    and for the sandwich (A).

    The score is re-estimated from the current residuals on every call, so the
    system stays fully implicit in (beta, sigma2): intercept row e_i, slope
    rows (x_ij - xbar_j) times the centered score, variance row e_i^2 - sigma2.
    Each observation's own kernel is left out of its score evaluation; keeping
    it shrinks the in-sample scores and steepens their derivative, which biases
    the downstream sandwich. The bandwidth is Silverman's, 1.06 sd n^(-1/5).

    ``J`` differentiates the re-estimated score, bandwidth included
    (dh/dbeta = -h X'(e - ebar) / sum((e - ebar)^2)); Newton solves with it.
    ``A`` holds the score function (data points, bandwidth, centering
    constant) frozen at this point, so only the evaluation points move.
    Differentiating the frozen score, not the re-estimated one, is what makes
    the sandwich A^-1 B A^-T consistent for the estimator's variance at a
    root: the adaptive score estimate is first-order ignorable, while
    re-estimation inside A cancels part of the derivative and inflates the
    variance roughly twofold. Rows, J and A all come from one kernel pass.
    """
    beta, sigma2 = theta[:-1], theta[-1]
    if sigma2 <= 0.0:
        raise EstimationError("sigma2 must be positive")
    X = design.values
    y = np.asarray(response, dtype=float)
    e = y - X @ beta
    if e.size < 10:
        raise EstimationError(f"need at least 10 residuals for score estimation (got {e.size})")
    if not np.all(np.isfinite(e)):
        raise EstimationError("residuals contain non-finite values")
    h = silverman_bandwidth(e)
    dev = e - e.mean()
    dh = -h * (dev @ X) / (dev @ dev)
    s, ds_newton, ds_frozen = _kernel_score(e, h, X, dh)

    # Slope rows pair the centered score with the centered regressor. The
    # centering changes nothing about the solved equations (both centerings
    # expand to mean(x_j shat) - xbar_j * mean(shat) = 0), but it makes the
    # per-observation rows a proper estimating function for the sandwich: the
    # adaptive score is invariant to intercept shifts, so the slope rows must
    # carry no intercept coupling and their outer products must scale with the
    # centered regressor moments, or the covariance is inconsistent. For the
    # same reason the score's centering constant drops out of both Jacobians.
    n, p = X.shape
    psi = np.empty((n, p + 1))
    psi[:, 0] = e
    x_centered = X[:, 1:] - X[:, 1:].mean(axis=0)
    psi[:, 1:p] = x_centered * (s - s.mean())[:, None]
    psi[:, p] = e * e - sigma2
    J = np.zeros((p + 1, p + 1))
    J[0, :p] = -X.mean(axis=0)
    J[p, :p] = -2.0 * (e @ X) / n
    J[p, p] = -1.0
    A = J.copy()
    J[1:p, :p] = x_centered.T @ ds_newton / n
    A[1:p, :p] = x_centered.T @ ds_frozen / n
    return psi, J, A


def newton_root(
    F: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, Any]],
    x0: np.ndarray,
) -> NewtonResult:
    """Damped Newton iteration; ``F(x)`` returns the function value, its
    Jacobian and an extra value that Newton only carries.

    Success (``reason`` None) means the sup-norm of F drops below 1e-8, or the
    damped step norm below 1e-10 with the sup-norm at most 1e-6; a tiny step
    at a larger residual is no root, and the run "stalled". Each step is
    halved up to 10 times seeking a decrease in ||F||_inf, and the Jacobian
    and extra of the accepted trial point serve the next step. A singular
    Jacobian or non-finite values end the run as a failure. The result's
    ``extra`` is always that of the evaluation at its ``root``.
    """
    x = np.asarray(x0, dtype=float).copy()
    fx, J, extra = F(x)
    if not np.all(np.isfinite(fx)):
        return NewtonResult(x, extra, 0, float("inf"), "non-finite function value at start")
    norm = float(np.max(np.abs(fx)))
    if norm < NEWTON_RESIDUAL_TOL:
        return NewtonResult(x, extra, 0, norm)

    for iteration in range(1, MAX_NEWTON_ITERATIONS + 1):
        if not np.all(np.isfinite(J)):
            return NewtonResult(x, extra, iteration, norm, "non-finite jacobian")
        try:
            dx = np.linalg.solve(J, -fx)
        except np.linalg.LinAlgError:
            return NewtonResult(x, extra, iteration, norm, "singular jacobian")
        if not np.all(np.isfinite(dx)):
            return NewtonResult(x, extra, iteration, norm, "singular jacobian")

        # Step-halving line search on ||F||_inf; if no halving finds a
        # decrease, the smallest step is taken and the step-norm criterion
        # or the iteration cap ends the run.
        t = 1.0
        x_new = x + dx
        f_new, J_new, extra_new = F(x_new)
        for _ in range(MAX_STEP_HALVINGS):
            if np.all(np.isfinite(f_new)) and float(np.max(np.abs(f_new))) < norm:
                break
            t /= 2.0
            x_new = x + t * dx
            f_new, J_new, extra_new = F(x_new)
        if not np.all(np.isfinite(f_new)):
            return NewtonResult(x, extra, iteration, norm, "non-finite function value")

        step_norm = float(np.linalg.norm(t * dx))
        x, fx, J, extra = x_new, f_new, J_new, extra_new
        norm = float(np.max(np.abs(fx)))
        if norm < NEWTON_RESIDUAL_TOL or (step_norm < NEWTON_STEP_TOL and norm <= ACCEPT_PSI_MEAN_TOL):
            return NewtonResult(x, extra, iteration, norm)
        if step_norm < NEWTON_STEP_TOL:
            return NewtonResult(x, extra, iteration, norm, f"stalled with residual norm {norm:.3g}")

    return NewtonResult(x, extra, MAX_NEWTON_ITERATIONS, norm, "maximum iterations reached")


def make_starts(ols: RegressionFit) -> np.ndarray:
    """Five deterministic starts around the least-squares solution, one per row.

    The rows are b, b + d, b - d, b + s d and b - s d with the least-squares
    coefficients b, per-coefficient steps d_j = max(0.05, 0.1 * max(1, |b_j|))
    and the alternating sign vector s = (1, -1, 1, -1, ...); the variance
    column is the least-squares residual variance throughout.
    """
    b = ols.theta[:-1]
    d = np.maximum(0.05, 0.1 * np.maximum(1.0, np.abs(b)))
    s = np.where(np.arange(b.size) % 2 == 0, 1.0, -1.0)
    starts = np.tile(ols.theta, (5, 1))
    starts[1:, :-1] += [d, -d, s * d, -s * d]
    return starts


def screen_root(
    theta: np.ndarray,
    rcond: float,
    ols: RegressionFit,
) -> str | None:
    """The first plausibility rule a converged root breaks, or None if it breaks none.

    ``theta`` must be a root at which ``semiparam_psi`` evaluated to finite
    rows: Newton holds only such points, and the rows are finite only when
    beta is finite and 0 < sigma2 < inf. So no rule here checks finiteness or
    the sign of the variance.

    A root that passes is one whose sandwich is finite: the variance-ratio
    screen bounds mean(e^2), so its B is finite, and ``rcond > RCOND_MIN``
    keeps the solves with A finite. ``inference.stack_fits`` still checks the
    covariance it forms.
    """
    b, b_ols = theta[:-1], ols.theta[:-1]
    if theta[-1] > SIGMA2_MAX_RATIO * ols.theta[-1]:
        return "variance ratio"
    if np.any(np.abs(b - b_ols) > COEF_OLS_DEV_MAX * np.maximum(1.0, np.abs(b_ols))):
        return "coefficient deviation"
    if not (rcond > RCOND_MIN):
        return "condition number"
    return None


def fit_semiparametric(ols: RegressionFit) -> RegressionFit | FitFailure:
    """Multi-start solve of the adaptive score equations for one regression.

    ``ols`` is the least-squares fit of the regression: the design and
    response are read from it, and it seeds the starts and the screens.
    Starts are tried in their fixed order. A start's verdict is its Newton
    run's failure reason, else the first screen its root breaks; the first
    start with neither is returned with its rows and sandwich ``A``, and if
    none is, a :class:`FitFailure` records the reasons, one per start. Needs
    n >= p + 10 so the residual score estimate has something to work with.
    The root's rows and ``A`` come with it from Newton, as its extra value.
    """
    if ols.method != "ols":
        raise EstimationError(f"ols must be a least-squares fit, not a {ols.method} fit")
    design, y = ols.design, ols.response
    n, p = design.values.shape
    if n < p + 10:
        raise EstimationError(f"need n >= p + 10 for score estimation (n={n}, p={p})")
    dim = p + 1

    def mean_psi(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
        try:
            psi, J, A = semiparam_psi(design, y, v)
        except EstimationError:
            return np.full(dim, np.nan), np.full((dim, dim), np.nan), None
        return psi.mean(axis=0), J, (psi, A)

    reasons: list[str] = []
    for idx, start in enumerate(make_starts(ols)):
        result = newton_root(mean_psi, start)
        reason = result.reason
        if reason is None:
            psi, A = result.extra
            rcond = reciprocal_condition(A)
            reason = screen_root(result.root, rcond, ols)
        if reason is None:
            diag = FitDiagnostics(
                start_index_used=idx,
                iterations=result.iterations,
                residual_norm=result.residual_norm,
                rcond=rcond,
                screened_reasons=tuple(reasons),
            )
            return RegressionFit(result.root, "semiparametric", psi, A, diag, design, y)
        reasons.append(f"start {idx}: {reason}")
    return FitFailure(tuple(reasons))
