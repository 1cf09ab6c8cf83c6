"""Regression estimators for one linear model.

Two fitting routes share a single estimating-function interface:

* ``fit_ols`` solves least squares from the R factor of [X | y], accumulated
  over row blocks, so that its working memory is O(block p) beside the
  design. It is the one place that decides whether a design can be fitted:
  its ``A`` must have reciprocal condition number above ``RCOND_MIN``.
* ``fit_semiparametric`` solves the adaptive score equations -- intercept row
  ``e_i``, slope rows ``(x_ij - xbar_j) * shat(e_i)`` with ``shat`` the
  centered kernel-estimated log-density derivative of the residuals, variance
  row ``e_i^2 - sigma2`` -- by damped Newton iteration from five deterministic
  starting points, each judged once: a reason string, or None if accepted.

A model's parameters are one vector theta = (beta, sigma2), coefficients
first and the variance last, from the starts through Newton and the screens
to the stacked sandwich. Both fits return theta, the residuals (and, for the
semiparametric fit, the centred score) and the averaged Jacobian ``A``, and
nothing of width p + 1 and length n: ``estimating_rows`` forms a fit's
per-observation estimating-function rows for any range of rows on demand,
least squares ``(x_ij * e_i, e_i^2 - sigma2)`` and the score equations as
above. The sandwich covariance is formed once, over the stacked rows of both
models, by ``inference.stack_fits``, block by block of rows; one constant,
``ROW_BLOCK_BYTES``, sizes the blocks of both that sum and the least-squares
factorization (``row_blocks``). Every Jacobian is exact and closed-form:
least squares gives ``[[-X'X/n, 0], [-2 mean(e x)', -1]]``, and one
leave-one-out Gaussian-kernel pass (``semiparam_psi``) gives the equations'
means, Newton's Jacobian (score re-estimated) and the frozen score's
derivative as moment sums; ``A`` (score frozen) is formed from that
derivative once per converged root (``frozen_score_jacobian``), not on every
evaluation. The pass's n^2 work and its memory are described by
``_kernel_product``'s docstring, its O(n p) rest by ``_kernel_score``'s.
``fit_semiparametric`` reads its design and response from the least-squares
fit that seeds its starts and builds the fallback starts only once the
least-squares start fails. Newton works on the equations' means alone, so
no evaluation forms rows; it hands back the Jacobian and the residuals,
centred score and frozen derivative of its evaluation at the root together
with the root, so no kernel pass follows the solve. The fit keeps the
residuals and centred score, and its rows are formed once, for the
sandwich's B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator

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
# Memory for the kernel pass's one square block of K: a block's side is at
# most sqrt(KERNEL_BLOCK_BYTES / 8) = 256 and at most half of n, so up to
# n = 512 the pass forms two diagonal blocks and one off-diagonal block.
# The sweep that chose it is BENCH_30.json's block_budget_sweep.
KERNEL_BLOCK_BYTES = 512 * 1024
# Memory for one block of rows on the least-squares path: the rows of [X | y]
# that one QR step takes in, and the stacked estimating rows from which one
# step of B is summed. Read by row_blocks alone; at p = 7 a fit of up to
# 16 384 rows is one block. The sweep that chose it is BENCH_27.json's
# row_block_sweep.
ROW_BLOCK_BYTES = 1024 * 1024


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
    the variance last. ``residuals`` are y - X beta at the solution and
    ``centred_score`` the semiparametric fit's kernel score minus its mean
    (None for least squares): from them ``rows`` forms the per-observation
    estimating-function rows of any range of observations. ``jacobian_A`` is
    the rows' averaged parameter derivative with any fitted nuisance (the
    estimated score function) held fixed. Stacked inference takes the rows
    and ``jacobian_A`` as they are and forms the only covariance from them.
    """

    theta: np.ndarray
    method: str
    residuals: np.ndarray
    centred_score: np.ndarray | None
    jacobian_A: np.ndarray
    diagnostics: FitDiagnostics
    design: DesignMatrix
    response: np.ndarray

    @property
    def n(self) -> int:
        return self.response.shape[0]

    def rows(self, rows: slice = slice(None)) -> np.ndarray:
        """This fit's estimating-function rows ``rows``, from :func:`estimating_rows`."""
        return estimating_rows(self.design, self.residuals, self.theta[-1], self.centred_score, rows)


@dataclass(frozen=True)
class FitFailure:
    """Numerical-failure flag of a semiparametric fit: no candidate root survived screening."""

    reasons: tuple[str, ...]


@dataclass(frozen=True)
class NewtonResult:
    """Where a Newton run ended, and how: ``reason`` is None if it converged.

    ``jacobian`` and ``extra`` are the second and third outputs of the
    function's evaluation at ``root``, whether or not the run converged; both
    are None when the function raised at the start.
    """

    root: np.ndarray
    jacobian: np.ndarray | None
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


def row_blocks(n: int, width: int) -> Iterator[slice]:
    """Consecutive slices covering rows 0 to n, of ``ROW_BLOCK_BYTES`` // (8 width) rows each, at least one.

    A block of ``width`` float columns then takes at most max(``ROW_BLOCK_BYTES``,
    8 width) bytes. This is the only reader of ``ROW_BLOCK_BYTES``.
    """
    rows = max(1, ROW_BLOCK_BYTES // (8 * width))
    return (slice(lo, min(n, lo + rows)) for lo in range(0, n, rows))


def estimating_rows(
    design: DesignMatrix,
    residuals: np.ndarray,
    sigma2: float,
    centred_score: np.ndarray | None = None,
    rows: slice = slice(None),
) -> np.ndarray:
    """The estimating-function rows ``rows`` of one fit, a new m x (p + 1) array.

    Least squares (``centred_score`` None) has rows ``(x_ij e_i, e_i^2 -
    sigma2)``, the adaptive score equations ``(e_i, (x_ij - xbar_j) c_i,
    e_i^2 - sigma2)`` for j >= 1, with c the centred score. Each entry is one
    elementwise operation on row i alone, so a row has the same bits whatever
    range it is formed in. This is the one place that forms rows.
    """
    e = residuals[rows]
    p = design.values.shape[1]
    out = np.empty((e.size, p + 1))
    if centred_score is None:
        np.multiply(design.values[rows], e[:, None], out=out[:, :p])
    else:
        out[:, 0] = e
        np.multiply(design.centered_regressors[rows], centred_score[rows, None], out=out[:, 1:p])
    variance = out[:, p]
    np.multiply(e, e, out=variance)
    variance -= sigma2
    return out


def _least_squares(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The least-squares coefficients from the R factor of [X | y]; NaN where R is singular or not finite.

    R is accumulated over ``row_blocks``: each step factorizes the previous
    R stacked on the next block of [X | y], so no more than one block is
    held beside the data (the sequential TSQR of Demmel, Grigori, Hoemmen &
    Langou 2012, SIAM J. Sci. Comput. 34:A206). With n rows in one block this
    is a single Householder QR. beta solves R_11 beta = r_12 by an LU solve,
    which on a triangular matrix is back substitution.
    """
    n, p = X.shape
    R = np.empty((0, p + 1))
    try:
        for rows in row_blocks(n, p + 1):
            k = len(R)
            stacked = np.empty((k + rows.stop - rows.start, p + 1))
            stacked[:k] = R
            stacked[k:, :p] = X[rows]
            stacked[k:, p] = y[rows]
            R = np.linalg.qr(stacked, mode="r")
            del stacked  # freed before the next block is stacked, not after
        return np.linalg.solve(R[:p, :p], R[:p, p])
    except np.linalg.LinAlgError:
        # A zero pivot or non-finite arithmetic; the rcond check reports it.
        return np.full(p, np.nan)


def fit_ols(design: DesignMatrix, response: np.ndarray) -> RegressionFit:
    """Least-squares fit with its residuals and the averaged Jacobian of its moment rows.

    The moment rows (``estimating_rows``) are ``(x_ij * e_i, e_i^2 -
    sigma2)``. ``sigma2`` is the usual RSS/(n-p); the variance moment row
    therefore does not average to zero exactly, but the coefficient block of
    the sandwich formed from these rows (HC0-style) is unaffected because the
    averaged Jacobian ``A = [[-X'X/n, 0], [-2 mean(e x)', -1]]`` is
    block-triangular in sigma2. beta comes from ``_least_squares``, in
    O(block p) memory beside the design; the residuals are the one n-vector
    the fit allocates and keeps, and ``residual_norm`` is the largest of
    |X'e / n| and |mean(e^2) - sigma2|, the rows' means.

    This is where a design is judged: ``A`` is singular exactly when X is
    rank-deficient, and a design whose ``A`` has reciprocal condition number
    not above ``RCOND_MIN`` (rank-deficient or ill-conditioned, or whose R
    factor is singular or not finite) raises :class:`EstimationError`, so
    every later step may invert ``A``.
    """
    X = design.values
    y = np.asarray(response, dtype=float)
    n, p = X.shape
    if y.shape != (n,):
        raise EstimationError(f"response has shape {y.shape}, expected ({n},)")
    if n <= p:
        raise EstimationError(f"need n > p for least squares (n={n}, p={p})")
    A = np.zeros((p + 1, p + 1))
    # Columns so large that these products overflow, and a beta that is not
    # finite, are reported once, by the rcond check below.
    with np.errstate(over="ignore", invalid="ignore"):
        beta = _least_squares(X, y)
        e = X @ beta
        np.subtract(y, e, out=e)
        rss = float(e @ e)
        sigma2 = rss / (n - p)
        xe = (e @ X) / n
        A[:p, :p] = -(X.T @ X) / n
        A[p, :p] = -2.0 * xe
        variance_mean = rss / n - sigma2
    A[p, p] = -1.0
    rcond = reciprocal_condition(A)
    if not (rcond > RCOND_MIN):
        raise EstimationError(f"design matrix is rank-deficient or ill-conditioned (rcond={rcond:.3g})")
    diag = FitDiagnostics(
        start_index_used=None,
        iterations=0,
        residual_norm=max(float(np.max(np.abs(xe))), abs(variance_mean)),
        rcond=rcond,
    )
    return RegressionFit(np.append(beta, sigma2), "ols", e, None, A, diag, design, y)


def _kernel_product(a: np.ndarray, Xt: np.ndarray) -> np.ndarray:
    """[X, a X, a^2 X, a^3]^T K for K_ik = exp(-(a_i - a_k)^2 / 2) with K_ii = 0, a (3p + 1) x n array.

    ``Xt`` is X transposed. This is the kernel pass's only n^2 work and the
    only reader of ``KERNEL_BLOCK_BYTES``. K is symmetric, so it is cut into
    square blocks of side m = min(ceil(n / 2), floor(sqrt(``KERNEL_BLOCK_BYTES``
    / 8))), at least one, and only the blocks (I, J) with I <= J are formed,
    each once, in one reused buffer of at most max(``KERNEL_BLOCK_BYTES``, 8)
    bytes. A block takes the exponent -(a_i - a_k)^2 / 2 = a_i a_k - a_i^2 /
    2 - a_k^2 / 2 as one rank-3 product and ``exp`` in place, with the
    diagonal zeroed on diagonal blocks. An off-diagonal block is then applied
    from both sides: P_J K_IJ^T adds to columns I and P_I K_IJ to columns J,
    where P is the operand [X, a X, a^2 X, a^3] transposed, (3p + 1) x n. So a
    pair of points in different blocks takes one exponent and one ``exp``,
    and only the diagonal blocks form both K_ik and K_ki: at n = 300 that is
    three quarters of the full matrix's work, at large n about half. The
    buffer and the operand are freed on return, so only the result outlives
    the call.

    The result comes back in the layout ``_kernel_score`` reads, one row of
    length n per moment. Its timings against the pass it replaced are
    BENCH_30.json's product_micro_us.
    """
    p, n = Xt.shape
    # The exponent's factors: rows [a_i, -a_i^2 / 2, 1] times columns [a_k, 1, -a_k^2 / 2].
    lhs = np.empty((n, 3))
    lhs[:, 0] = a
    np.multiply(-0.5 * a, a, out=lhs[:, 1])
    lhs[:, 2] = 1.0
    rhs = lhs.T[[0, 2, 1]]
    # The operand's rows are x_j, a x_j and a^2 x_j for each column j of X,
    # then a^3, so that each multiplication runs along n in contiguous memory.
    P = np.empty((3 * p + 1, n))
    P[:p] = Xt
    np.multiply(a, Xt, out=P[p : 2 * p])
    np.multiply(a, P[p : 2 * p], out=P[2 * p : 3 * p])
    np.multiply(a * a, a, out=P[3 * p])
    B = np.empty_like(P)
    m = max(1, min((n + 1) // 2, math.isqrt(KERNEL_BLOCK_BYTES // 8)))
    # Each block of indices with its columns of the operand and the result
    # and its rows and columns of the exponent's factors.
    blocks = [(P[:, lo : lo + m], B[:, lo : lo + m], lhs[lo : lo + m], rhs[:, lo : lo + m]) for lo in range(0, n, m)]
    K_buf = np.empty(m * m)
    for b, (P_I, B_I, lhs_I, _) in enumerate(blocks):
        for c, (P_J, B_J, _, rhs_J) in enumerate(blocks[b:], b):
            # A contiguous block at the buffer's start, whether ragged or not.
            width = P_J.shape[1]
            flat = K_buf[: P_I.shape[1] * width]
            K = flat.reshape(-1, width)
            np.matmul(lhs_I, rhs_J, out=K)
            np.exp(flat, out=flat)
            if c == b:
                flat[:: width + 1] = 0.0  # entries (i, i): leave one out
            # Block row 0 is the first to reach each column block.
            if b == 0:
                np.matmul(P_I, K, out=B_J)
            else:
                B_J += P_I @ K
            if c != b:
                B_I += P_J @ K.T
    return B


def _kernel_score(
    e: np.ndarray,
    dev: np.ndarray,
    h: float,
    Xt: np.ndarray,
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
    ``dev`` is e minus its mean and ``Xt`` is X transposed, p x n, as the
    caller already holds them. ``X[:, 0]`` must be the intercept column, so
    that the moments over X's columns hold the S_j in their first row. Both
    derivatives are n x p, returned as transposed views of the p x n arrays
    the assembly forms: the callers pass them to ``matmul``, which takes
    either memory order without a copy.

    All n^2 work, and all of the pass's memory beyond O(n p), is
    ``_kernel_product``'s: with a = (e - ebar) / h it gives
    B_j = sum_k a_k^j K x_k and B3 = sum_k a_k^3 K, and u_ik = a_i - a_k
    expands the moments M_j = sum_k u^j K x_k in O(n p):
    M0 = B0, M1 = a B0 - B1, M2 = a^2 B0 - 2 a B1 + B2 and
    S3 = a^3 S0 - 3 a^2 B1_0 + 3 a B2_0 - B3, with _0 the intercept column.
    The expansion loses about |a_i|^j units in the last place of M_j, hence
    the centring at the mean: by Chebyshev's inequality at most a share f of
    the residuals lies beyond sd / sqrt(f) of it, so |a| is small where they
    are dense, and a far outlier moves the centre by only its distance over
    n. The rest is O(n log n) assembly with no loop. It holds its arrays
    transposed, one row of length n per column of X, as the product returns
    them, so that each elementwise step runs along n rather than across the p
    columns. The nearest dense point of a clamped one is found by a sorted
    search over the dense residuals, and only the clamped columns are
    filled. When every point is dense nothing is sorted, and when none is
    clipped the clip fix-ups are skipped.
    """
    p, n = Xt.shape
    a = dev / h
    B = _kernel_product(a, Xt)
    B0, B1, B2, B3 = B[:p], B[p : 2 * p], B[2 * p : 3 * p], B[3 * p]
    M1 = a * B0
    M2 = a * (M1 - 2.0 * B1) + B2
    M1 -= B1
    S0, S1, S2 = B0[0], M1[0], M2[0]
    S3 = a * (a * (a * S0 - 3.0 * B1[0]) + 3.0 * B2[0]) - B3

    floor = DENSITY_FLOOR_REL * float(S0.max(initial=0.0))
    # A NaN floor fails this test too; a positive one is always cleared by
    # the largest S0, so some point is dense.
    if not floor > 0.0:
        raise EstimationError("degenerate density estimate")
    ok = S0 >= floor
    raw = np.zeros(n)
    np.divide(-S1 / h, S0, out=raw, where=ok)

    # score = -q / h with q = S1 / S0. With C = M0 - M2 + q M1 the derivatives
    # collapse to h (dS1 - q dS0) = -x C_0 + C - (S1 - S3 + q S2) dh, and
    # the frozen score keeps only the -x C_0 term.
    inv = np.zeros(n)
    np.divide(1.0, S0, out=inv, where=ok)
    q = S1 * inv
    w = inv / (h * h)
    C = B0 - M2 + q * M1
    ds_frozen = Xt * (C[0] * w)
    ds_newton = ds_frozen - C * w
    ds_newton += dh[:, None] * ((S1 - S3 + q * S2) * w - raw / h)
    # A point below the floor copies the score and derivatives of the nearest
    # dense point, the one argmin over |e_bad - e_good| picks: the nearer of
    # the runs of equal values at or above and below it, and of those the
    # lowest index. Sorting the dense points by value, ties by index, puts
    # each run's lowest index first; a point beyond either end of the order
    # finds the end's run on both sides. (Where distinct dense values on one
    # side lie at distances that round to the same double, argmin takes the
    # lowest index among them and this search the nearest value.) The
    # sources are dense, so no column is read after it is written.
    if not ok.all():
        bad = np.flatnonzero(~ok)
        good = np.flatnonzero(ok)
        order = good[np.argsort(e[good], kind="stable")]
        v, eb = e[order], e[bad]
        at = np.searchsorted(v, eb)
        above = np.minimum(at, v.size - 1)
        below = np.searchsorted(v, v[np.maximum(at - 1, 0)])
        d_above, d_below = np.abs(eb - v[above]), np.abs(eb - v[below])
        above, below = order[above], order[below]
        src = np.where((d_below < d_above) | ((d_below == d_above) & (below < above)), below, above)
        raw[bad] = raw[src]
        ds_newton[:, bad] = ds_newton[:, src]
        ds_frozen[:, bad] = ds_frozen[:, src]
    clip = SCORE_CLIP_OVER_H / h
    score = np.minimum(np.maximum(raw, -clip), clip)
    clipped = np.abs(raw) > clip
    if clipped.any():
        ds_newton[:, clipped] = -np.outer(dh, score[clipped]) / h
        ds_frozen[:, clipped] = 0.0
    return score, ds_newton.T, ds_frozen.T


def silverman_bandwidth(centered: np.ndarray) -> float:
    """Silverman's bandwidth 1.06 sd n^(-1/5) from the residuals' deviations from their mean.

    The sum of squares is the one ``np.std`` forms, so the bandwidth equals
    ``1.06 * np.std(e, ddof=1) * n ** -0.2`` bit for bit when ``centered`` is
    ``e - e.mean()``.
    """
    n = centered.size
    sd = math.sqrt(float(np.add.reduce(centered * centered)) / (n - 1))
    if sd == 0.0:
        raise EstimationError("zero-variance residuals: kernel bandwidth is 0")
    return 1.06 * sd * n ** (-0.2)


def semiparam_psi(
    design: DesignMatrix,
    response: np.ndarray,
    theta: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Mean of the adaptive-score estimating equations at one parameter vector
    theta = (beta, sigma2), with its Jacobian for Newton: ``(F, J,
    (residuals, centred_score, ds_frozen))``, the triple ``newton_root``
    takes.

    The score is re-estimated from the current residuals on every call, so the
    system stays fully implicit in (beta, sigma2): intercept row e_i, slope
    rows (x_ij - xbar_j) times the centered score, variance row e_i^2 - sigma2.
    Each observation's own kernel is left out of its score evaluation; keeping
    it shrinks the in-sample scores and steepens their derivative, which biases
    the downstream sandwich. The bandwidth is Silverman's, 1.06 sd n^(-1/5),
    taken from the centred residuals that ``dh`` needs as well.

    F, of length p + 1, is those rows' mean formed as moments, and no row is
    formed: the residual mean (which the centring computes anyway), the
    centred regressors times the centred score over n, and e'e / n - sigma2.
    It equals the mean of ``estimating_rows`` of the residuals and centred
    score up to rounding.

    ``J`` differentiates the re-estimated score, bandwidth included
    (dh/dbeta = -h X'(e - ebar) / sum((e - ebar)^2)); Newton solves with it.
    ``ds_frozen``, n x p, is d score / d beta with the score function (data
    points, bandwidth, centering constant) frozen at this point, so only the
    evaluation points move. F, J, ``ds_frozen`` and the centred score all
    come from one kernel pass; ``A`` is read only at an accepted root, so
    ``frozen_score_jacobian`` forms it there, once, from J and ``ds_frozen``.
    """
    beta, sigma2 = theta[:-1], theta[-1]
    if sigma2 <= 0.0:
        raise EstimationError("sigma2 must be positive")
    X = design.values
    e = response - X @ beta
    n, p = X.shape
    if n < 10:
        raise EstimationError(f"need at least 10 residuals for score estimation (got {n})")
    if not np.isfinite(e).all():
        raise EstimationError("residuals contain non-finite values")
    # np.add.reduce(x) / n is what x.mean() computes, without its dispatch.
    ebar = np.add.reduce(e) / n
    dev = e - ebar
    h = silverman_bandwidth(dev)
    dh = -h * (dev @ X) / (dev @ dev)
    s, ds_newton, ds_frozen = _kernel_score(e, dev, h, design.transposed, dh)

    # Slope rows pair the centered score with the centered regressor. The
    # centering changes nothing about the solved equations (both centerings
    # expand to mean(x_j shat) - xbar_j * mean(shat) = 0), but it makes the
    # per-observation rows a proper estimating function for the sandwich: the
    # adaptive score is invariant to intercept shifts, so the slope rows must
    # carry no intercept coupling and their outer products must scale with the
    # centered regressor moments, or the covariance is inconsistent. For the
    # same reason the score's centering constant drops out of both Jacobians.
    centred_score = s - np.add.reduce(s) / n
    F = np.concatenate(([ebar], design.centered_regressors.T @ centred_score / n, [(e @ e) / n - sigma2]))
    J = np.zeros((p + 1, p + 1))
    J[0, :p] = -design.column_means
    J[p, :p] = -2.0 * (e @ X) / n
    J[p, p] = -1.0
    J[1:p, :p] = design.centered_regressors.T @ ds_newton / n
    return F, J, (e, centred_score, ds_frozen)


def frozen_score_jacobian(design: DesignMatrix, J: np.ndarray, ds_frozen: np.ndarray) -> np.ndarray:
    """The sandwich's A from one ``semiparam_psi`` evaluation's J and ``ds_frozen``.

    A is J with its slope rows differentiated through the frozen score, so
    only the evaluation points move. Differentiating the frozen score, not the
    re-estimated one, is what makes the sandwich A^-1 B A^-T consistent for
    the estimator's variance at a root: the adaptive score estimate is
    first-order ignorable, while re-estimation inside A cancels part of the
    derivative and inflates the variance roughly twofold.
    """
    n, p = design.values.shape
    A = J.copy()
    A[1:p, :p] = design.centered_regressors.T @ ds_frozen / n
    return A


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
    and extra of the accepted trial point serve the next step. A point where
    F raises :class:`EstimationError` counts as one where its value is not
    finite, so the line search halves past it. A singular Jacobian or
    non-finite values end the run as a failure; when no finite value is left
    to take, the reason is the exception's message of the last point tried,
    or "non-finite function value" if F returned one, with " at start" if
    that point is ``x0``. The result's ``jacobian`` and ``extra`` are always
    those of the evaluation at its ``root``.
    """

    def evaluate(x: np.ndarray) -> tuple[Any, Any, Any, float, str]:
        """F at x, its sup-norm (NaN or inf exactly when some value is), and why that norm is not finite if it is not."""
        try:
            fx, J, extra = F(x)
        except EstimationError as exc:
            return None, None, None, math.inf, str(exc)
        return fx, J, extra, float(np.abs(fx).max()), "non-finite function value"

    x = np.asarray(x0, dtype=float).copy()
    fx, J, extra, norm, why = evaluate(x)
    if not math.isfinite(norm):
        return NewtonResult(x, J, extra, 0, math.inf, f"{why} at start")
    if norm < NEWTON_RESIDUAL_TOL:
        return NewtonResult(x, J, extra, 0, norm)

    for iteration in range(1, MAX_NEWTON_ITERATIONS + 1):
        if not np.isfinite(J).all():
            return NewtonResult(x, J, extra, iteration, norm, "non-finite jacobian")
        try:
            dx = np.linalg.solve(J, -fx)
        except np.linalg.LinAlgError:
            return NewtonResult(x, J, extra, iteration, norm, "singular jacobian")
        if not np.isfinite(dx).all():
            return NewtonResult(x, J, extra, iteration, norm, "singular jacobian")

        # Step-halving line search on ||F||_inf: the full step (1.0 * dx is
        # dx exactly), then halvings; if none finds a decrease, the smallest
        # step is taken and the step-norm criterion or the iteration cap ends
        # the run.
        for k in range(MAX_STEP_HALVINGS + 1):
            x_new = x + 0.5**k * dx
            f_new, J_new, extra_new, new_norm, why = evaluate(x_new)
            if new_norm < norm:  # a NaN or inf norm fails this too
                break
        if not math.isfinite(new_norm):
            return NewtonResult(x, J, extra, iteration, norm, why)

        step_norm = float(np.linalg.norm(0.5**k * dx))
        x, fx, J, extra, norm = x_new, f_new, J_new, extra_new, new_norm
        if norm < NEWTON_RESIDUAL_TOL or (step_norm < NEWTON_STEP_TOL and norm <= ACCEPT_PSI_MEAN_TOL):
            return NewtonResult(x, J, extra, iteration, norm)
        if step_norm < NEWTON_STEP_TOL:
            return NewtonResult(x, J, extra, iteration, norm, f"stalled with residual norm {norm:.3g}")

    return NewtonResult(x, J, extra, MAX_NEWTON_ITERATIONS, norm, "maximum iterations reached")


def screen_root(
    theta: np.ndarray,
    rcond: float,
    ols: RegressionFit,
) -> str | None:
    """The first plausibility rule a converged root breaks, or None if it breaks none.

    ``theta`` must be a root at which ``semiparam_psi`` evaluated to a
    finite F: Newton holds only such points, and F is finite only when beta
    is finite and 0 < sigma2 < inf. So no rule here checks finiteness or
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
    Five starts are tried in a fixed order: the least-squares theta itself,
    then, built only if that start fails, b + d, b - d, b + s d and b - s d,
    with the least-squares coefficients b, per-coefficient steps
    d_j = max(0.05, 0.1 * max(1, |b_j|)), the alternating signs
    s = (1, -1, 1, -1, ...) and the least-squares variance. A start's verdict
    is its Newton run's failure reason, else the first screen its root
    breaks; the first start with neither is returned with its residuals,
    centred score and sandwich ``A``, and if none is, a :class:`FitFailure`
    records the reasons, one per start. Needs n >= p + 10 so the residual
    score estimate has something to work with. Newton runs on ``semiparam_psi`` itself; the root's Jacobian
    and the rest of its evaluation come back with it, and ``A`` is formed
    from them once per converged root.
    """
    if ols.method != "ols":
        raise EstimationError(f"ols must be a least-squares fit, not a {ols.method} fit")
    design, y = ols.design, ols.response
    n, p = design.values.shape
    if n < p + 10:
        raise EstimationError(f"need n >= p + 10 for score estimation (n={n}, p={p})")

    def starts() -> Iterator[np.ndarray]:
        yield ols.theta
        b, sigma2 = ols.theta[:-1], ols.theta[-1]
        d = np.maximum(0.05, 0.1 * np.maximum(1.0, np.abs(b)))
        s = np.where(np.arange(b.size) % 2 == 0, 1.0, -1.0)
        for step in (d, -d, s * d, -s * d):
            yield np.append(b + step, sigma2)

    reasons: list[str] = []
    for idx, start in enumerate(starts()):
        result = newton_root(lambda v: semiparam_psi(design, y, v), start)
        reason = result.reason
        if reason is None:
            residuals, centred_score, ds_frozen = result.extra
            A = frozen_score_jacobian(design, result.jacobian, ds_frozen)
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
            return RegressionFit(result.root, "semiparametric", residuals, centred_score, A, diag, design, y)
        reasons.append(f"start {idx}: {reason}")
    return FitFailure(tuple(reasons))
