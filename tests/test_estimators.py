import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from semimediation import estimators
from semimediation.data import DesignMatrix, ModelSpec, build_design, dataset_from_arrays
from semimediation.estimators import (
    EstimationError,
    FitFailure,
    RegressionFit,
    estimating_rows,
    fit_ols,
    fit_semiparametric,
    frozen_score_jacobian,
    newton_root,
    screen_root,
    semiparam_psi,
)
from semimediation.inference import mediate, stack_fits
from semimediation.simulation import ASYMMETRIC_MIXTURE, ERROR_LAWS, ErrorSpec, sample_error


# Rows per block in the block-edge cases of fit_ols.
QR_BLOCK_ROWS = 10


def simple_design(x, y):
    ds = dataset_from_arrays(T=np.asarray(x, float), Y=np.asarray(y, float))
    return build_design(ds, ModelSpec(response="Y", treatment="T")), ds.column("Y")


class TestFitOls:
    def test_exact_linear_fit(self):
        from semimediation.data import DesignMatrix

        x = np.array([0.0, 1.0, 2.0])
        y = np.array([2.0, 5.0, 8.0])
        design = DesignMatrix(np.column_stack([np.ones(3), x]), ("intercept", "covariate"))
        fit = fit_ols(design, y)
        assert np.allclose(fit.theta[:-1], [2.0, 3.0], atol=1e-12)
        assert fit.theta[-1] == pytest.approx(0.0, abs=1e-20)

    def test_intercept_only_mean_and_variance(self):
        y = np.array([1.0, 2.0, 3.0])
        from semimediation.data import DesignMatrix

        design = DesignMatrix(np.ones((3, 1)), ("intercept",))
        fit = fit_ols(design, y)
        assert fit.theta[0] == pytest.approx(2.0)
        assert fit.theta[-1] == pytest.approx(1.0)  # divisor n - p = 2

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(5)
        n = 50
        t = (rng.random(n) < 0.5).astype(float)
        x1 = rng.standard_normal(n)
        y = 1.0 + 2.0 * t - 0.5 * x1 + rng.standard_normal(n)
        ds = dataset_from_arrays(T=t, X1=x1, Y=y)
        design = build_design(ds, ModelSpec(response="Y", treatment="T", covariates=("X1",)))
        fit = fit_ols(design, y)
        X = design.values
        oracle = np.linalg.solve(X.T @ X, X.T @ y)
        assert np.max(np.abs(fit.theta[:-1] - oracle)) < 1e-10

    def test_psi_structure(self):
        rng = np.random.default_rng(6)
        t = (rng.random(40) < 0.5).astype(float)
        y = t + rng.standard_normal(40)
        design, resp = simple_design(t, y)
        fit = fit_ols(design, resp)
        e = resp - design.values @ fit.theta[:-1]
        psi = fit.rows()
        assert np.allclose(psi[:, 0], e)
        assert np.allclose(psi[:, 1], t * e)
        assert np.allclose(psi[:, 2], e * e - fit.theta[-1])
        # coefficient moment rows average to zero at the solution
        assert np.max(np.abs(psi[:, :2].mean(axis=0))) < 1e-10

    def test_rows_are_the_moment_rows_bit_for_bit(self):
        # The rows formed on demand from the kept residuals are the moment
        # rows written out from y - X beta, and a block of them has the same
        # bits as the same rows of the whole.
        design, y = law_design(ASYMMETRIC_MIXTURE, 2)
        fit = fit_ols(design, y)
        X = design.values
        e = y - X @ fit.theta[:-1]
        assert fit.residuals.tobytes() == e.tobytes()
        rows = np.column_stack([X * e[:, None], e * e - fit.theta[-1]])
        assert fit.rows().tobytes() == rows.tobytes()
        assert fit.rows(slice(7, 20)).tobytes() == rows[7:20].tobytes()

    @pytest.mark.parametrize("n", [QR_BLOCK_ROWS - 1, QR_BLOCK_ROWS, QR_BLOCK_ROWS + 1, 3 * QR_BLOCK_ROWS + 1])
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 6),
        log_scale=st.floats(-3.0, 3.0),
        mix=st.floats(0.0, 0.999),
        noise=st.floats(1e-3, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_blocked_qr_agrees_with_lstsq(self, n, seed, p, log_scale, mix, noise):
        # Blocks of QR_BLOCK_ROWS rows: the last one is a row short, full, a
        # single row, or a single row after three full blocks.
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, p))
        slopes = ((1.0 - mix) * z[:, 1:] + mix * z[:, :1]) * 10.0 ** (log_scale * np.linspace(-1.0, 1.0, p - 1))
        X = np.column_stack([np.ones(n), slopes])
        y = X @ rng.standard_normal(p) + noise * rng.standard_normal(n)
        oracle = np.linalg.lstsq(X, y, rcond=None)[0]
        e = y - X @ oracle
        A = np.zeros((p + 1, p + 1))
        A[:p, :p] = -(X.T @ X) / n
        A[p, :p] = -2.0 * (e @ X) / n
        A[p, p] = -1.0
        assume(estimators.reciprocal_condition(A) >= 1e-8)
        design = DesignMatrix(X, ("intercept",) + ("covariate",) * (p - 1))
        with mock.patch.object(estimators, "ROW_BLOCK_BYTES", 8 * (p + 1) * QR_BLOCK_ROWS):
            beta = fit_ols(design, y).theta[:-1]
        assert np.max(np.abs(beta - oracle)) <= 1e-9 * np.max(np.abs(oracle))

    def test_underdetermined_rejected(self):
        from semimediation.data import DesignMatrix

        design = DesignMatrix(np.ones((1, 1)), ("intercept",))
        with pytest.raises(EstimationError, match="n > p"):
            fit_ols(design, np.array([1.0]))

    @pytest.mark.parametrize("block_rows", [None, 8], ids=["one-block", "blocks-of-8"])
    @pytest.mark.parametrize(
        "covariates",
        [("X1", "DUP"), ("ZERO",), ("TWO_M",)],
        ids=["duplicated-column", "all-zero-covariate", "twice-the-mediator"],
    )
    def test_rank_deficiency_rejected(self, monkeypatch, covariates, block_rows):
        # An exactly singular R ends in the rcond error, not in numpy's LinAlgError.
        rng = np.random.default_rng(3)
        n = 40
        t = (rng.random(n) < 0.5).astype(float)
        m = rng.standard_normal(n)
        x1 = rng.standard_normal(n)
        ds = dataset_from_arrays(T=t, M=m, Y=rng.standard_normal(n), X1=x1, DUP=x1.copy(), ZERO=np.zeros(n), TWO_M=2.0 * m)
        design = build_design(ds, ModelSpec(response="Y", treatment="T", mediator="M", covariates=covariates))
        if block_rows:
            monkeypatch.setattr(estimators, "ROW_BLOCK_BYTES", 8 * (design.p + 1) * block_rows)
        with pytest.raises(EstimationError, match=r"rank-deficient or ill-conditioned \(rcond="):
            fit_ols(design, ds.column("Y"))

    def test_sandwich_is_hc0_for_coefficients(self):
        rng = np.random.default_rng(7)
        n = 120
        t = (rng.random(n) < 0.5).astype(float)
        y = 0.5 + t + rng.standard_normal(n) * (1 + t)
        design, resp = simple_design(t, y)
        fit = fit_ols(design, resp)
        X = design.values
        e = resp - X @ fit.theta[:-1]
        bread = np.linalg.inv(X.T @ X)
        hc0 = bread @ (X.T * (e * e)) @ X @ bread
        assert np.max(np.abs(fit_sandwich(fit)[:2, :2] - hc0)) < 1e-8


def fit_sandwich(fit):
    """A^-1 B A^-T / n from one fit's own rows and A."""
    A_inv = np.linalg.inv(fit.jacobian_A)
    psi = fit.rows()
    B = psi.T @ psi / fit.n
    return A_inv @ B @ A_inv.T / fit.n


def kernel_pass(e, h, X, dh):
    """``_kernel_score`` on residuals e and an n x p design X, centring and transposing as ``semiparam_psi`` does."""
    return estimators._kernel_score(e, e - e.mean(), h, np.ascontiguousarray(X.T), dh)


def evaluation_rows(design, y, point):
    """The estimating rows of ``semiparam_psi``'s evaluation at one point: ``estimating_rows`` of its residuals and centred score."""
    _, _, (e, centred_score, _) = semiparam_psi(design, y, point)
    return estimating_rows(design, e, point[-1], centred_score)


def psi_rows_J_A(design, y, point):
    """The rows and J of ``semiparam_psi``'s evaluation at one point, with the sandwich A formed from the same evaluation."""
    _, J, (e, centred_score, ds_frozen) = semiparam_psi(design, y, point)
    return estimating_rows(design, e, point[-1], centred_score), J, frozen_score_jacobian(design, J, ds_frozen)


def kernel_score(e):
    """Leave-one-out score at the residuals themselves, and the Silverman bandwidth it used."""
    h = estimators.silverman_bandwidth(e - e.mean())
    return kernel_pass(e, h, np.ones((e.size, 1)), np.zeros(1))[0], h


class TestKernelScore:
    def test_symmetric_sample_scores_sum_to_zero(self):
        a = np.random.default_rng(0).standard_normal(60)
        s, _ = kernel_score(np.concatenate([a, -a]))
        assert np.allclose(s[:60], -s[60:], rtol=0.0, atol=1e-12)
        assert abs(s.sum()) < 1e-10

    @pytest.mark.parametrize("law", ["normal", "laplace"])
    def test_stein_identity(self, law):
        # Integration by parts gives E[(f'/f)(e) e] = -1 for any density with
        # finite variance: for the Gaussian, whose score is -e, it is -E[e^2].
        rng = np.random.default_rng(0)
        e = rng.standard_normal(2000) if law == "normal" else rng.laplace(0.0, 1 / math.sqrt(2), 2000)
        s, _ = kernel_score(e)
        assert -1.1 <= np.mean(s * e) <= -0.85

    def test_far_outlier_clamped_finite_and_bounded(self):
        rng = np.random.default_rng(1)
        e = np.append(rng.standard_normal(200), 40.0)  # far below the density floor
        s, h = kernel_score(e)
        assert loo_kernel_branches(e, h)[0] == 1
        assert np.all(np.isfinite(s))
        assert np.all(np.abs(s) <= 10.0 / h)
        # the outlier copies the score of the nearest adequately dense point
        assert s[-1] in s[:-1]

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(10, 400),
        law=st.sampled_from(ERROR_LAWS),
        scale=st.floats(1e-4, 1e4),
        shift=st.floats(-1e6, 1e6),
    )
    @settings(max_examples=50, deadline=None)
    def test_pass_uses_silverman_bandwidth_of_the_sample_sd(self, seed, n, law, scale, shift):
        from semimediation.data import DesignMatrix

        # An intercept-only design at beta = 0 makes the residuals the response.
        e = shift + scale * sample_error(ErrorSpec(law), np.random.default_rng(seed), n)
        design = DesignMatrix(np.ones((n, 1)), ("intercept",))
        with mock.patch.object(estimators, "_kernel_score", wraps=estimators._kernel_score) as kernel_pass:
            semiparam_psi(design, e, np.array([0.0, 1.0]))
        assert kernel_pass.call_args.args[2] == 1.06 * np.std(e, ddof=1) * n**-0.2

    def test_zero_variance_is_error(self):
        design, resp = simple_design(np.array([0.0, 1.0] * 10), np.ones(20))
        with pytest.raises(EstimationError, match="zero-variance"):
            semiparam_psi(design, resp, np.array([1.0, 0.0, 1.0]))

    def test_too_few_residuals(self):
        from semimediation.data import DesignMatrix

        design = DesignMatrix(np.ones((5, 1)), ("intercept",))
        with pytest.raises(EstimationError, match="at least 10"):
            semiparam_psi(design, np.arange(5.0), np.array([0.0, 1.0]))


def direct_score_oracle(e, h):
    """Leave-one-out clamped, clipped kernel score from per-point loops."""
    n = e.size
    dens = np.empty(n)
    scores = np.empty(n)
    for i in range(n):
        num = den = 0.0
        for k in range(n):
            if k == i:
                continue
            u = (e[i] - e[k]) / h
            w = math.exp(-0.5 * u * u)
            den += w
            num += -u * w / h
        dens[i] = den
        scores[i] = num / den
    floor = 1e-3 * dens.max()
    for i in range(n):
        if dens[i] < floor:
            j = min((k for k in range(n) if dens[k] >= floor), key=lambda k: abs(e[i] - e[k]))
            scores[i] = scores[j]
    return np.clip(scores, -10 / h, 10 / h)


def direct_psi_oracle(design, y, point):
    """Adaptive-score rows at ``point`` from the direct score oracle."""
    X = design.values
    e = y - X @ point[:-1]
    sc = direct_score_oracle(e, 1.06 * np.std(e, ddof=1) * e.size ** (-0.2))
    sc = sc - sc.mean()
    oracle = np.empty((e.size, design.p + 1))
    oracle[:, 0] = e
    for j in range(1, design.p):
        oracle[:, j] = (X[:, j] - X[:, j].mean()) * sc
    oracle[:, design.p] = e * e - point[-1]
    return oracle


def block_bytes(side):
    """A ``KERNEL_BLOCK_BYTES`` value that makes the kernel pass use square blocks of ``side`` rows.

    The pass caps the side at ceil(n / 2), so a side of n or more gives its
    default two blocks per side.
    """
    return 8 * side * side


def direct_kernel_oracle(e, h, X, dh):
    """Score, ``ds_newton`` and ``ds_frozen`` of the kernel pass, point by point.

    Each point differentiates the sums S_j = sum_k u^j K of the point whose
    score it reads directly: u_ik moves by (x_k - x_i) / h - u_ik dh / h when
    the score is re-estimated and by -x_i / h when it is frozen, and
    d score = -(dS1 - (S1 / S0) dS0) / (h S0), plus S1 dh / (h^2 S0) for the
    moving bandwidth.
    """

    def kernel_row(i):
        u = (e[i] - e) / h
        K = np.exp(-0.5 * u * u)
        K[i] = 0.0
        return u, K

    S0 = np.array([kernel_row(i)[1].sum() for i in range(e.size)])
    good = np.flatnonzero(S0 >= 1e-3 * S0.max())
    score, ds_newton, ds_frozen = np.empty(e.size), np.empty_like(X), np.empty_like(X)
    for i in range(e.size):
        src = good[np.argmin(np.abs(e[good] - e[i]))]
        u, K = kernel_row(src)
        q = (u * K).sum() / S0[src]
        if abs(q) > 10.0:
            score[i] = np.clip(-q / h, -10.0 / h, 10.0 / h)
            ds_newton[i] = -score[i] * dh / h
            ds_frozen[i] = 0.0
            continue
        score[i] = -q / h
        for d, du in (
            (ds_newton, (X - X[src]) / h - np.outer(u, dh) / h),
            (ds_frozen, np.broadcast_to(-X[src] / h, X.shape)),
        ):
            dS0 = (-u * K) @ du
            dS1 = ((1.0 - u * u) * K) @ du
            d[i] = -(dS1 - q * dS0) / (h * S0[src])
        ds_newton[i] += q * dh / (h * h)
    return score, ds_newton, ds_frozen


HARD_RESIDUALS = ("gaussian", "outlier_50sd", "outlier_1e4sd", "clusters_30sd", "clusters_300sd", "shift_1e6")


def hard_residuals(kind, n, rng):
    """Standard normal residuals, with one of the departures that strain the kernel pass's rounding."""
    e = rng.standard_normal(n)
    if kind.startswith("outlier"):
        e[rng.integers(n)] = 50.0 if kind == "outlier_50sd" else 1e4
    elif kind.startswith("clusters"):
        e[: n // 2] += 30.0 if kind == "clusters_30sd" else 300.0
    elif kind == "shift_1e6":
        e += 1e6
    return e


class TestSemiparamPsi:
    def test_intercept_row_mean_zero_at_ols(self):
        rng = np.random.default_rng(3)
        t = (rng.random(60) < 0.5).astype(float)
        y = 0.3 + t + rng.standard_normal(60)
        design, resp = simple_design(t, y)
        ols = fit_ols(design, resp)
        psi = evaluation_rows(design, resp, ols.theta)
        assert abs(psi[:, 0].mean()) < 1e-10

    def test_matches_direct_oracle(self):
        t = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1], dtype=float)
        m = np.array([0.3, 1.1, -0.4, 0.9, 0.1, 1.4, -0.2, 0.7, 0.5, 1.0, -0.1, 0.8])
        y = np.array([0.2, 0.9, -0.6, 1.1, 0.3, 1.2, -0.3, 0.5, 0.6, 0.8, -0.2, 0.9])
        ds = dataset_from_arrays(T=t, M=m, Y=y)
        design = build_design(ds, ModelSpec(response="Y", treatment="T", mediator="M"))
        point = np.array([0.05, 0.3, 0.4, 0.2])
        oracle = direct_psi_oracle(design, y, point)
        # Blocks of one row, of 5 rows (a ragged last block) and of half the rows.
        for side in (1, 5, y.size):
            with mock.patch.object(estimators, "KERNEL_BLOCK_BYTES", block_bytes(side)):
                psi = evaluation_rows(design, y, point)
            assert np.max(np.abs(psi - oracle)) < 1e-8

    def test_score_values_centered(self):
        rng = np.random.default_rng(4)
        t = (rng.random(50) < 0.5).astype(float)
        y = t + rng.laplace(size=50)
        design, resp = simple_design(t, y)
        fit = fit_ols(design, resp)
        psi = evaluation_rows(design, resp, fit.theta)
        x_centered = t - t.mean()
        assert abs((psi[:, 1] / x_centered).mean()) < 1e-12

    def test_nonpositive_sigma2_rejected(self):
        design, resp = simple_design(np.array([0.0, 1] * 10), np.arange(20.0))
        with pytest.raises(EstimationError, match="sigma2"):
            semiparam_psi(design, resp, np.zeros(3))

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(20, 200),
        law=st.sampled_from(ERROR_LAWS),
        interaction=st.booleans(),
        covariates=st.sampled_from([0, 2]),
        shift=st.floats(-0.3, 0.3),
        scale=st.floats(0.5, 2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_F_is_the_mean_of_the_evaluations_rows(self, seed, n, law, interaction, covariates, shift, scale):
        # F is formed as moments, never from rows; the rows of the same
        # evaluation, summed, must give it back up to rounding.
        rng = np.random.default_rng(seed)
        cols = {f"X{k}": rng.standard_normal(n) for k in range(covariates)}
        t = (rng.random(n) < 0.5).astype(float)
        m = 0.2 + 0.4 * t + sample_error(ErrorSpec(law), rng, n)
        y = 0.5 * t - 0.8 * m + sum(cols.values(), np.zeros(n)) + sample_error(ErrorSpec(law), rng, n)
        ds = dataset_from_arrays(T=t, M=m, Y=y, **cols)
        spec = ModelSpec(response="Y", treatment="T", mediator="M", covariates=tuple(cols), interaction=interaction)
        design = build_design(ds, spec)
        ols = fit_ols(design, y)
        point = np.append(ols.theta[:-1] + shift, scale * ols.theta[-1])
        F, _, (e, centred_score, _) = semiparam_psi(design, y, point)
        rows = estimating_rows(design, e, point[-1], centred_score)
        assert F.shape == (design.p + 1,)
        assert np.all(np.abs(F - np.add.reduce(rows, 0) / n) <= 1e-13 * np.abs(rows).mean(axis=0))


class TestNewtonRoot:
    def test_affine_in_one_iteration(self):
        res = newton_root(lambda x: (np.array([x[0] - 3.0]), np.array([[1.0]]), None), np.array([0.0]))
        assert res.reason is None
        assert res.iterations == 1
        assert res.root[0] == pytest.approx(3.0, abs=1e-8)

    def test_two_dimensional_closed_form_root(self):
        def F(x):
            return np.array([x[0] ** 2 - 4.0, x[1] - 1.0]), np.array([[2.0 * x[0], 0.0], [0.0, 1.0]]), None

        res = newton_root(F, np.array([1.0, 0.0]))
        assert res.reason is None
        assert np.allclose(res.root, [2.0, 1.0], atol=1e-7)

    def test_constant_function_fails(self):
        res = newton_root(lambda x: (np.array([1.0]), np.array([[0.0]]), None), np.array([0.0]))
        assert res.reason == "singular jacobian"

    def test_non_finite_start_fails(self):
        res = newton_root(lambda x: (np.array([math.nan]), np.array([[1.0]]), None), np.array([0.0]))
        assert res.reason == "non-finite function value at start"

    def test_non_finite_jacobian_fails(self):
        res = newton_root(lambda x: (np.array([x[0] - 1.0]), np.array([[math.nan]]), None), np.array([0.0]))
        assert res.reason == "non-finite jacobian"

    def test_iteration_cap(self, monkeypatch):
        # double root at 0: Newton only halves x each step
        monkeypatch.setattr(estimators, "MAX_NEWTON_ITERATIONS", 5)
        res = newton_root(lambda x: (np.array([x[0] ** 2]), np.array([[2.0 * x[0]]]), None), np.array([1.0]))
        assert res.reason == "maximum iterations reached"
        assert res.iterations == 5
        assert res.root[0] == pytest.approx(1 / 32)

    def test_tiny_step_with_large_residual_stalls(self, monkeypatch):
        # double root at 0: one step from 1 halves x and leaves F = 0.25,
        # and a step tolerance of 1 lets the step rule end the run there.
        monkeypatch.setattr(estimators, "NEWTON_STEP_TOL", 1.0)
        res = newton_root(lambda x: (np.array([x[0] ** 2]), np.array([[2.0 * x[0]]]), None), np.array([1.0]))
        assert res.reason == "stalled with residual norm 0.25"
        assert (res.iterations, res.residual_norm) == (1, 0.25)

    def test_tiny_step_with_small_residual_converges(self, monkeypatch):
        # One step from 1e-3 leaves F = 2.5e-7: above the residual rule's
        # 1e-8 but within ACCEPT_PSI_MEAN_TOL.
        monkeypatch.setattr(estimators, "NEWTON_STEP_TOL", 1e-3)
        res = newton_root(lambda x: (np.array([x[0] ** 2]), np.array([[2.0 * x[0]]]), None), np.array([1e-3]))
        assert res.reason is None
        assert res.iterations == 1
        assert estimators.NEWTON_RESIDUAL_TOL < res.residual_norm <= estimators.ACCEPT_PSI_MEAN_TOL

    def test_accepted_trial_jacobian_is_reused(self):
        # One evaluation per trial point: the Jacobian of the accepted trial
        # point drives the next step, nothing is re-evaluated for it.
        points = []

        def F(x):
            points.append(float(x[0]))
            return np.array([x[0] ** 3 - 8.0]), np.array([[3.0 * x[0] ** 2]]), None

        res = newton_root(F, np.array([3.0]))
        assert res.reason is None
        assert res.root[0] == pytest.approx(2.0, abs=1e-8)
        assert len(points) == len(set(points))

    def test_raise_at_start_names_the_message(self):
        def F(x):
            raise EstimationError("boom")

        res = newton_root(F, np.array([0.0]))
        assert res.reason == "boom at start"
        assert (res.iterations, res.residual_norm, res.jacobian, res.extra) == (0, math.inf, None, None)

    def test_raise_on_the_full_step_is_halved_past(self):
        # The full step from 0 lands on 4, where F raises; the half step
        # lands on the root 2.
        points = []

        def F(x):
            points.append(float(x[0]))
            if x[0] > 3.0:
                raise EstimationError("boom")
            return np.array([x[0] - 2.0]), np.array([[0.5]]), None

        res = newton_root(F, np.array([0.0]))
        assert res.reason is None
        assert res.root[0] == 2.0
        assert points == [0.0, 4.0, 2.0]

    def test_raise_at_every_trial_point_names_the_message(self):
        # Finite only at the start: the full step and all ten halvings raise,
        # so the run ends at its start with the last trial point's message.
        def F(x):
            if x[0] != 0.0:
                raise EstimationError(f"boom at {x[0]:g}")
            return np.array([x[0] - 1e4]), np.eye(1), None

        res = newton_root(F, np.array([0.0]))
        assert res.reason == f"boom at {1e4 / 1024:g}"
        assert (res.root[0], res.iterations, res.residual_norm) == (0.0, 1, 1e4)

    def test_other_exceptions_propagate(self):
        def F(x):
            raise TypeError("a programming error, not a numerical failure")

        with pytest.raises(TypeError):
            newton_root(F, np.array([0.0]))

    def test_jacobian_and_extra_come_from_the_root(self, monkeypatch):
        monkeypatch.setattr(estimators, "MAX_NEWTON_ITERATIONS", 5)

        def with_extra(f, J):
            return lambda x: (f(x), J(x), x.copy())

        converged = newton_root(with_extra(lambda x: x**3 - 8.0, lambda x: np.diag(3.0 * x**2)), np.array([3.0]))
        # double root at 0: the cap ends the run after accepted steps
        capped = newton_root(with_extra(lambda x: x**2, lambda x: np.diag(2.0 * x)), np.array([1.0]))
        # finite only for |x| < 1, root at 1e4: the full step and all ten
        # halvings land where it is non-finite, so the run ends at its start
        blown_up = newton_root(
            with_extra(lambda x: np.where(np.abs(x) < 1.0, x - 1e4, np.nan), lambda x: np.eye(1)), np.array([0.0])
        )
        assert converged.reason is None
        assert capped.reason == "maximum iterations reached"
        assert blown_up.reason == "non-finite function value"
        for res in (converged, capped, blown_up):
            assert np.array_equal(res.extra, res.root)
        assert np.array_equal(converged.jacobian, np.diag(3.0 * converged.root**2))
        assert np.array_equal(capped.jacobian, np.diag(2.0 * capped.root))
        assert np.array_equal(blown_up.jacobian, np.eye(1))

    @given(
        a=st.floats(-5.0, 5.0),
        v=st.floats(1e-3, 1e3),
        b0=st.floats(-5.0, 5.0),
        s0=st.floats(-2.0, 1e3),
    )
    @settings(deadline=None)
    def test_converged_root_has_finite_beta_and_positive_sigma2(self, a, v, b0, s0):
        # F is NaN where sigma2 <= 0, as the semiparametric rows are; its
        # log term sends full Newton steps from sigma2 > e v below zero. At a
        # subnormal sigma2 the log or 1 / sigma2 is infinite, quietly, and
        # Newton reports the non-finite value.
        def F(x):
            b, s2 = x
            if not s2 > 0.0:
                return np.full(2, np.nan), np.full((2, 2), np.nan), None
            with np.errstate(all="ignore"):
                value = np.array([b**3 + b - a, np.log(s2 / v) + 0.5 * b])
                return value, np.array([[3.0 * b * b + 1.0, 0.0], [0.5, 1.0 / s2]]), None

        res = newton_root(F, np.array([b0, s0]))
        if res.reason is None:
            assert np.all(np.isfinite(res.root))
            assert res.root[-1] > 0.0


def documented_starts(theta):
    """The five starts fit_semiparametric documents: b, b + d, b - d, b + s d and b - s d.

    d = max(0.05, 0.1 * max(1, |b|)) and the alternating signs s = (1, -1, 1, ...);
    sigma2 is the same in every start.
    """
    b, sigma2 = theta[:-1], theta[-1]
    d = np.maximum(0.05, 0.1 * np.maximum(1.0, np.abs(b)))
    s = np.array([(-1.0) ** j for j in range(b.size)])
    return [np.append(coef, sigma2) for coef in (b, b + d, b - d, b + s * d, b - s * d)]


class TestStarts:
    @given(
        beta=st.lists(st.one_of(st.just(0.0), st.floats(-1e3, 1e3)), min_size=1, max_size=5),
        sigma2=st.floats(1e-3, 1e3),
    )
    @example(beta=[0.2, 3.0], sigma2=1.0)
    @example(beta=[0.0, 0.0], sigma2=1.0)
    @example(beta=[-1.7, 0.4, 12.0], sigma2=2.5)
    @example(beta=[1.0, -2.0, 0.01], sigma2=1.0)
    @settings(deadline=None)
    def test_newton_receives_the_documented_starts_in_order(self, beta, sigma2):
        # Every start is forced to fail, so Newton receives all five.
        ols = _fake_ols(np.array(beta), sigma2)
        received = []

        def fail(F, x0):
            received.append(np.array(x0, dtype=float))
            return estimators.NewtonResult(received[-1], None, None, 1, 1.0, "forced")

        with mock.patch.object(estimators, "newton_root", fail):
            failure = fit_semiparametric(ols)
        assert failure.reasons == tuple(f"start {k}: forced" for k in range(5))
        assert [x0.tobytes() for x0 in received] == [row.tobytes() for row in documented_starts(ols.theta)]


def _fake_ols(beta, sigma2):
    p = beta.size
    n = 10 * p + 10  # fit_semiparametric needs n >= p + 10
    design = DesignMatrix(np.column_stack([np.ones(n)] + [np.linspace(0, 1, n)] * (p - 1)), ("intercept",) * p)
    from semimediation.estimators import FitDiagnostics

    return RegressionFit(
        np.append(beta, sigma2),
        "ols",
        np.zeros(n),
        None,
        -np.eye(p + 1),
        FitDiagnostics(None, 0, 0.0, 1.0),
        design,
        np.zeros(n),
    )


class TestScreenRoot:
    def setup_method(self):
        self.ols = _fake_ols(np.array([1.0, 2.0]), 1.0)

    def test_variance_ratio_rejected(self):
        point = np.array([1.0, 2.0, 26.0])
        assert screen_root(point, 1.0, self.ols) == "variance ratio"

    def test_ols_passes_its_own_screen(self):
        assert screen_root(self.ols.theta, 1.0, self.ols) is None

    def test_rcond_rejected(self):
        assert screen_root(self.ols.theta, 1e-11, self.ols) == "condition number"

    def test_deviation_rejected(self):
        point = np.array([1.0, 2.0 + 15 * 2.0 + 0.1, 1.0])
        assert screen_root(point, 1.0, self.ols) == "coefficient deviation"

    @given(
        sigma2=st.floats(0.01, 50.0),
        coef=st.floats(-120.0, 120.0),
        rcond=st.floats(1e-12, 1.0),
        loosen=st.floats(1.0, 3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_thresholds(self, sigma2, coef, rcond, loosen):
        point = np.array([coef, 2.0, sigma2])
        base = screen_root(point, rcond, self.ols)
        with (
            mock.patch.object(estimators, "RCOND_MIN", estimators.RCOND_MIN / loosen),
            mock.patch.object(estimators, "SIGMA2_MAX_RATIO", estimators.SIGMA2_MAX_RATIO * loosen),
            mock.patch.object(estimators, "COEF_OLS_DEV_MAX", estimators.COEF_OLS_DEV_MAX * loosen),
        ):
            loose = screen_root(point, rcond, self.ols)
        if base is None:
            assert loose is None


class TestFitSemiparametric:
    def test_gaussian_agrees_with_ols(self):
        rng = np.random.default_rng(10)
        n = 500
        t = (rng.random(n) < 0.5).astype(float)
        y = 0.5 + 1.5 * t + rng.standard_normal(n)
        ds = dataset_from_arrays(T=t, Y=y)
        design = build_design(ds, ModelSpec(response="Y", treatment="T"))
        ols = fit_ols(design, y)
        semi = fit_semiparametric(ols)
        assert isinstance(semi, RegressionFit)
        joint_se = np.sqrt(np.diag(fit_sandwich(ols))[:2] + np.diag(fit_sandwich(semi))[:2])
        assert np.all(np.abs(semi.theta[:-1] - ols.theta[:-1]) < 3 * joint_se)

    def test_adversarial_response_flags_failure_with_reasons(self):
        n = 12
        t = np.array([0.0, 1.0] * 6)
        y = 1e8 * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        ds = dataset_from_arrays(T=t, Y=y)
        design = build_design(ds, ModelSpec(response="Y", treatment="T"))
        res = fit_semiparametric(fit_ols(design, y))
        assert isinstance(res, FitFailure)
        assert len(res.reasons) == 5

    def test_mixture_semiparametric_se_beats_ols(self):
        rng = np.random.default_rng(77)
        n = 300
        t = (rng.random(n) < 0.5).astype(float)
        comp = rng.random(n) < 0.9
        e = np.where(comp, rng.normal(-0.3, 0.5, n), rng.normal(2.7, 0.5, n)) / math.sqrt(1.06)
        y = 0.2 + 0.4 * t + e
        ds = dataset_from_arrays(T=t, Y=y)
        design = build_design(ds, ModelSpec(response="Y", treatment="T"))
        ols = fit_ols(design, y)
        semi = fit_semiparametric(ols)
        assert isinstance(semi, RegressionFit)
        assert math.sqrt(fit_sandwich(semi)[1, 1]) < math.sqrt(fit_sandwich(ols)[1, 1])

    def test_accepted_root_zeroes_psi_means(self):
        rng = np.random.default_rng(11)
        n = 200
        t = (rng.random(n) < 0.5).astype(float)
        y = 0.1 + 0.7 * t + rng.laplace(size=n)
        ds = dataset_from_arrays(T=t, Y=y)
        design = build_design(ds, ModelSpec(response="Y", treatment="T"))
        fit = fit_semiparametric(fit_ols(design, y))
        assert isinstance(fit, RegressionFit)
        assert np.max(np.abs(fit.rows().mean(axis=0))) <= 1e-6
        assert fit.diagnostics.rcond > 1e-10
        assert fit.diagnostics.start_index_used == 0

    def test_stalled_starts_are_named_in_the_failure(self, monkeypatch):
        # A step tolerance of 1e3 ends every run after its first step, short
        # of a root, so each start fails with its residual norm.
        rng = np.random.default_rng(15)
        t = (rng.random(60) < 0.5).astype(float)
        design, resp = simple_design(t, t + rng.laplace(size=60))
        ols = fit_ols(design, resp)
        runs = []
        real_newton_root = estimators.newton_root

        def recording_newton_root(F, x0):
            runs.append(real_newton_root(F, x0))
            return runs[-1]

        monkeypatch.setattr(estimators, "NEWTON_STEP_TOL", 1e3)
        monkeypatch.setattr(estimators, "newton_root", recording_newton_root)
        res = fit_semiparametric(ols)
        assert isinstance(res, FitFailure)
        assert [r.iterations for r in runs] == [1] * 5
        assert res.reasons == tuple(f"start {i}: stalled with residual norm {r.residual_norm:.3g}" for i, r in enumerate(runs))

    def test_determinism(self):
        rng = np.random.default_rng(12)
        n = 150
        t = (rng.random(n) < 0.5).astype(float)
        y = t + rng.laplace(size=n)
        ds = dataset_from_arrays(T=t, Y=y)
        design = build_design(ds, ModelSpec(response="Y", treatment="T"))
        a = fit_semiparametric(fit_ols(design, y))
        b = fit_semiparametric(fit_ols(design, y))
        assert np.array_equal(a.theta[:-1], b.theta[:-1])
        assert a.theta[-1] == b.theta[-1]
        assert np.array_equal(a.residuals, b.residuals)
        assert np.array_equal(a.centred_score, b.centred_score)
        assert np.array_equal(a.jacobian_A, b.jacobian_A)
        assert np.array_equal(fit_sandwich(a), fit_sandwich(b))
        assert a.diagnostics == b.diagnostics

    def test_given_ols_fit_is_used_as_is(self, monkeypatch):
        rng = np.random.default_rng(13)
        n = 150
        t = (rng.random(n) < 0.5).astype(float)
        y = t + rng.laplace(size=n)
        design, resp = simple_design(t, y)
        ols = fit_ols(design, resp)

        def no_refit(*args, **kwargs):
            raise AssertionError("fit_ols called although an OLS fit was given")

        monkeypatch.setattr(estimators, "fit_ols", no_refit)
        fit = fit_semiparametric(ols)
        assert isinstance(fit, RegressionFit)
        assert fit.design is ols.design
        assert fit.response is ols.response

    @pytest.mark.parametrize(
        "law, floor_rel, clip_over_h, branches",
        [
            ("gaussian", estimators.DENSITY_FLOOR_REL, estimators.SCORE_CLIP_OVER_H, False),
            (ASYMMETRIC_MIXTURE, 0.1, 1.0, True),
        ],
        ids=["dense", "clamped-and-clipped"],
    )
    def test_rows_and_A_are_those_of_a_fresh_evaluation_at_the_root(self, monkeypatch, law, floor_rel, clip_over_h, branches):
        # A raised density floor and a lowered clip bound make the second
        # root's evaluation clamp some points and clip others.
        monkeypatch.setattr(estimators, "DENSITY_FLOOR_REL", floor_rel)
        monkeypatch.setattr(estimators, "SCORE_CLIP_OVER_H", clip_over_h)
        design, y = law_design(law, 0)
        fit = fit_semiparametric(fit_ols(design, y))
        assert isinstance(fit, RegressionFit)
        e = y - design.values @ fit.theta[:-1]
        clamped, clipped = loo_kernel_branches(e, estimators.silverman_bandwidth(e - e.mean()), floor_rel, clip_over_h)
        assert (clamped > 0, clipped > 0) == (branches, branches)
        _, J, (e_root, centred_score, ds_frozen) = semiparam_psi(design, y, fit.theta)
        assert fit.rows().tobytes() == estimating_rows(design, e_root, fit.theta[-1], centred_score).tobytes()
        assert fit.jacobian_A.tobytes() == frozen_score_jacobian(design, J, ds_frozen).tobytes()

    def test_A_is_formed_once_per_screened_root_not_per_evaluation(self, monkeypatch):
        # The first converged root is screened out, so two roots are screened.
        design, y = law_design(ASYMMETRIC_MIXTURE, 0)
        verdicts = iter(["forced"])
        real_screen_root = estimators.screen_root
        monkeypatch.setattr(estimators, "screen_root", lambda *args: next(verdicts, None) or real_screen_root(*args))
        with (
            mock.patch.object(estimators, "frozen_score_jacobian", wraps=frozen_score_jacobian) as form_A,
            mock.patch.object(estimators, "semiparam_psi", wraps=semiparam_psi) as evaluate,
        ):
            fit = fit_semiparametric(fit_ols(design, y))
        assert isinstance(fit, RegressionFit)
        assert fit.diagnostics.screened_reasons == ("start 0: forced",)
        assert form_A.call_count == 2 < evaluate.call_count

    def test_fallback_starts_are_built_in_order_only_after_start_0_fails(self, monkeypatch):
        design, y = law_design(ASYMMETRIC_MIXTURE, 0)
        ols = fit_ols(design, y)
        received = []
        real_newton_root = estimators.newton_root

        def record(F, x0):
            received.append(np.array(x0, dtype=float))
            return real_newton_root(F, x0)

        monkeypatch.setattr(estimators, "newton_root", record)
        assert fit_semiparametric(ols).diagnostics.start_index_used == 0
        assert [x0.tobytes() for x0 in received] == [ols.theta.tobytes()]

        received.clear()

        def fail_two_starts(F, x0):
            received.append(np.array(x0, dtype=float))
            if len(received) <= 2:
                return estimators.NewtonResult(received[-1], None, None, 1, 1.0, "forced")
            return real_newton_root(F, x0)

        monkeypatch.setattr(estimators, "newton_root", fail_two_starts)
        fit = fit_semiparametric(ols)
        assert isinstance(fit, RegressionFit)
        assert fit.diagnostics.start_index_used == 2
        assert fit.diagnostics.screened_reasons == ("start 0: forced", "start 1: forced")
        assert [x0.tobytes() for x0 in received] == [row.tobytes() for row in documented_starts(ols.theta)[:3]]

    def test_no_rows_are_formed_during_the_fit(self):
        # Newton works on the equations' means; rows are formed only for B.
        design, y = law_design(ASYMMETRIC_MIXTURE, 0)
        ols = fit_ols(design, y)
        with mock.patch.object(estimators, "estimating_rows", wraps=estimating_rows) as form_rows:
            fit = fit_semiparametric(ols)
        assert isinstance(fit, RegressionFit)
        assert form_rows.call_count == 0

    def test_an_evaluation_that_raises_names_its_message_for_every_start(self, monkeypatch):
        design, y = law_design(ASYMMETRIC_MIXTURE, 0)
        ols = fit_ols(design, y)

        def degenerate(*args):
            raise EstimationError("degenerate density estimate")

        monkeypatch.setattr(estimators, "semiparam_psi", degenerate)
        res = fit_semiparametric(ols)
        assert isinstance(res, FitFailure)
        assert res.reasons == tuple(f"start {i}: degenerate density estimate at start" for i in range(5))

    def test_semiparametric_fit_as_ols_rejected(self):
        rng = np.random.default_rng(14)
        t = (rng.random(60) < 0.5).astype(float)
        design, resp = simple_design(t, t + rng.laplace(size=60))
        semi = fit_semiparametric(fit_ols(design, resp))
        assert isinstance(semi, RegressionFit)
        with pytest.raises(EstimationError, match="least-squares fit"):
            fit_semiparametric(semi)

    def test_too_small_sample_rejected(self):
        t = np.array([0.0, 1.0] * 5)
        y = np.arange(10.0)
        ds = dataset_from_arrays(T=t, Y=y)
        design = build_design(ds, ModelSpec(response="Y", treatment="T"))
        with pytest.raises(EstimationError, match="p \\+ 10"):
            fit_semiparametric(fit_ols(design, y))


def central_diff(fn, x, step_rel=1e-5):
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        step = step_rel * max(1.0, abs(x[j]))
        hi, lo = x.copy(), x.copy()
        hi[j] += step
        lo[j] -= step
        cols.append((fn(hi) - fn(lo)) / (2.0 * step))
    return np.column_stack(cols)


def rel_err(J, oracle):
    return float(np.max(np.abs(J - oracle)) / np.max(np.abs(oracle)))


def law_design(law, seed, n=120):
    """Interaction outcome design (intercept, T, M, TM) with errors from one law."""
    rng = np.random.default_rng(seed)
    t = (rng.random(n) < 0.5).astype(float)
    m = 0.2 + 0.4 * t + sample_error(ErrorSpec(law), rng, n)
    y = 0.5 * t - 0.8 * m + t * m + sample_error(ErrorSpec(law), rng, n)
    ds = dataset_from_arrays(T=t, M=m, Y=y)
    spec = ModelSpec(response="Y", treatment="T", mediator="M", interaction=True)
    return build_design(ds, spec), y


def design_with_residuals(e, seed):
    """Design (intercept, T, X1) and response whose residuals at the returned point are e."""
    rng = np.random.default_rng(seed)
    n = e.size
    t = (np.arange(n) % 2).astype(float)
    x1 = rng.standard_normal(n)
    design = build_design(dataset_from_arrays(T=t, X1=x1, Y=e), ModelSpec(response="Y", treatment="T", covariates=("X1",)))
    point = np.array([0.3, -0.2, 0.5, 1.0])
    return design, design.values @ point[:-1] + e, point


def loo_kernel_branches(e, h, floor_rel=1e-3, clip_over_h=10.0):
    """(clamped, clipped) counts of the leave-one-out kernel score at the data points."""
    u = (e[:, None] - e[None, :]) / h
    K = np.exp(-0.5 * u * u)
    np.fill_diagonal(K, 0.0)
    S0, S1 = K.sum(axis=1), (u * K).sum(axis=1)
    ok = S0 >= floor_rel * S0.max()
    return int((~ok).sum()), int((np.abs(S1[ok] / S0[ok]) > clip_over_h).sum())


def frozen_score_oracle(r, h):
    """The clamped, clipped kernel score function of data points r, written out directly."""

    def score(pts):
        u = (pts[:, None] - r[None, :]) / h
        K = np.exp(-0.5 * u * u)
        np.fill_diagonal(K, 0.0)  # index-paired self terms
        S0, S1 = K.sum(axis=1), (u * K).sum(axis=1)
        ok = S0 >= 1e-3 * S0.max()
        s = np.where(ok, -S1 / (h * np.where(ok, S0, 1.0)), 0.0)
        for i in np.flatnonzero(~ok):
            good = np.flatnonzero(ok)
            s[i] = s[good[np.argmin(np.abs(pts[good] - pts[i]))]]
        return np.clip(s, -10.0 / h, 10.0 / h)

    return score


def frozen_mean_psi_oracle(design, y, root):
    """Mean adaptive-score rows with the score function frozen at ``root``, written out directly."""
    X = design.values
    r = y - X @ root[:-1]
    score = frozen_score_oracle(r, 1.06 * np.std(r, ddof=1) * y.size ** (-0.2))
    center = score(r).mean()
    xc = X[:, 1:] - X[:, 1:].mean(axis=0)

    def mean_psi(v):
        e = y - X @ v[:-1]
        s = score(e) - center
        return np.concatenate([[e.mean()], (xc * s[:, None]).mean(axis=0), [(e * e - v[-1]).mean()]])

    return mean_psi


class TestExactJacobians:
    """Closed-form Jacobians against central differences."""

    @staticmethod
    def newton_oracle(design, y, point):
        return central_diff(
            lambda v: evaluation_rows(design, y, v).mean(axis=0),
            point,
        )

    @staticmethod
    def fixed_bandwidth_errors(design, y, point, h, step_rel=1e-5):
        """Relative errors of the re-estimated and the frozen score derivatives at a
        fixed bandwidth against central differences."""
        X = design.values
        e = y - X @ point[:-1]
        _, ds_newton, ds_frozen = kernel_pass(e, h, X, np.zeros(design.p))
        newton = central_diff(lambda b: kernel_pass(y - X @ b, h, X, np.zeros(design.p))[0], point[:-1], step_rel)
        frozen = central_diff(lambda b: frozen_score_oracle(e, h)(y - X @ b), point[:-1], step_rel)
        return rel_err(ds_newton, newton), rel_err(ds_frozen, frozen)

    @pytest.mark.parametrize("law", ERROR_LAWS)
    def test_newton_jacobian_matches_central_differences(self, law):
        for seed in range(3):
            design, y = law_design(law, seed)
            ols = fit_ols(design, y)
            point = np.append(ols.theta[:-1] + 0.05, 1.2 * ols.theta[-1])
            _, J, *_ = semiparam_psi(design, y, point)
            assert rel_err(J, self.newton_oracle(design, y, point)) <= 1e-6

    @pytest.mark.parametrize("law", ERROR_LAWS)
    def test_fixed_bandwidth_derivative_matches_central_differences(self, law):
        for seed in range(3):
            design, y = law_design(law, seed)
            ols = fit_ols(design, y)
            point = np.append(ols.theta[:-1] + 0.05, ols.theta[-1])
            assert max(self.fixed_bandwidth_errors(design, y, point, 0.4)) <= 1e-6

    def test_newton_jacobian_with_outlier_clamps(self):
        rng = np.random.default_rng(5)
        e = np.append(rng.standard_normal(80), 12.0)
        design, y, point = design_with_residuals(e, 5)
        h = 1.06 * np.std(e, ddof=1) * e.size ** (-0.2)
        assert loo_kernel_branches(e, h)[0] > 0
        _, J, *_ = semiparam_psi(design, y, point)
        assert rel_err(J, self.newton_oracle(design, y, point)) <= 1e-6

    def test_newton_jacobian_with_clipped_and_clamped_points(self):
        # Residuals 11 bandwidths apart: the end points' scores exceed the clip
        # bound, and the outlier 15 bandwidths out falls below the density floor.
        # The kernel varies on a scale of h / 11 here, so the oracle's steps are
        # ten times smaller than elsewhere.
        h = 0.1
        rng = np.random.default_rng(6)
        e = rng.permutation(np.append(1.1 * np.arange(12.0), 1.1 * 11 + 1.5))
        design, y, point = design_with_residuals(e, 6)
        clamped, clipped = loo_kernel_branches(e, h)
        assert clamped > 0 and clipped > 0
        assert max(self.fixed_bandwidth_errors(design, y, point, h, step_rel=1e-6)) <= 1e-6

    @pytest.mark.parametrize("law", ERROR_LAWS)
    def test_frozen_jacobian_matches_oracle(self, law):
        design, y = law_design(law, 1)
        fit = fit_semiparametric(fit_ols(design, y))
        assert isinstance(fit, RegressionFit)
        oracle = central_diff(frozen_mean_psi_oracle(design, y, fit.theta), fit.theta)
        assert rel_err(fit.jacobian_A, oracle) <= 1e-6

    def test_frozen_jacobian_with_outlier_clamps(self):
        rng = np.random.default_rng(7)
        e = np.append(rng.standard_normal(80), -12.0)
        design, y, point = design_with_residuals(e, 7)
        h = 1.06 * np.std(e, ddof=1) * e.size ** (-0.2)
        assert loo_kernel_branches(e, h)[0] > 0
        A = psi_rows_J_A(design, y, point)[2]
        oracle = central_diff(frozen_mean_psi_oracle(design, y, point), point)
        assert rel_err(A, oracle) <= 1e-6

    def test_ols_jacobian_matches_oracle(self):
        design, y = law_design(ASYMMETRIC_MIXTURE, 2)
        fit = fit_ols(design, y)
        X = design.values

        def mean_rows(v):
            e = y - X @ v[:-1]
            return np.append((X * e[:, None]).mean(axis=0), (e * e - v[-1]).mean())

        assert rel_err(fit.jacobian_A, central_diff(mean_rows, fit.theta)) <= 1e-8

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(20, 60),
        covariates=st.integers(0, 2),
        law=st.sampled_from(ERROR_LAWS),
        shift=st.floats(-0.3, 0.3),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_designs(self, seed, n, covariates, law, shift):
        rng = np.random.default_rng(seed)
        cols = {f"X{k}": rng.standard_normal(n) for k in range(covariates)}
        t = (rng.random(n) < 0.5).astype(float)
        y = 0.3 * t + sum(cols.values(), np.zeros(n)) + sample_error(ErrorSpec(law), rng, n)
        ds = dataset_from_arrays(T=t, Y=y, **cols)
        design = build_design(ds, ModelSpec(response="Y", treatment="T", covariates=tuple(cols)))
        ols = fit_ols(design, y)
        point = np.append(ols.theta[:-1] + shift, ols.theta[-1])
        _, J, A = psi_rows_J_A(design, y, point)
        assert rel_err(J, self.newton_oracle(design, y, point)) <= 1e-5
        assert rel_err(A, central_diff(frozen_mean_psi_oracle(design, y, point), point)) <= 1e-5


# GEMM sums may round differently from one block size to another. The kernel
# pass's outputs must agree across block sizes to this relative tolerance.
BLOCK_RTOL = 1e-12
# The pass expands the moments about the residual mean, which rounds
# differently from summing powers of u_ik directly as the oracle does. Over
# 3000 draws of the strategy below the largest relative error was 4.0e-12, on
# ds_newton; this tolerance leaves a factor of ten above it.
ORACLE_RTOL = 4e-11


class TestKernelBlocks:
    """The block-pair kernel pass against direct oracles and across block sizes."""

    # Residuals 11 bandwidths apart at h = 0.1: the two end points (rows 0 and
    # 7) are clipped, and the outliers 15 bandwidths out (rows 6 and 13) are
    # clamped. With blocks of 7 rows (the default halves) each sits on a
    # block edge; with blocks of 4 the last block is ragged.
    EDGE_RESIDUALS = np.array([12.1, 1.1, 2.2, 3.3, 4.4, 5.5, 13.6, 0.0, 6.6, 7.7, 8.8, 9.9, 11.0, -1.5])

    def test_edge_residuals_are_clamped_and_clipped_at_block_edges(self):
        e, h = self.EDGE_RESIDUALS, 0.1
        u = (e[:, None] - e[None, :]) / h
        K = np.exp(-0.5 * u * u)
        np.fill_diagonal(K, 0.0)
        S0, S1 = K.sum(axis=1), (u * K).sum(axis=1)
        ok = S0 >= 1e-3 * S0.max()
        assert np.flatnonzero(~ok).tolist() == [6, 13]
        assert np.flatnonzero(ok & (np.abs(S1 / np.where(ok, S0, 1.0)) > 10.0)).tolist() == [0, 7]

    @pytest.mark.parametrize("side", [1, 4, 7])
    def test_clamped_and_clipped_edges_match_oracles(self, side):
        e, h = self.EDGE_RESIDUALS, 0.1
        design, y, point = design_with_residuals(e, 8)
        with mock.patch.object(estimators, "KERNEL_BLOCK_BYTES", block_bytes(side)):
            score = kernel_pass(e, h, design.values, np.zeros(design.p))[0]
            errors = TestExactJacobians.fixed_bandwidth_errors(design, y, point, h, step_rel=1e-6)
        assert rel_err(score, direct_score_oracle(e, h)) <= BLOCK_RTOL
        assert score[6] == score[0] and score[13] == score[7]
        assert max(errors) <= 1e-6

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(10, 700),
        p=st.integers(1, 5),
        kind=st.sampled_from(HARD_RESIDUALS),
        side=st.sampled_from([1, 7, None]),
    )
    @example(seed=1, n=700, p=3, kind="outlier_1e4sd", side=None)
    @example(seed=2, n=700, p=5, kind="outlier_50sd", side=7)
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_oracle_on_hard_residuals(self, seed, n, p, kind, side):
        rng = np.random.default_rng(seed)
        e = hard_residuals(kind, n, rng)
        X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
        dh = rng.standard_normal(p)
        h = estimators.silverman_bandwidth(e - e.mean())
        with mock.patch.object(estimators, "KERNEL_BLOCK_BYTES", block_bytes(side or n)):
            got = kernel_pass(e, h, X, dh)
        for g, want in zip(got, direct_kernel_oracle(e, h, X, dh)):
            assert rel_err(g, want) <= ORACLE_RTOL

    @pytest.mark.parametrize("n", [1, 2, 3, 299, 300, 301])
    def test_product_matches_dense_oracle(self, n):
        # Blocks of one row, of 64 rows (a ragged last block from n = 3 on)
        # and the default halves (ragged at odd n). The points at a = 100,
        # 200 and 300 lie e^-5000 from every other, so their sums are exactly
        # zero: a diagonal left in place would add exactly 1 to their S0.
        rng = np.random.default_rng(n)
        a = 2.0 * rng.standard_normal(n)
        isolated = np.unique([0, n // 2, n - 1]) if n > 3 else [n - 1]
        a[isolated] = 100.0 * np.arange(1, len(isolated) + 1)
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        K = np.exp(-0.5 * (a[:, None] - a[None, :]) ** 2)
        np.fill_diagonal(K, 0.0)
        W = np.column_stack([X, a[:, None] * X, (a * a)[:, None] * X, a**3])
        want, scale = (K @ W).T, (K @ np.abs(W)).T
        for side in (1, 64, n):
            with mock.patch.object(estimators, "KERNEL_BLOCK_BYTES", block_bytes(side)):
                got = estimators._kernel_product(a, np.ascontiguousarray(X.T))
            assert got.shape == (10, n)
            assert np.all(np.abs(got - want) <= 1e-13 * scale)
            assert np.all(got[:, isolated] == 0.0)

    def test_block_sizes_agree(self):
        # The edge residuals through the kernel pass, and a 120-row design
        # (whose last block of side 7 has one row) through rows, J and A.
        e, h = self.EDGE_RESIDUALS, 0.1
        rng = np.random.default_rng(10)
        X = np.column_stack([np.ones(e.size), rng.standard_normal((e.size, 2))])
        dh = rng.standard_normal(3)
        design, y = law_design(ASYMMETRIC_MIXTURE, 3)
        point = fit_ols(design, y).theta
        cases = [
            (e.size, lambda: kernel_pass(e, h, X, dh)),
            (y.size, lambda: psi_rows_J_A(design, y, point)),
        ]
        for n, call in cases:
            outputs = []
            for side in (1, 7, n):
                with mock.patch.object(estimators, "KERNEL_BLOCK_BYTES", block_bytes(side)):
                    outputs.append(call())
            for other in outputs[:2]:
                for got, want in zip(other, outputs[2]):
                    assert rel_err(got, want) <= BLOCK_RTOL

    def test_memory_is_bounded_by_the_block_budget(self):
        # Three dense 4000 x 4000 float64 arrays would take 384 MB; the blocked
        # pass holds its one-buffer budget plus arrays of n x (p + 1) floats.
        design, y = law_design(ASYMMETRIC_MIXTURE, 4, n=4000)
        point = fit_ols(design, y).theta
        n, p = design.values.shape
        tracemalloc.start()
        try:
            semiparam_psi(design, y, point)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= estimators.KERNEL_BLOCK_BYTES + 16 * 8 * n * (p + 1)


def clamp_sources(e, h, X):
    """The clamped points of the kernel pass, and the dense point that argmin over |e_bad - e_good| picks for each."""
    S0 = estimators._kernel_product((e - e.mean()) / h, np.ascontiguousarray(X.T))[0]
    ok = S0 >= estimators.DENSITY_FLOOR_REL * S0.max()
    bad, good = np.flatnonzero(~ok), np.flatnonzero(ok)
    return bad, good[np.abs(e[bad, None] - e[good]).argmin(axis=1)]


class TestClampLookup:
    """A clamped point copies, bit for bit, the score and derivatives of the dense point that argmin picks.

    The oracle tolerance above cannot tell a tie resolved to the wrong point
    from the right one, since tied points have nearly equal scores.
    """

    @staticmethod
    def assert_copies(e, h, X, dh, bad, src):
        score, ds_newton, ds_frozen = kernel_pass(e, h, X, dh)
        assert score[bad].tobytes() == score[src].tobytes()
        assert ds_newton[bad].tobytes() == ds_newton[src].tobytes()
        assert ds_frozen[bad].tobytes() == ds_frozen[src].tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_ties_resolve_to_the_lowest_index(self, seed):
        # Two dense clusters on a grid of eighths, each value held by a
        # hundred points or more, so that every run is long; at h = 1 the
        # peak S0 is above 1400, and a point whose only neighbour is its twin
        # (S0 = 1) is below the floor. The outliers are two equal points
        # exactly halfway between the clusters (39.75 is 39.25 from both 0.5
        # and 79), a point below both and one above both. The rows are
        # shuffled, so the lowest index of the tie lies in either cluster.
        rng = np.random.default_rng(seed)
        e = np.r_[0.125 * rng.integers(0, 5, 1500), 79.0 + 0.125 * rng.integers(0, 5, 500), 39.75, 39.75, -30.0, 120.0]
        e = e[rng.permutation(e.size)]
        X = np.column_stack([np.ones(e.size), rng.standard_normal((e.size, 2))])
        dh = rng.standard_normal(3)
        bad, src = clamp_sources(e, 1.0, X)
        assert sorted(e[bad].tolist()) == [-30.0, 39.75, 39.75, 120.0]
        tied = np.flatnonzero((e == 0.5) | (e == 79.0))
        assert src[e[bad] == 39.75].tolist() == [tied.min()] * 2
        self.assert_copies(e, 1.0, X, dh, bad, src)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1500, 3000), decimals=st.sampled_from([None, 1, 2]))
    @example(seed=11, n=3000, decimals=None)
    @example(seed=11, n=3000, decimals=1)
    @settings(max_examples=10, deadline=None)
    def test_t2_residuals(self, seed, n, decimals):
        # t with 2 degrees of freedom puts 3 to 21 points below the floor at
        # these n (300 seeds); rounded to one decimal, about one clamped
        # point in eleven has a run of equal nearest values.
        rng = np.random.default_rng(seed)
        e = rng.standard_t(2, n)
        if decimals is not None:
            e = np.round(e, decimals)
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 3))])
        dh = rng.standard_normal(4)
        h = estimators.silverman_bandwidth(e - e.mean())
        bad, src = clamp_sources(e, h, X)
        assert bad.size >= 1
        self.assert_copies(e, h, X, dh, bad, src)

    def test_distances_that_round_equal_take_the_nearer_value(self):
        # The one departure from argmin: 1e4 - 3 and 1e4 - (3 + 5e-13) round
        # to the same double, so argmin takes the lower index, 0, and the
        # sorted search the nearer value, 1. The two scores differ in the
        # last bits, so the outputs tell the two apart.
        e = np.r_[3.0, 3.0 + 5e-13, 3.0 - 0.001 * np.arange(1, 1500), 1e4]
        X = np.ones((e.size, 1))
        bad, src = clamp_sources(e, 1.0, X)
        assert bad.tolist() == [e.size - 1] and src.tolist() == [0]
        score = kernel_pass(e, 1.0, X, np.ones(1))[0]
        assert score[0] != score[1]
        self.assert_copies(e, 1.0, X, np.ones(1), bad, np.array([1]))



def least_squares_memory(n):
    """Traced bytes of the least-squares path at n rows, three covariates and interaction.

    Returns stack_fits' peak, fit_ols' peak above what it returns (the outcome
    fit), mediate's live set at return above its two designs, and mediate's
    peak above that live set.
    """
    rng = np.random.default_rng(24)
    t = (rng.random(n) < 0.5).astype(float)
    x = rng.standard_normal((3, n))
    m = 0.3 + 0.5 * t + 0.2 * x.sum(axis=0) + rng.standard_normal(n)
    y = 0.1 + 0.4 * t - 0.6 * m + 0.8 * t * m + 0.3 * x[0] + rng.standard_normal(n)
    data = dataset_from_arrays(T=t, M=m, Y=y, X1=x[0], X2=x[1], X3=x[2])
    covariates = ("X1", "X2", "X3")
    med = fit_ols(build_design(data, ModelSpec(response="M", treatment="T", covariates=covariates)), m)
    out_spec = ModelSpec(response="Y", treatment="T", mediator="M", covariates=covariates, interaction=True)
    out_design = build_design(data, out_spec)
    tracemalloc.start()
    try:
        out = fit_ols(out_design, y)
        fit_live, fit_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        stack_fits(med, out)
        stack_peak = tracemalloc.get_traced_memory()[1] - before
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = mediate(data, "T", "M", "Y", covariates, interaction=True, method="ols")
        live, peak = (v - before for v in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert not result.methods["ols"].failed
    designs = 8 * n * (med.design.p + out.design.p)
    return stack_peak, fit_peak - fit_live, live - designs, peak - live


def test_least_squares_path_holds_nothing_of_length_n_beyond_the_residuals():
    # The fits keep their residuals, not their rows; fit_ols factorizes and
    # stack_fits sums B over blocks of rows, so neither allocates more at
    # four times n, and mediate's live set at return is its two designs and
    # two residual vectors. Two fits' rows would add 14 n floats.
    small, large = (least_squares_memory(n) for n in (20_000, 80_000))
    stack_small, fit_small, _, mediate_small = small
    stack_large, fit_large, _, mediate_large = large
    assert stack_large <= stack_small + 64 * 1024
    assert fit_large <= fit_small + 64 * 1024
    assert mediate_large <= mediate_small + 64 * 1024
    for n, (_, _, above_designs, _) in ((20_000, small), (80_000, large)):
        assert above_designs <= 8 * 3 * n
