import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semimediation import estimators
from semimediation.data import ModelSpec, build_design, dataset_from_arrays
from semimediation.estimators import (
    EstimationError,
    FitFailure,
    RegressionFit,
    fit_ols,
    fit_semiparametric,
    make_starts,
    newton_root,
    screen_root,
    semiparam_psi,
)
from semimediation.simulation import ASYMMETRIC_MIXTURE, ERROR_LAWS, ErrorSpec, sample_error


def simple_design(x, y):
    ds = dataset_from_arrays(T=np.asarray(x, float), Y=np.asarray(y, float))
    return build_design(ds, ModelSpec(response="Y", treatment="T")), ds.column("Y")


class TestFitOls:
    def test_exact_linear_fit(self):
        from semimediation.data import DesignMatrix

        x = np.array([0.0, 1.0, 2.0])
        y = np.array([2.0, 5.0, 8.0])
        design = DesignMatrix(np.column_stack([np.ones(3), x]), ("intercept", "covariate"), 2)
        fit = fit_ols(design, y)
        assert np.allclose(fit.theta[:-1], [2.0, 3.0], atol=1e-12)
        assert fit.theta[-1] == pytest.approx(0.0, abs=1e-20)

    def test_intercept_only_mean_and_variance(self):
        y = np.array([1.0, 2.0, 3.0])
        from semimediation.data import DesignMatrix

        design = DesignMatrix(np.ones((3, 1)), ("intercept",), 1)
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
        assert np.allclose(fit.psi_values[:, 0], e)
        assert np.allclose(fit.psi_values[:, 1], t * e)
        assert np.allclose(fit.psi_values[:, 2], e * e - fit.theta[-1])
        # coefficient moment rows average to zero at the solution
        assert np.max(np.abs(fit.psi_values[:, :2].mean(axis=0))) < 1e-10

    def test_underdetermined_rejected(self):
        from semimediation.data import DesignMatrix

        design = DesignMatrix(np.ones((1, 1)), ("intercept",), 1)
        with pytest.raises(EstimationError, match="n > p"):
            fit_ols(design, np.array([1.0]))

    @pytest.mark.parametrize(
        "covariates",
        [("X1", "DUP"), ("ZERO",), ("TWO_M",)],
        ids=["duplicated-column", "all-zero-covariate", "twice-the-mediator"],
    )
    def test_rank_deficiency_rejected(self, covariates):
        rng = np.random.default_rng(3)
        n = 40
        t = (rng.random(n) < 0.5).astype(float)
        m = rng.standard_normal(n)
        x1 = rng.standard_normal(n)
        ds = dataset_from_arrays(T=t, M=m, Y=rng.standard_normal(n), X1=x1, DUP=x1.copy(), ZERO=np.zeros(n), TWO_M=2.0 * m)
        design = build_design(ds, ModelSpec(response="Y", treatment="T", mediator="M", covariates=covariates))
        with pytest.raises(EstimationError, match="rank-deficient"):
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
    B = fit.psi_values.T @ fit.psi_values / fit.n
    return A_inv @ B @ A_inv.T / fit.n


def kernel_score(e):
    """Leave-one-out score at the residuals themselves, and the Silverman bandwidth it used."""
    h = estimators.silverman_bandwidth(e)
    return estimators._kernel_score(e, h, np.ones((e.size, 1)), np.zeros(1))[0], h


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

    def test_zero_variance_is_error(self):
        design, resp = simple_design(np.array([0.0, 1.0] * 10), np.ones(20))
        with pytest.raises(EstimationError, match="zero-variance"):
            semiparam_psi(design, resp, np.array([1.0, 0.0, 1.0]))

    def test_too_few_residuals(self):
        from semimediation.data import DesignMatrix

        design = DesignMatrix(np.ones((5, 1)), ("intercept",), 1)
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


def block_bytes(n, rows):
    """A ``KERNEL_BLOCK_BYTES`` value that makes the kernel pass use blocks of ``rows`` rows."""
    return 16 * n * rows


class TestSemiparamPsi:
    def test_intercept_row_mean_zero_at_ols(self):
        rng = np.random.default_rng(3)
        t = (rng.random(60) < 0.5).astype(float)
        y = 0.3 + t + rng.standard_normal(60)
        design, resp = simple_design(t, y)
        ols = fit_ols(design, resp)
        psi, _, _ = semiparam_psi(design, resp, ols.theta)
        assert abs(psi[:, 0].mean()) < 1e-10

    def test_matches_direct_oracle(self):
        t = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1], dtype=float)
        m = np.array([0.3, 1.1, -0.4, 0.9, 0.1, 1.4, -0.2, 0.7, 0.5, 1.0, -0.1, 0.8])
        y = np.array([0.2, 0.9, -0.6, 1.1, 0.3, 1.2, -0.3, 0.5, 0.6, 0.8, -0.2, 0.9])
        ds = dataset_from_arrays(T=t, M=m, Y=y)
        design = build_design(ds, ModelSpec(response="Y", treatment="T", mediator="M"))
        point = np.array([0.05, 0.3, 0.4, 0.2])
        oracle = direct_psi_oracle(design, y, point)
        # Blocks of one row, of 7 rows (a block edge inside the data) and of all rows.
        for rows in (1, 7, y.size):
            with mock.patch.object(estimators, "KERNEL_BLOCK_BYTES", block_bytes(y.size, rows)):
                psi, _, _ = semiparam_psi(design, y, point)
            assert np.max(np.abs(psi - oracle)) < 1e-8

    def test_score_values_centered(self):
        rng = np.random.default_rng(4)
        t = (rng.random(50) < 0.5).astype(float)
        y = t + rng.laplace(size=50)
        design, resp = simple_design(t, y)
        fit = fit_ols(design, resp)
        psi, _, _ = semiparam_psi(design, resp, fit.theta)
        x_centered = t - t.mean()
        assert abs((psi[:, 1] / x_centered).mean()) < 1e-12

    def test_nonpositive_sigma2_rejected(self):
        design, resp = simple_design(np.array([0.0, 1] * 10), np.arange(20.0))
        with pytest.raises(EstimationError, match="sigma2"):
            semiparam_psi(design, resp, np.zeros(3))


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

    def test_extra_comes_from_the_root(self, monkeypatch):
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


class TestMakeStarts:
    @given(
        beta=st.lists(st.one_of(st.just(0.0), st.floats(-1e3, 1e3)), min_size=1, max_size=5),
        sigma2=st.floats(1e-3, 1e3),
    )
    @example(beta=[0.2, 3.0], sigma2=1.0)
    @example(beta=[0.0, 0.0], sigma2=1.0)
    @example(beta=[-1.7, 0.4, 12.0], sigma2=2.5)
    @example(beta=[1.0, -2.0, 0.01], sigma2=1.0)
    @settings(deadline=None)
    def test_rows_are_the_documented_starts(self, beta, sigma2):
        # The documented steps: d = max(0.05, 0.1 * max(1, |beta|)) and the
        # alternating signs s = (1, -1, 1, ...); sigma2 is the same in every row.
        b = np.array(beta)
        d = np.maximum(0.05, 0.1 * np.maximum(1.0, np.abs(b)))
        s = np.array([(-1.0) ** j for j in range(b.size)])
        starts = make_starts(_fake_ols(b, sigma2))
        assert starts.shape == (5, b.size + 1)
        for row, coef in zip(starts, [b, b + d, b - d, b + s * d, b - s * d]):
            assert np.array_equal(row, np.append(coef, sigma2))


def _fake_ols(beta, sigma2):
    p = beta.size
    n = 10 * p
    from semimediation.data import DesignMatrix

    design = DesignMatrix(np.column_stack([np.ones(n)] + [np.linspace(0, 1, n)] * (p - 1)), ("intercept",) * p, p)
    from semimediation.estimators import FitDiagnostics

    return RegressionFit(
        np.append(beta, sigma2),
        "ols",
        np.zeros((n, p + 1)),
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
        assert np.max(np.abs(fit.psi_values.mean(axis=0))) <= 1e-6
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
        assert np.array_equal(a.psi_values, b.psi_values)
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


def loo_kernel_branches(e, h):
    """(clamped, clipped) counts of the leave-one-out kernel score at the data points."""
    u = (e[:, None] - e[None, :]) / h
    K = np.exp(-0.5 * u * u)
    np.fill_diagonal(K, 0.0)
    S0, S1 = K.sum(axis=1), (u * K).sum(axis=1)
    ok = S0 >= 1e-3 * S0.max()
    return int((~ok).sum()), int((np.abs(S1[ok] / S0[ok]) > 10.0).sum())


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
            lambda v: semiparam_psi(design, y, v)[0].mean(axis=0),
            point,
        )

    @staticmethod
    def fixed_bandwidth_errors(design, y, point, h, step_rel=1e-5):
        """Relative errors of the re-estimated and the frozen score derivatives at a
        fixed bandwidth against central differences."""
        X = design.values
        e = y - X @ point[:-1]
        _, ds_newton, ds_frozen = estimators._kernel_score(e, h, X, np.zeros(design.p))
        newton = central_diff(
            lambda b: estimators._kernel_score(y - X @ b, h, X, np.zeros(design.p))[0], point[:-1], step_rel
        )
        frozen = central_diff(lambda b: frozen_score_oracle(e, h)(y - X @ b), point[:-1], step_rel)
        return rel_err(ds_newton, newton), rel_err(ds_frozen, frozen)

    @pytest.mark.parametrize("law", ERROR_LAWS)
    def test_newton_jacobian_matches_central_differences(self, law):
        for seed in range(3):
            design, y = law_design(law, seed)
            ols = fit_ols(design, y)
            point = np.append(ols.theta[:-1] + 0.05, 1.2 * ols.theta[-1])
            _, J, _ = semiparam_psi(design, y, point)
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
        _, J, _ = semiparam_psi(design, y, point)
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
        A = semiparam_psi(design, y, point)[2]
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
        _, J, A = semiparam_psi(design, y, point)
        assert rel_err(J, self.newton_oracle(design, y, point)) <= 1e-5
        assert rel_err(A, central_diff(frozen_mean_psi_oracle(design, y, point), point)) <= 1e-5


# GEMM sums may round differently from one block size to another. The kernel
# pass's outputs must agree across block sizes to this relative tolerance.
BLOCK_RTOL = 1e-12


class TestKernelBlocks:
    """The row-blocked kernel pass against direct oracles and across block sizes."""

    # Residuals 11 bandwidths apart at h = 0.1: the two end points (rows 0 and
    # 7) are clipped, and the outliers 15 bandwidths out (rows 6 and 13) are
    # clamped. With 7-row blocks each sits on a block edge.
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

    @pytest.mark.parametrize("rows", [1, 7, EDGE_RESIDUALS.size])
    def test_clamped_and_clipped_edges_match_oracles(self, rows):
        e, h = self.EDGE_RESIDUALS, 0.1
        design, y, point = design_with_residuals(e, 8)
        with mock.patch.object(estimators, "KERNEL_BLOCK_BYTES", block_bytes(e.size, rows)):
            score = estimators._kernel_score(e, h, design.values, np.zeros(design.p))[0]
            errors = TestExactJacobians.fixed_bandwidth_errors(design, y, point, h, step_rel=1e-6)
        assert rel_err(score, direct_score_oracle(e, h)) <= BLOCK_RTOL
        assert score[6] == score[0] and score[13] == score[7]
        assert max(errors) <= 1e-6

    def test_block_sizes_agree(self):
        # The edge residuals through the kernel pass, and a 120-row design
        # (whose last 7-row block has one row) through rows, J and A.
        e, h = self.EDGE_RESIDUALS, 0.1
        rng = np.random.default_rng(10)
        X = np.column_stack([np.ones(e.size), rng.standard_normal((e.size, 2))])
        dh = rng.standard_normal(3)
        design, y = law_design(ASYMMETRIC_MIXTURE, 3)
        point = fit_ols(design, y).theta
        cases = [
            (e.size, lambda: estimators._kernel_score(e, h, X, dh)),
            (y.size, lambda: semiparam_psi(design, y, point)),
        ]
        for n, call in cases:
            outputs = []
            for rows in (1, 7, n):
                with mock.patch.object(estimators, "KERNEL_BLOCK_BYTES", block_bytes(n, rows)):
                    outputs.append(call())
            for other in outputs[:2]:
                for got, want in zip(other, outputs[2]):
                    assert rel_err(got, want) <= BLOCK_RTOL

    def test_memory_is_bounded_by_the_block_budget(self):
        # Three dense 4000 x 4000 float64 arrays would take 384 MB; the blocked
        # pass holds its 2-buffer budget plus arrays of n x (p + 1) floats.
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

