import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semimediation import estimators, inference
from semimediation.data import ModelSpec, build_design, dataset_from_arrays
from semimediation.estimators import EstimationError, FitFailure, fit_ols, fit_semiparametric
from semimediation.inference import (
    InferenceError,
    StackedFit,
    _complex_step_jacobian,
    _index_map,
    effect_map_g0,
    effect_map_g1,
    effects_from_stacked,
    map_intervals,
    mediate,
    sandwich_covariance,
    stack_fits,
)
from semimediation.simulation import ERROR_LAWS, ErrorSpec, ScenarioConfig, generate_interaction_dataset

Z95 = 1.959963985
# Rows per block in the block-edge cases of stack_fits and fit_ols.
BLOCK_ROWS = 40


def central_diff_jacobian(fn, x, step=1e-6):
    x = np.asarray(x, dtype=float)
    f0 = fn(x)
    J = np.empty((f0.size, x.size))
    for j in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi[j] += step
        lo[j] -= step
        J[:, j] = (fn(hi) - fn(lo)) / (2 * step)
    return J


class TestEffectMapG0:
    def test_reference_point(self):
        out = effect_map_g0(np.array([0.4, 0.5, -0.8]))
        assert np.allclose(out, [-0.32, 0.5, 0.18], atol=1e-15)

    def test_no_mediator_path(self):
        out = effect_map_g0(np.array([0.4, 0.5, 0.0]))
        assert np.allclose(out, [0.0, 0.5, 0.5])

    @given(st.lists(st.floats(-5, 5), min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_matches_independent_recoding(self, theta):
        b2, b3, g = theta
        expected = np.array([b2 * g, b3, b3 + b2 * g])
        assert np.array_equal(effect_map_g0(np.array(theta)), expected)


class TestJacobianG0:
    def test_first_row(self):
        J = _complex_step_jacobian(effect_map_g0, np.array([0.4, 0.5, -0.8]))
        assert np.allclose(J[0], [-0.8, 0.0, 0.4])

    def test_direct_effect_row_constant(self):
        J = _complex_step_jacobian(effect_map_g0, np.array([2.0, -1.0, 3.0]))
        assert np.array_equal(J[1], [0.0, 1.0, 0.0])

    def test_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            theta = rng.uniform(-3, 3, 3)
            J = _complex_step_jacobian(effect_map_g0, theta)
            J_fd = central_diff_jacobian(effect_map_g0, theta)
            assert np.max(np.abs(J - J_fd)) < 1e-6
        # At dyadic points a unit central step is exact, since the map is
        # affine in each parameter taken alone: the Jacobian must match it
        # bit for bit.
        for _ in range(25):
            theta = rng.integers(-32, 33, 3) / 8.0
            J = _complex_step_jacobian(effect_map_g0, theta)
            assert np.array_equal(J, central_diff_jacobian(effect_map_g0, theta, step=1.0))


class TestEffectMapG1:
    def test_main_design_constants(self):
        theta1 = np.array([0.2, 0.4, 0.5, -0.8, 1.0])
        out = effect_map_g1(theta1, np.empty(0))
        assert np.allclose(out, [-0.32, 0.08, 0.70, 1.10, 0.78], atol=1e-15)

    def test_power_design_acme0(self):
        theta1 = np.array([0.2, 0.26, 0.5, -0.26, 0.8])
        out = effect_map_g1(theta1, np.empty(0))
        assert out[0] == pytest.approx(-0.0676, abs=1e-12)

    def test_eta_zero_collapses_to_g0(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a2, b2, b3, g = rng.uniform(-2, 2, 4)
            xbar = rng.uniform(-1, 1, 2)
            xi2 = rng.uniform(-1, 1, 2)
            theta1 = np.array([a2, b2, *xi2, b3, g, 0.0])
            out = effect_map_g1(theta1, xbar)
            assert np.allclose(out, [b2 * g, b2 * g, b3, b3, b3 + b2 * g])

    def test_covariates_enter_through_mediator_mean(self):
        theta1 = np.array([0.1, 0.4, 0.5, -0.25, 0.5, -0.8, 1.0])
        xbar = np.array([2.0, -1.0])
        mu0 = 0.1 + 0.5 * 2.0 + (-0.25) * (-1.0)
        out = effect_map_g1(theta1, xbar)
        assert out[2] == pytest.approx(0.5 + 1.0 * mu0, abs=1e-14)


class TestJacobianG1:
    def test_acme0_row(self):
        theta1 = np.array([0.2, 0.4, 0.3, 0.5, -0.8, 1.0])
        xbar = np.array([1.5])
        J = _complex_step_jacobian(lambda v: effect_map_g1(v, xbar), theta1)
        assert np.allclose(J[0], [0.0, -0.8, 0.0, 0.0, 0.4, 0.0])

    def test_ade1_eta_derivative_without_covariates(self):
        theta1 = np.array([0.2, 0.4, 0.5, -0.8, 1.0])
        J = _complex_step_jacobian(lambda v: effect_map_g1(v, np.empty(0)), theta1)
        assert J[3, 4] == pytest.approx(0.2 + 0.4)  # mu_M(1) = alpha2 + beta2

    @pytest.mark.parametrize("q", [0, 1, 3])
    def test_finite_differences(self, q):
        rng = np.random.default_rng(2 + q)
        for _ in range(20):
            theta1 = rng.uniform(-2, 2, 5 + q)
            xbar = rng.uniform(-2, 2, q)
            J = _complex_step_jacobian(lambda v: effect_map_g1(v, xbar), theta1)
            J_fd = central_diff_jacobian(lambda v: effect_map_g1(v, xbar), theta1)
            assert np.max(np.abs(J - J_fd)) < 1e-6
        # Dyadic points, unit step: exact, as for g0.
        for _ in range(20):
            theta1 = rng.integers(-32, 33, 5 + q) / 8.0
            xbar = rng.integers(-32, 33, q) / 8.0
            J = _complex_step_jacobian(lambda v: effect_map_g1(v, xbar), theta1)
            assert np.array_equal(J, central_diff_jacobian(lambda v: effect_map_g1(v, xbar), theta1, step=1.0))


class TestSandwichAndStacking:
    def test_identity_algebra(self):
        cov = sandwich_covariance(-np.eye(3), np.eye(3), 1)
        assert np.allclose(cov, np.eye(3), atol=1e-14)

    def test_stacked_ols_blocks_match_hc0_oracle(self, laplace_mediation_data):
        data = laplace_mediation_data
        med_design = build_design(data, ModelSpec(response="M", treatment="T", covariates=("X1",)))
        out_design = build_design(
            data, ModelSpec(response="Y", treatment="T", mediator="M", covariates=("X1",), interaction=True)
        )
        med = fit_ols(med_design, data.column("M"))
        out = fit_ols(out_design, data.column("Y"))
        st_fit = stack_fits(med, out)

        def hc0(design, y, beta):
            X = design.values
            e = y - X @ beta
            bread = np.linalg.inv(X.T @ X)
            return bread @ (X.T * (e * e)) @ X @ bread

        med_oracle = hc0(med_design, data.column("M"), med.theta[:-1])
        out_oracle = hc0(out_design, data.column("Y"), out.theta[:-1])
        pm = med_design.p
        po = out_design.p
        off = pm + 1
        assert np.max(np.abs(st_fit.cov[:pm, :pm] - med_oracle)) < 1e-8
        assert np.max(np.abs(st_fit.cov[off : off + po, off : off + po] - out_oracle)) < 1e-8

    def test_diagonal_blocks_are_each_fits_own_sandwich(self, laplace_mediation_data):
        res = mediate(laplace_mediation_data, "T", "M", "Y", covariates=("X1",), interaction=True, method="both")
        ols, semi = res.methods["ols"], res.methods["semiparametric"]
        # mediate's own stack, least squares beside the semiparametric fit,
        # and the two fits of one model on simulated asymmetric-mixture data.
        data = generate_interaction_dataset(ScenarioConfig(ErrorSpec("asymmetric_mixture"), n=300, reps=1, seed=11), 0)
        med_ols = fit_ols(build_design(data, ModelSpec(response="M", treatment="T")), data.column("M"))
        med_semi = fit_semiparametric(med_ols)
        for stacked, med, out in (
            (semi.stacked, semi.mediator_fit, semi.outcome_fit),
            (stack_fits(ols.mediator_fit, semi.outcome_fit), ols.mediator_fit, semi.outcome_fit),
            (stack_fits(med_ols, med_semi), med_ols, med_semi),
        ):
            d1 = med.theta.size
            for fit, block in ((med, slice(0, d1)), (out, slice(d1, None))):
                A_inv = np.linalg.inv(fit.jacobian_A)
                psi = fit.rows()
                B = psi.T @ psi / fit.n
                own = A_inv @ B @ A_inv.T / fit.n
                assert np.max(np.abs(stacked.cov[block, block] - own)) < 1e-10

    def test_nonfinite_covariance_raises(self, laplace_mediation_data):
        data = laplace_mediation_data
        med = fit_ols(build_design(data, ModelSpec(response="M", treatment="T")), data.column("M"))
        out = fit_ols(build_design(data, ModelSpec(response="Y", treatment="T", mediator="M")), data.column("Y"))
        e = med.residuals.copy()
        e[0] = 1e200  # its square overflows the variance row and B
        # One fault, one error: the overflow is refused without a warning.
        with pytest.raises(InferenceError, match="not finite"):
            stack_fits(dataclasses.replace(med, residuals=e), out)

    def test_cross_block_matches_empirical_cross_covariance(self):
        rng = np.random.default_rng(9)
        n = 250
        t = (rng.random(n) < 0.5).astype(float)
        shared = rng.standard_normal(n)
        m = 0.2 + 0.4 * t + shared
        y = 0.5 * t - 0.8 * m + shared + 0.3 * rng.standard_normal(n)  # correlated errors
        data = dataset_from_arrays(T=t, M=m, Y=y)
        med = fit_ols(build_design(data, ModelSpec(response="M", treatment="T")), m)
        out = fit_ols(build_design(data, ModelSpec(response="Y", treatment="T", mediator="M")), y)
        st_fit = stack_fits(med, out)
        d1 = med.design.p + 1
        psi = np.hstack([med.rows(), out.rows()])
        B_oracle = psi.T @ psi / n
        assert np.max(np.abs(st_fit.B - B_oracle)) < 1e-10
        assert np.max(np.abs(st_fit.B[:d1, d1:])) > 0.01

    def test_block_diagonal_jacobian(self, laplace_mediation_data):
        data = laplace_mediation_data
        med_ols = fit_ols(build_design(data, ModelSpec(response="M", treatment="T")), data.column("M"))
        out_ols = fit_ols(build_design(data, ModelSpec(response="Y", treatment="T", mediator="M")), data.column("Y"))
        med_semi, out_semi = fit_semiparametric(med_ols), fit_semiparametric(out_ols)
        # Fits of one method, and of two: least squares beside the semiparametric fit.
        for med, out in ((med_ols, out_ols), (med_semi, out_semi), (med_ols, out_semi)):
            st_fit = stack_fits(med, out)
            d1 = med.design.p + 1
            assert np.array_equal(st_fit.A[:d1, :d1], med.jacobian_A)
            assert np.array_equal(st_fit.A[d1:, d1:], out.jacobian_A)
            assert np.all(st_fit.A[:d1, d1:] == 0.0)
            assert np.all(st_fit.A[d1:, :d1] == 0.0)
        # All four fits in one stack: A is block diagonal in the order given,
        # and the covariance of each pair of fits is that of their own stack.
        fits = (med_ols, out_ols, med_semi, out_semi)
        four = stack_fits(*fits)
        bounds = np.cumsum([0] + [fit.theta.size for fit in fits])
        blocks = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        assert np.array_equal(four.theta, np.concatenate([fit.theta for fit in fits]))
        off_diagonal = four.A.copy()
        for fit, block in zip(fits, blocks):
            assert np.array_equal(four.A[block, block], fit.jacobian_A)
            off_diagonal[block, block] = 0.0
        assert np.all(off_diagonal == 0.0)
        for i, j in ((0, 1), (2, 3), (0, 2), (1, 3)):
            pair = stack_fits(fits[i], fits[j])
            rows = np.r_[blocks[i], blocks[j]]
            np.testing.assert_allclose(four.cov[np.ix_(rows, rows)], pair.cov, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "n", [None, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 1], ids=lambda n: f"n={n or 200}"
    )
    def test_blocked_B_matches_the_stacked_rows(self, laplace_mediation_data, monkeypatch, n):
        # B is summed per pair of fits over blocks of rows, never from the
        # stacked rows: it agrees with their averaged outer product up to
        # rounding, is exactly symmetric, and each pair's block in a larger
        # stack is that pair's B. With n given, the first n rows are fitted
        # and every stack takes blocks of BLOCK_ROWS rows, so the last block
        # is one row short, full, a single row, or a single row after three
        # full blocks; the default budget puts all 200 rows in one block.
        data = laplace_mediation_data
        if n is not None:
            data = dataset_from_arrays(**{name: data.column(name)[:n] for name in data.column_names})
        fits = []
        for spec in (
            ModelSpec(response="M", treatment="T", covariates=("X1",)),
            ModelSpec(response="Y", treatment="T", mediator="M", covariates=("X1",), interaction=True),
        ):
            ols = fit_ols(build_design(data, spec), data.column(spec.response))
            fits += [ols, fit_semiparametric(ols)]
        assert all(isinstance(fit, estimators.RegressionFit) for fit in fits)
        med_ols, med_semi, out_ols, out_semi = fits
        four = (med_ols, out_ols, med_semi, out_semi)

        def stacked_B(*stack):
            if n is not None:
                width = sum(fit.theta.size for fit in stack)
                monkeypatch.setattr(estimators, "ROW_BLOCK_BYTES", 8 * width * BLOCK_ROWS)
            return stack_fits(*stack).B

        for stack in ((med_ols,), (out_semi,), (med_ols, out_ols), (med_semi, out_ols), four):
            B = stacked_B(*stack)
            rows = np.hstack([fit.rows() for fit in stack])
            oracle = rows.T @ rows / data.n
            # Summed in another order, an entry that cancels (the intercept
            # moment sum e_i is zero at a least-squares fit) keeps only its
            # rounding, so the blocked sums are held to the scale of what they
            # add up; in one block every entry is held to itself as well.
            scale = np.abs(rows).T @ np.abs(rows) / data.n
            assert np.max(np.abs(B - oracle) / scale) <= 1e-13
            if n is None:
                assert np.max(np.abs(B - oracle) / np.abs(oracle)) <= 1e-13
            assert np.array_equal(B, B.T)
        B4 = stacked_B(*four)
        bounds = np.cumsum([0] + [fit.theta.size for fit in four])
        blocks = [np.arange(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        for i in range(4):
            for j in range(i + 1, 4):
                rows = np.r_[blocks[i], blocks[j]]
                assert np.array_equal(B4[np.ix_(rows, rows)], stacked_B(four[i], four[j]))

    def test_kernel_passes(self, laplace_mediation_data, monkeypatch):
        # Each fit makes one kernel-score pass per Newton evaluation and none
        # after it: what the root's A and rows need comes with Newton's
        # result. Stacking makes none.
        calls = {"passes": 0, "psi": 0}
        kernel_score, semiparam_psi = estimators._kernel_score, estimators.semiparam_psi

        def counting_kernel_score(*args, **kwargs):
            calls["passes"] += 1
            return kernel_score(*args, **kwargs)

        def counting_semiparam_psi(*args, **kwargs):
            calls["psi"] += 1
            return semiparam_psi(*args, **kwargs)

        monkeypatch.setattr(estimators, "_kernel_score", counting_kernel_score)
        monkeypatch.setattr(estimators, "semiparam_psi", counting_semiparam_psi)
        data = laplace_mediation_data
        fits = []
        for spec in (ModelSpec(response="M", treatment="T"), ModelSpec(response="Y", treatment="T", mediator="M")):
            ols = fit_ols(build_design(data, spec), data.column(spec.response))
            calls.update(passes=0, psi=0)
            fit = fit_semiparametric(ols)
            assert fit.diagnostics.start_index_used == 0
            assert calls["passes"] == calls["psi"]
            # at least one evaluation per iteration plus the start
            assert calls["psi"] >= fit.diagnostics.iterations + 1
            fits.append(fit)
        calls.update(passes=0, psi=0)
        stack_fits(*fits)
        assert calls == {"passes": 0, "psi": 0}

    def test_mismatched_sizes_rejected(self, laplace_mediation_data):
        data = laplace_mediation_data
        med = fit_ols(build_design(data, ModelSpec(response="M", treatment="T")), data.column("M"))
        small = dataset_from_arrays(
            T=data.column("T")[:50], M=data.column("M")[:50], Y=data.column("Y")[:50]
        )
        out = fit_ols(build_design(small, ModelSpec(response="Y", treatment="T", mediator="M")), small.column("Y"))
        with pytest.raises(InferenceError, match="sample sizes"):
            stack_fits(med, out)
        with pytest.raises(InferenceError, match="sample sizes"):
            stack_fits()


def hand_stack(theta, cov):
    """A StackedFit with the given estimate and covariance; A and B are unused by the maps."""
    theta = np.asarray(theta, dtype=float)
    eye = np.eye(theta.size)
    return StackedFit(theta, eye, eye, np.asarray(cov, dtype=float))


class TestMapIntervals:
    def test_zero_covariance_degenerate(self):
        stacked = hand_stack([1.0, -2.0, 3.0, 0.5], np.zeros((4, 4)))
        est = map_intervals(stacked, [0, 1, 2], lambda v: v, ("a", "b", "c"))
        assert np.array_equal(est.ci_lower, est.values)
        assert np.array_equal(est.ci_upper, est.values)
        assert np.all(np.isnan(est.p_values))

    def test_scalar_arithmetic(self):
        est = map_intervals(hand_stack([0.25], [[0.25]]), [0], lambda v: 4.0 * v, ("x",))
        assert est.values[0] == 1.0
        assert est.cov[0, 0] == 4.0
        assert est.ci_upper[0] - est.values[0] == pytest.approx(Z95 * 2.0, abs=1e-9)
        assert est.ci_lower[0] == pytest.approx(1.0 - 3.9199, abs=1e-4)

    def test_negative_variance_raises(self):
        with pytest.raises(InferenceError, match="covariance"):
            map_intervals(hand_stack([0.0], [[-1.0]]), [0], lambda v: v, ("x",))

    def test_tiny_negative_clipped(self):
        est = map_intervals(hand_stack([0.0], [[-1e-13]]), [0], lambda v: v, ("x",))
        assert est.ci_lower[0] == est.ci_upper[0] == 0.0

    def test_p_values_are_two_sided_normal(self):
        theta, sigma = np.array([0.3, -1.2, 0.7]), np.array([0.2, 0.5, 0.0])
        est = map_intervals(hand_stack(theta, np.diag(sigma**2)), [0, 1, 2], lambda v: v, ("a", "b", "c"))
        expected = [math.erfc(abs(t) / (s * math.sqrt(2.0))) for t, s in zip(theta[:2], sigma[:2])]
        np.testing.assert_allclose(est.p_values[:2], expected, rtol=1e-14)
        assert math.isnan(est.p_values[2])

    def test_reads_only_the_positions_block(self):
        cov = np.diag([1.0, 4.0, 9.0])
        cov[0, 2] = cov[2, 0] = 2.0
        est = map_intervals(hand_stack([1.0, 2.0, 3.0], cov), [2, 0], lambda v: v, ("c", "a"))
        assert np.array_equal(est.values, [3.0, 1.0])
        assert np.array_equal(est.cov, [[9.0, 2.0], [2.0, 1.0]])

    def test_pipeline_matches_independent_delta_script(self, laplace_mediation_data):
        data = laplace_mediation_data
        res = mediate(data, "T", "M", "Y", covariates=("X1",), interaction=False, method="ols")
        eff = res.effects("ols")
        mr = res.methods["ols"]
        stacked = mr.stacked
        idx = _index_map(mr.mediator_fit.design, mr.outcome_fit.design)
        # independent recomputation from the stored stacked matrices
        b2, b3, g = stacked.theta[idx.beta2], stacked.theta[idx.beta3], stacked.theta[idx.gamma]
        values = np.array([b2 * g, b3, b3 + b2 * g])
        G = np.zeros((3, stacked.theta.size))
        G[0, idx.beta2] = g
        G[0, idx.gamma] = b2
        G[1, idx.beta3] = 1.0
        G[2, idx.beta2] = g
        G[2, idx.beta3] = 1.0
        G[2, idx.gamma] = b2
        cov_eff = G @ stacked.cov @ G.T
        se = np.sqrt(np.diag(cov_eff))
        assert np.allclose(eff.values, values, atol=1e-12)
        assert np.allclose(eff.ci_lower, values - Z95 * se, atol=1e-10)
        assert np.allclose(eff.ci_upper, values + Z95 * se, atol=1e-10)


class TestMediate:
    def test_no_interaction_has_three_effects(self, laplace_mediation_data):
        res = mediate(laplace_mediation_data, "T", "M", "Y", covariates=("X1",), interaction=False, method="ols")
        eff = res.effects("ols")
        assert eff.names == ("ACME", "ADE", "ATE")
        assert eff.values.shape == (3,)

    def test_interaction_has_five_effects_both_methods(self, laplace_mediation_data):
        res = mediate(laplace_mediation_data, "T", "M", "Y", covariates=("X1",), interaction=True, method="both")
        for method in ("ols", "semiparametric"):
            eff = res.effects(method)
            assert eff.names == ("ACME(0)", "ACME(1)", "ADE(0)", "ADE(1)", "ATE")
            assert np.all(eff.ci_lower <= eff.values) and np.all(eff.values <= eff.ci_upper)

    def test_each_model_fitted_by_least_squares_once(self, laplace_mediation_data, monkeypatch):
        # The semiparametric fits start from the OLS fits mediate already holds.
        calls = []
        real_fit_ols = estimators.fit_ols

        def counting_fit_ols(design, response):
            calls.append(design.p)
            return real_fit_ols(design, response)

        monkeypatch.setattr(inference, "fit_ols", counting_fit_ols)
        monkeypatch.setattr(estimators, "fit_ols", counting_fit_ols)
        res = mediate(laplace_mediation_data, "T", "M", "Y", covariates=("X1",), interaction=True, method="both")
        assert sorted(calls) == [3, 5]
        assert res.methods["semiparametric"].mediator_fit.method == "semiparametric"
        assert res.methods["semiparametric"].outcome_fit.method == "semiparametric"

    def test_decomposition_identity(self, laplace_mediation_data):
        res = mediate(laplace_mediation_data, "T", "M", "Y", covariates=("X1",), interaction=True, method="both")
        for method in ("ols", "semiparametric"):
            v = res.effects(method).values
            assert abs(v[4] - (v[1] + v[2])) <= 1e-12
            assert abs(v[4] - (v[0] + v[3])) <= 1e-12

    def test_xbar_is_the_mediator_designs_covariate_means(self):
        # Columns as strided views of one row-major matrix, as load_csv lays
        # them out, and covariates out of their column order.
        rng = np.random.default_rng(21)
        table = rng.standard_normal((200, 5)) + [0.0, 0.0, 0.0, 3.0, -7.0]
        table[:, 0] = rng.random(200) < 0.5
        data = dataset_from_arrays(**{name: table[:, j] for j, name in enumerate(("T", "M", "Y", "X1", "X2"))})
        res = mediate(data, "T", "M", "Y", covariates=("X2", "X1"), method="ols")
        design = build_design(data, ModelSpec(response="M", treatment="T", covariates=("X2", "X1")))
        assert res.xbar.tobytes() == design.column_means[2:].tobytes()
        assert res.xbar.tobytes() == res.methods["ols"].mediator_fit.design.column_means[2:].tobytes()

    def test_no_interaction_matches_g0_of_fitted_coefficients(self, laplace_mediation_data):
        res = mediate(laplace_mediation_data, "T", "M", "Y", covariates=("X1",), interaction=False, method="ols")
        mr = res.methods["ols"]
        idx = _index_map(mr.mediator_fit.design, mr.outcome_fit.design)
        theta0 = mr.stacked.theta[[idx.beta2, idx.beta3, idx.gamma]]
        assert np.array_equal(res.effects("ols").values, effect_map_g0(theta0))

    def test_interaction_p_value_reported(self, laplace_mediation_data):
        res = mediate(laplace_mediation_data, "T", "M", "Y", covariates=("X1",), interaction=True, method="ols")
        mr = res.methods["ols"]
        p = mr.interaction_p_value
        assert p is not None and 0.0 <= p <= 1.0
        idx = _index_map(mr.mediator_fit.design, mr.outcome_fit.design)
        eta, se = mr.stacked.theta[idx.eta], math.sqrt(mr.stacked.cov[idx.eta, idx.eta])
        assert p == math.erfc(abs(eta / se) / math.sqrt(2.0))

    def test_no_interaction_has_no_p_value(self, laplace_mediation_data):
        res = mediate(laplace_mediation_data, "T", "M", "Y", method="ols")
        assert res.methods["ols"].interaction_p_value is None

    def test_method_not_run_is_named(self, laplace_mediation_data):
        res = mediate(laplace_mediation_data, "T", "M", "Y", method="ols")
        with pytest.raises(InferenceError, match="'semiparametric' was not run; mediate ran ols"):
            res.effects("semiparametric")

    def test_null_configuration_covers_zero(self):
        # outcome unrelated to treatment and mediator: all effects near zero
        hits = np.zeros(5)
        seeds = range(40)
        for seed in seeds:
            rng = np.random.default_rng(1000 + seed)
            n = 400
            t = (rng.random(n) < 0.5).astype(float)
            m = 0.2 + 0.4 * t + rng.standard_normal(n)
            y = rng.standard_normal(n)
            data = dataset_from_arrays(T=t, M=m, Y=y)
            res = mediate(data, "T", "M", "Y", interaction=True, method="ols")
            eff = res.effects("ols")
            hits += (eff.ci_lower <= 0.0) & (0.0 <= eff.ci_upper)
        assert np.all(hits / len(seeds) >= 0.90)

    def test_scale_equivariance(self, laplace_mediation_data):
        res1 = mediate(laplace_mediation_data, "T", "M", "Y", covariates=("X1",), interaction=True, method="both")
        scaled = laplace_mediation_data.with_scaled_column("Y", 2.0)
        res2 = mediate(scaled, "T", "M", "Y", covariates=("X1",), interaction=True, method="both")
        for method, tol in (("ols", 1e-10), ("semiparametric", 1e-6)):
            e1, e2 = res1.effects(method), res2.effects(method)
            assert np.max(np.abs(2 * e1.values - e2.values) / np.maximum(1.0, np.abs(e2.values))) < tol
            assert np.max(np.abs(2 * e1.ci_lower - e2.ci_lower) / np.maximum(1.0, np.abs(e2.ci_lower))) < tol
            assert np.max(np.abs(2 * e1.ci_upper - e2.ci_upper) / np.maximum(1.0, np.abs(e2.ci_upper))) < tol

    @pytest.mark.parametrize("law", ERROR_LAWS)
    def test_outcome_units_scale_effects(self, law):
        # The outcome in other units gives the effects in those units, for
        # every simulated error law, including a factor that moves the
        # coefficients past 100.
        data = generate_interaction_dataset(ScenarioConfig(ErrorSpec(law), n=300, reps=1, seed=11), 0)
        base = mediate(data, "T", "M", "Y", interaction=True, method="both").effects("semiparametric")
        for c in (1e-4, 100.0):
            res = mediate(data.with_scaled_column("Y", c), "T", "M", "Y", interaction=True, method="both")
            np.testing.assert_allclose(res.effects("semiparametric").values, c * base.values, rtol=1e-12, atol=0.0)

    def test_effect_covariance_symmetric_psd(self, laplace_mediation_data):
        res = mediate(laplace_mediation_data, "T", "M", "Y", covariates=("X1",), interaction=True, method="both")
        for method in ("ols", "semiparametric"):
            cov = res.effects(method).cov
            assert np.array_equal(cov, cov.T)
            eig = np.linalg.eigvalsh(cov)
            assert eig.min() > -1e-10

    def test_cross_equation_stacking_matters(self, laplace_mediation_data):
        res = mediate(laplace_mediation_data, "T", "M", "Y", covariates=("X1",), interaction=True, method="ols")
        mr = res.methods["ols"]
        stacked = mr.stacked
        d1 = mr.mediator_fit.design.p + 1
        B0 = stacked.B.copy()
        B0[:d1, d1:] = 0.0
        B0[d1:, :d1] = 0.0
        cov0 = sandwich_covariance(stacked.A, B0, res.n)
        independent = StackedFit(stacked.theta, stacked.A, B0, cov0)
        idx = _index_map(mr.mediator_fit.design, mr.outcome_fit.design)
        eff0 = effects_from_stacked(independent, idx, res.xbar)
        assert np.max(np.abs(eff0.ci_length - res.effects("ols").ci_length)) > 1e-4

    def test_failure_surfaces_without_exception(self):
        n = 14
        t = np.array([0.0, 1.0] * 7)
        y = 1e8 * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        m = 0.2 + 0.4 * t + np.linspace(-1, 1, n)
        data = dataset_from_arrays(T=t, M=m, Y=y)
        res = mediate(data, "T", "M", "Y", interaction=False, method="both")
        assert res.methods["semiparametric"].failed
        assert len(res.methods["semiparametric"].outcome_fit.reasons) == 5  # one per start
        with pytest.raises(InferenceError, match="failed"):
            res.effects("semiparametric")
        assert res.effects("ols") is not None

    def test_unknown_method_rejected(self, laplace_mediation_data):
        for method in ("bogus", "semiparametric"):
            with pytest.raises(InferenceError, match="unknown method"):
                mediate(laplace_mediation_data, "T", "M", "Y", method=method)


def simulated_replicate(law, index, interaction):
    """n = 300 rows from the simulated model that is fitted, plus an unrelated covariate X1.

    Without interaction the data come from the same model with eta = 0.
    """
    config = ScenarioConfig(ErrorSpec(law), n=300, reps=1, seed=31)
    if not interaction:
        config = dataclasses.replace(config, dgp=dataclasses.replace(config.dgp, eta=0.0))
    data = generate_interaction_dataset(config, index)
    x1 = np.random.default_rng(index).standard_normal(data.n)
    return dataset_from_arrays(T=data.column("T"), M=data.column("M"), Y=data.column("Y"), X1=x1)


def assert_relative(actual, expected, rtol=1e-10):
    """Agreement to ``rtol`` relative to the largest entry of ``expected``."""
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=rtol * np.max(np.abs(expected)))


replicates = st.tuples(st.sampled_from(ERROR_LAWS), st.integers(0, 10**6), st.booleans())
# Its semiparametric mediator fit ends every start on the iteration cap, on the
# data as drawn and with the treatment recoded alike.
FAILING_REPLICATE = ("skew_normal", 21019, False)


def compared_methods(res, res_changed):
    """OLS always; the semiparametric fit only where it succeeded on the original data.

    There the changed data must fit too: the reasons of a failed fit are
    reported by the assertion, never raised as an ``InferenceError``.
    """
    if res.methods["semiparametric"].failed:
        return ("ols",)
    changed = res_changed.methods["semiparametric"]
    fits = (changed.mediator_fit, changed.outcome_fit)
    assert not changed.failed, [fit.reasons for fit in fits if isinstance(fit, FitFailure)]
    return ("ols", "semiparametric")


class TestEquivariance:
    """Recoding the treatment or shifting a covariate moves the effects as the model says."""

    @settings(max_examples=8, deadline=None)
    @example(replicate=FAILING_REPLICATE)
    @given(replicate=replicates)
    def test_treatment_recoding_permutes_and_negates(self, replicate):
        law, index, interaction = replicate
        data = simulated_replicate(law, index, interaction)
        recoded = dataset_from_arrays(**{**data.columns, "T": 1.0 - data.column("T")})
        # ACME(t) of the recoded treatment is -ACME(1 - t), and likewise ADE.
        order = [1, 0, 3, 2, 4] if interaction else [0, 1, 2]
        res = mediate(data, "T", "M", "Y", covariates=("X1",), interaction=interaction)
        res_recoded = mediate(recoded, "T", "M", "Y", covariates=("X1",), interaction=interaction)
        for method in compared_methods(res, res_recoded):
            e, r = res.effects(method), res_recoded.effects(method)
            assert_relative(r.values, -e.values[order])
            assert_relative(r.ci_length, e.ci_length[order])

    @settings(max_examples=8, deadline=None)
    @example(replicate=FAILING_REPLICATE, shift=3.0)
    @given(replicate=replicates, shift=st.floats(-10.0, 10.0))
    def test_covariate_shift_leaves_effects(self, replicate, shift):
        law, index, interaction = replicate
        data = simulated_replicate(law, index, interaction)
        shifted = dataset_from_arrays(**{**data.columns, "X1": data.column("X1") + shift})
        res = mediate(data, "T", "M", "Y", covariates=("X1",), interaction=interaction)
        res_shifted = mediate(shifted, "T", "M", "Y", covariates=("X1",), interaction=interaction)
        for method in compared_methods(res, res_shifted):
            e, r = res.effects(method), res_shifted.effects(method)
            assert_relative(r.values, e.values)
            assert_relative(r.ci_length, e.ci_length)


def near_collinear_data(delta):
    """Mediation data with two covariates, X2 = X1 + delta * z: collinear at delta = 0."""
    rng = np.random.default_rng(8)
    n = 200
    t = (rng.random(n) < 0.5).astype(float)
    x1 = rng.standard_normal(n)
    z = rng.standard_normal(n)
    m = 0.3 + 0.5 * t + 0.2 * x1 + rng.standard_normal(n)
    y = 0.1 + 0.4 * t - 0.6 * m + 0.3 * x1 + rng.standard_normal(n)
    return dataset_from_arrays(T=t, M=m, Y=y, X1=x1, X2=x1 + delta * z)


class TestDesignConditioning:
    """Whether a design can be fitted is decided once, by the least-squares fit."""

    @settings(max_examples=60, deadline=None)
    @example(delta=0.0)
    @example(delta=1e-6)
    @given(delta=st.floats(min_value=0.0, max_value=1.0))
    def test_ols_rejects_or_returns_finite_intervals(self, delta):
        try:
            res = mediate(near_collinear_data(delta), "T", "M", "Y", covariates=("X1", "X2"), method="ols")
        except EstimationError as exc:
            assert "rank-deficient or ill-conditioned" in str(exc)
            return
        eff = res.effects("ols")
        assert np.all(np.isfinite(eff.ci_lower)) and np.all(np.isfinite(eff.ci_upper))

    def test_semiparametric_rejected_before_any_kernel_pass(self, monkeypatch):
        calls = []
        real_psi = estimators.semiparam_psi

        def counting_psi(*args):
            calls.append(1)
            return real_psi(*args)

        monkeypatch.setattr(estimators, "semiparam_psi", counting_psi)
        data = near_collinear_data(1e-6)
        with pytest.raises(EstimationError, match="rcond="):
            mediate(data, "T", "M", "Y", covariates=("X1", "X2"), interaction=True, method="both")
        assert calls == []

