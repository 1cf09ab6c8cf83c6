"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints one line ``ACCEPTANCE <k>: PASS|FAIL|SKIP`` (run pytest with
``-s`` to see the lines as they happen). The Monte Carlo criteria share
session-scoped 1000-replicate runs; the suite takes about 37 s of wall time
on a 2-vCPU VM with Python 3.11 and numpy 2.4.

Criterion 3 needs the public uis and jobs CSV files. They are not bundled;
place them under ./data (or point SEMIMEDIATION_DATA at a directory) with
scripts/fetch_data.py, otherwise that criterion reports SKIP.
"""

import csv
import os
from pathlib import Path

import numpy as np
import pytest

from semimediation.data import ModelSpec, build_design, dataset_from_arrays, load_csv
from semimediation.estimators import fit_ols
from semimediation.inference import (
    INTERACTION_EFFECTS,
    effect_map_g0,
    effect_map_g1,
    jacobian_g0,
    jacobian_g1,
    mediate,
    stack_fits,
)
from semimediation.simulation import (
    ASYMMETRIC_MIXTURE,
    GAUSSIAN,
    SKEW_NORMAL,
    SYMMETRIC_BIMODAL,
    ErrorSpec,
    ScenarioConfig,
    power_config,
    run_power_study,
    run_scenario,
    write_metrics_csv,
    write_replicate_csv,
)

SEED = 20250809
N_SIM = 300
REPS = 1000
WORKERS = 8

DATA_DIR = Path(os.environ.get("SEMIMEDIATION_DATA", Path(__file__).resolve().parent.parent / "data"))

# Published benchmark rows the OLS pipeline must reproduce.
TABLE1_GAUSSIAN_OLS = {
    # effect: (rmse, coverage, avg_length)
    "ACME(0)": (0.1003, 0.9440, 0.3853),
    "ACME(1)": (0.0412, 0.9170, 0.1588),
    "ADE(0)": (0.1524, 0.9400, 0.5688),
    "ADE(1)": (0.1492, 0.9470, 0.5696),
    "ATE": (0.1412, 0.9380, 0.5233),
}

UIS_OLS_ROWS = {
    # effect: (estimate, ci_lower, ci_upper)
    "ACME(0)": (-0.3209, -0.4583, -0.1835),
    "ACME(1)": (-0.4626, -0.6677, -0.2575),
    "ADE(0)": (0.9353, 0.6484, 1.2222),
    "ADE(1)": (0.7936, 0.4940, 1.0932),
    "ATE": (0.4727, 0.1479, 0.7974),
}

JOBS_OLS_ROWS = {
    "ACME(0)": (-0.0198, -0.0495, 0.0100),
    "ACME(1)": (-0.0140, -0.0360, 0.0079),
    "ADE(0)": (-0.0420, -0.1286, 0.0447),
    "ADE(1)": (-0.0362, -0.1219, 0.0494),
    "ATE": (-0.0560, -0.1460, 0.0340),
}


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def rows_by_effect(rows, method):
    return {r.effect: r for r in rows if r.method == method}


@pytest.fixture(scope="session")
def scenario_runs():
    runs = {}
    for law in (GAUSSIAN, SKEW_NORMAL, ASYMMETRIC_MIXTURE, SYMMETRIC_BIMODAL):
        cfg = ScenarioConfig(ErrorSpec(law), n=N_SIM, reps=REPS, seed=SEED)
        runs[law] = run_scenario(cfg, workers=WORKERS)
    return runs


@pytest.fixture(scope="session")
def power_run():
    return run_power_study(power_config(reps=REPS, seed=SEED), workers=WORKERS)


def test_criterion_1_effect_map_exactness():
    main = effect_map_g1(np.array([0.2, 0.4, 0.5, -0.8, 1.0]), np.empty(0))
    power = effect_map_g1(np.array([0.2, 0.26, 0.5, -0.26, 0.8]), np.empty(0))
    expected = np.array([-0.32, 0.08, 0.70, 1.10, 0.78])
    ok = np.max(np.abs(main - expected)) <= 1e-12 and abs(power[0] - (-0.0676)) <= 1e-12
    report(1, ok, f"main design {main.round(12).tolist()}, power ACME(0) {power[0]:.12f}")


def test_criterion_2_jacobians_match_finite_differences():
    rng = np.random.default_rng(2)

    def central(fn, x, step=1e-6):
        f0 = fn(x)
        J = np.empty((f0.size, x.size))
        for j in range(x.size):
            hi, lo = x.copy(), x.copy()
            hi[j] += step
            lo[j] -= step
            J[:, j] = (fn(hi) - fn(lo)) / (2 * step)
        return J

    worst = 0.0
    n_points = 0
    for _ in range(25):
        theta = rng.uniform(-3, 3, 3)
        err = np.max(np.abs(jacobian_g0(theta) - central(effect_map_g0, theta)))
        worst = max(worst, err / max(1.0, np.max(np.abs(jacobian_g0(theta)))))
        n_points += 1
    for q in (0, 1, 3):
        for _ in range(25):
            theta1 = rng.uniform(-3, 3, 5 + q)
            xbar = rng.uniform(-2, 2, q)
            J = jacobian_g1(theta1, xbar)
            err = np.max(np.abs(J - central(lambda v: effect_map_g1(v, xbar), theta1)))
            worst = max(worst, err / max(1.0, np.max(np.abs(J))))
            n_points += 1
    ok = n_points == 100 and worst <= 1e-6
    report(2, ok, f"{n_points} random points (covariate dims 0/1/3), worst relative error {worst:.2e}")


def _check_application(path, rows_expected, treatment, mediator, outcome, covariates, scale):
    data = load_csv(str(path), columns=[treatment, mediator, outcome, *covariates])
    if scale is not None:
        data = data.with_scaled_column(outcome, scale)
    res = mediate(data, treatment, mediator, outcome, covariates=covariates, interaction=True, method="both")
    ols = res.effects("ols")
    failures = []
    for i, name in enumerate(ols.names):
        est, lo, hi = rows_expected[name]
        for got, want, tag in ((ols.values[i], est, "est"), (ols.ci_lower[i], lo, "lo"), (ols.ci_upper[i], hi, "hi")):
            if abs(got - want) > 1e-3:
                failures.append(f"{name} {tag}: {got:.4f} vs {want:.4f}")
    semi_ok = not res.methods["semiparametric"].failed
    if semi_ok:
        semi = res.effects("semiparametric")
        for name in ("ACME(0)", "ACME(1)"):
            i = list(ols.names).index(name)
            if not semi.ci_length[i] < ols.ci_length[i]:
                failures.append(f"{name}: semiparametric CI not shorter")
            if np.sign(semi.values[i]) != np.sign(ols.values[i]):
                failures.append(f"{name}: sign disagreement")
    else:
        failures.append("semiparametric fit flagged failure")
    return failures, res


def test_criterion_3_application_reproduction():
    uis, jobs = DATA_DIR / "uis.csv", DATA_DIR / "jobs.csv"
    if not (uis.exists() and jobs.exists()):
        print(f"\nACCEPTANCE 3: SKIP - dataset files not found under {DATA_DIR} (see scripts/fetch_data.py)", flush=True)
        pytest.skip(f"uis.csv/jobs.csv not found under {DATA_DIR}")
    failures, _ = _check_application(uis, UIS_OLS_ROWS, "TREAT", "FRAC", "TIME", (), 0.01)
    jf, _ = _check_application(jobs, JOBS_OLS_ROWS, "treat", "job_seek", "depress2", ("econ_hard", "sex", "age"), None)
    failures += jf
    report(3, not failures, "OLS rows within 1e-3 and semiparametric ACME intervals sharper" if not failures else "; ".join(failures))


def test_criterion_4_table1_gaussian_ols(scenario_runs):
    rows = rows_by_effect(scenario_runs[GAUSSIAN][0], "ols")
    failures = []
    for effect, (rmse, cover, length) in TABLE1_GAUSSIAN_OLS.items():
        r = rows[effect]
        if abs(r.rmse - rmse) > 0.01:
            failures.append(f"{effect} rmse {r.rmse:.4f} vs {rmse}")
        if abs(r.coverage - cover) > 0.02:
            failures.append(f"{effect} coverage {r.coverage:.4f} vs {cover}")
        if abs(r.avg_length - length) > 0.02:
            failures.append(f"{effect} length {r.avg_length:.4f} vs {length}")
    detail = "all five OLS rows within tolerance" if not failures else "; ".join(failures)
    report(4, not failures, detail)


def test_criterion_5_gaussian_parity(scenario_runs):
    rows = scenario_runs[GAUSSIAN][0]
    ols = rows_by_effect(rows, "ols")
    semi = rows_by_effect(rows, "semiparametric")
    ratios = {e: abs(semi[e].rmse - ols[e].rmse) / ols[e].rmse for e in INTERACTION_EFFECTS}
    ok = all(v <= 0.15 for v in ratios.values())
    report(5, ok, "max RMSE deviation " + max(ratios, key=ratios.get) + f" {max(ratios.values()):.3f} (limit 0.15)")


def test_criterion_6_nongaussian_efficiency(scenario_runs):
    failures = []
    for law in (ASYMMETRIC_MIXTURE, SYMMETRIC_BIMODAL):
        ols = rows_by_effect(scenario_runs[law][0], "ols")
        semi = rows_by_effect(scenario_runs[law][0], "semiparametric")
        for e in INTERACTION_EFFECTS:
            if not semi[e].rmse < ols[e].rmse:
                failures.append(f"{law}/{e}: rmse {semi[e].rmse:.4f} !< {ols[e].rmse:.4f}")
            if not semi[e].avg_length < ols[e].avg_length:
                failures.append(f"{law}/{e}: length {semi[e].avg_length:.4f} !< {ols[e].avg_length:.4f}")
            if not (0.90 <= semi[e].coverage <= 0.97):
                failures.append(f"{law}/{e}: coverage {semi[e].coverage:.4f} outside [0.90, 0.97]")
    ols = rows_by_effect(scenario_runs[SKEW_NORMAL][0], "ols")
    semi = rows_by_effect(scenario_runs[SKEW_NORMAL][0], "semiparametric")
    if not (semi["ATE"].rmse < ols["ATE"].rmse and semi["ATE"].avg_length < ols["ATE"].avg_length):
        failures.append("skew_normal/ATE: inequalities not satisfied")
    report(6, not failures, "mixture and skew-normal directions hold" if not failures else "; ".join(failures))


def test_criterion_7_power_direction(power_run):
    ols = power_run.methods["ols"]
    semi = power_run.methods["semiparametric"]
    gap = semi.rejection_rate - ols.rejection_rate
    ratio = semi.avg_ci_length / ols.avg_ci_length
    ok = gap >= 0.30 and semi.avg_ci_length < 0.5 * ols.avg_ci_length
    report(
        7,
        ok,
        f"rejection {semi.rejection_rate:.3f} vs {ols.rejection_rate:.3f} (gap {gap:.3f} >= 0.30), "
        f"length ratio {ratio:.3f} < 0.5",
    )


def test_criterion_8_robustness_and_determinism(scenario_runs, tmp_path):
    failures = []
    # success rate over the 1000-replicate runs
    for law, (rows, _) in scenario_runs.items():
        for method in ("ols", "semiparametric"):
            rate = next(r.success_rate for r in rows if r.method == method)
            if rate < 0.99:
                failures.append(f"{law}/{method}: success rate {rate:.4f} < 0.99")
    # byte-identical metrics under different worker counts
    cfg = ScenarioConfig(ErrorSpec(GAUSSIAN), n=N_SIM, reps=40, seed=SEED + 1)
    blobs = []
    for workers in (1, 4, 8):
        rows, _ = run_scenario(cfg, workers=workers)
        path = tmp_path / f"w{workers}.csv"
        write_metrics_csv(str(path), rows)
        blobs.append(path.read_bytes())
    if not (blobs[0] == blobs[1] == blobs[2]):
        failures.append("metrics CSVs differ across 1/4/8 workers")
    # decomposition identity on every produced estimate vector
    checked = 0
    for law, (_, results) in scenario_runs.items():
        for r in results:
            if not r.success:
                continue
            v = r.estimates
            if abs(v[4] - (v[1] + v[2])) > 1e-12 or abs(v[4] - (v[0] + v[3])) > 1e-12:
                failures.append(f"{law} replicate {r.replicate_index}/{r.method}: identity violated")
            checked += 1
    detail = f"success rates >= 0.99, worker determinism, identity on {checked} estimate vectors"
    report(8, not failures, detail if not failures else "; ".join(failures))


def test_criterion_9_oracle_suite(tmp_path):
    failures = []
    # OLS vs explicitly solved normal equations
    rng = np.random.default_rng(9)
    n = 150
    t = (rng.random(n) < 0.5).astype(float)
    x1 = rng.standard_normal(n)
    m = 0.3 + 0.5 * t + 0.2 * x1 + rng.laplace(0, 1 / np.sqrt(2), n)
    y = 0.1 + 0.4 * t - 0.6 * m + 0.8 * t * m + 0.3 * x1 + rng.laplace(0, 1 / np.sqrt(2), n)
    data = dataset_from_arrays(T=t, M=m, Y=y, X1=x1)
    med_design = build_design(data, ModelSpec(response="M", treatment="T", covariates=("X1",)))
    out_design = build_design(data, ModelSpec(response="Y", treatment="T", mediator="M", covariates=("X1",), interaction=True))
    med = fit_ols(med_design, m)
    out = fit_ols(out_design, y)
    for fit, design, resp in ((med, med_design, m), (out, out_design, y)):
        X = design.values
        oracle = np.linalg.solve(X.T @ X, X.T @ resp)
        if np.max(np.abs(fit.params.beta - oracle)) > 1e-10:
            failures.append("OLS coefficients deviate from normal-equations oracle")

    # stacked OLS sandwich vs explicit HC0 oracle
    stacked = stack_fits(med, out)
    for fit, design, resp, sl in (
        (med, med_design, m, slice(0, med_design.p)),
        (out, out_design, y, slice(med_design.p + 1, med_design.p + 1 + out_design.p)),
    ):
        X = design.values
        e = resp - X @ fit.params.beta
        bread = np.linalg.inv(X.T @ X)
        hc0 = bread @ (X.T * (e * e)) @ X @ bread
        if np.max(np.abs(stacked.cov[sl, sl] - hc0)) > 1e-8:
            failures.append("stacked coefficient covariance deviates from HC0 oracle")

    # metrics aggregation vs independent re-aggregation of the replicate log
    cfg = ScenarioConfig(ErrorSpec(GAUSSIAN), n=100, reps=30, seed=SEED + 2)
    rows, results = run_scenario(cfg, workers=4)
    log = tmp_path / "log.csv"
    write_replicate_csv(str(log), results)
    truth = dict(zip(INTERACTION_EFFECTS, cfg.dgp.truth()))
    groups: dict[tuple, list] = {}
    with open(log, newline="") as fh:
        for rec in csv.DictReader(fh):
            if rec["success"] == "1":
                groups.setdefault((rec["method"], rec["effect"]), []).append(
                    (float(rec["estimate"]), float(rec["ci_lo"]), float(rec["ci_hi"]))
                )
    for r in rows:
        est, lo, hi = (np.array(v) for v in zip(*groups[(r.method, r.effect)]))
        tr = truth[r.effect]
        agg = (
            float(est.mean() - tr),
            float(np.sqrt(np.mean((est - tr) ** 2))),
            float(np.mean((lo <= tr) & (tr <= hi))),
            float(np.mean(hi - lo)),
        )
        if agg != (r.bias, r.rmse, r.coverage, r.avg_length):
            failures.append(f"aggregation mismatch for {r.method}/{r.effect}")
    report(9, not failures, "normal equations 1e-10, HC0 1e-8, aggregation exact" if not failures else "; ".join(failures))
