import csv
import dataclasses

import numpy as np
import pytest

import semimediation.simulation as sim
from semimediation.estimators import EstimationError
from semimediation.simulation import (
    DgpConstants,
    ErrorSpec,
    ScenarioConfig,
    aggregate_metrics,
    generate_interaction_dataset,
    power_config,
    run_power_study,
    run_replicates,
    run_scenario,
    sample_error,
    stream_rng,
    write_metrics_csv,
    write_replicate_csv,
)

# analytic skewness of the standardized skew-normal with shape 5:
# ((4-pi)/2) (d sqrt(2/pi))^3 / (1 - 2 d^2/pi)^(3/2), d = 5/sqrt(26)
SKEW_NORMAL_SKEWNESS = 0.8509650126313714


def skewness(x):
    c = x - x.mean()
    return np.mean(c**3) / np.mean(c**2) ** 1.5


class TestSampleError:
    @pytest.mark.parametrize("law", sim.ERROR_LAWS)
    def test_standardized(self, law):
        rng = np.random.default_rng(123)
        x = sample_error(ErrorSpec(law), rng, 1_000_000)
        assert abs(x.mean()) < 0.01
        assert abs(x.var() - 1.0) < 0.01

    def test_skew_normal_skewness_matches_analytic(self):
        rng = np.random.default_rng(7)
        x = sample_error(ErrorSpec(sim.SKEW_NORMAL), rng, 1_000_000)
        assert abs(skewness(x) - SKEW_NORMAL_SKEWNESS) < 0.05

    def test_symmetric_bimodal_skewness_zero(self):
        rng = np.random.default_rng(8)
        x = sample_error(ErrorSpec(sim.SYMMETRIC_BIMODAL), rng, 1_000_000)
        assert abs(skewness(x)) < 0.01

    def test_unknown_law_rejected(self):
        with pytest.raises(ValueError, match="unknown error law"):
            ErrorSpec("cauchy")

    def test_asymmetric_mixture_weights(self):
        rng = np.random.default_rng(9)
        x = sample_error(ErrorSpec(sim.ASYMMETRIC_MIXTURE), rng, 200_000)
        # upper component sits near 2.7/sqrt(1.06) ~ 2.62; mass above 1.5 ~ 10%
        assert abs(np.mean(x > 1.5) - 0.1) < 0.01


class TestGenerateDataset:
    def test_zero_noise_limb(self, monkeypatch):
        monkeypatch.setattr(sim, "sample_error", lambda spec, rng, count: np.zeros(count))
        cfg = ScenarioConfig(ErrorSpec(sim.GAUSSIAN), n=50, reps=1, seed=3)
        data = generate_interaction_dataset(cfg, 0)
        t, m, y = data.column("T"), data.column("M"), data.column("Y")
        assert np.array_equal(m, 0.2 + 0.4 * t)
        assert np.array_equal(y, 0.5 * t - 0.8 * m + t * m)

    def test_mediator_mean_under_treatment(self):
        cfg = ScenarioConfig(ErrorSpec(sim.GAUSSIAN), n=1_000_000, reps=1, seed=4)
        data = generate_interaction_dataset(cfg, 0)
        t, m = data.column("T"), data.column("M")
        assert abs(m[t == 1].mean() - 0.6) < 0.01

    def test_difference_in_means_ate(self):
        cfg = ScenarioConfig(ErrorSpec(sim.GAUSSIAN), n=1_000_000, reps=1, seed=5)
        data = generate_interaction_dataset(cfg, 0)
        t, y = data.column("T"), data.column("Y")
        ate = y[t == 1].mean() - y[t == 0].mean()
        assert abs(ate - 0.78) < 0.01

    def test_streams_keyed_by_replicate(self):
        cfg = ScenarioConfig(ErrorSpec(sim.GAUSSIAN), n=100, reps=2, seed=6)
        a = generate_interaction_dataset(cfg, 0)
        b = generate_interaction_dataset(cfg, 1)
        assert not np.array_equal(a.column("Y"), b.column("Y"))
        again = generate_interaction_dataset(cfg, 0)
        assert np.array_equal(a.column("Y"), again.column("Y"))

    def test_stream_rng_pure_function(self):
        x = stream_rng(11, 3, 1).random(4)
        y = stream_rng(11, 3, 1).random(4)
        z = stream_rng(11, 3, 2).random(4)
        assert np.array_equal(x, y)
        assert not np.array_equal(x, z)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="n must be"):
            ScenarioConfig(ErrorSpec(sim.GAUSSIAN), n=10, reps=1, seed=0)
        with pytest.raises(ValueError, match="reps must be"):
            ScenarioConfig(ErrorSpec(sim.GAUSSIAN), n=50, reps=0, seed=0)


@pytest.fixture(scope="module")
def small_run():
    cfg = ScenarioConfig(ErrorSpec(sim.GAUSSIAN), n=120, reps=12, seed=21)
    rows, results = run_scenario(cfg, workers=1)
    return cfg, rows, results


class TestRunScenario:
    def test_row_structure(self, small_run):
        _, rows, _ = small_run
        assert len(rows) == 10  # 2 methods x 5 effects
        assert {r.method for r in rows} == {"ols", "semiparametric"}

    def test_rmse_dominates_bias(self, small_run):
        _, rows, _ = small_run
        for r in rows:
            assert r.rmse >= abs(r.bias) - 1e-12

    def test_single_replicate_degenerate_metrics(self):
        cfg = ScenarioConfig(ErrorSpec(sim.GAUSSIAN), n=80, reps=1, seed=33)
        rows, results = run_scenario(cfg, workers=1)
        truth = cfg.dgp.truth()
        for r in rows:
            assert r.coverage in (0.0, 1.0)
        est = next(x for x in results if x.method == "ols").estimates
        bias_row = next(r for r in rows if r.method == "ols" and r.effect == "ACME(0)")
        assert bias_row.bias == pytest.approx(est[0] - truth[0], abs=1e-14)

    def test_worker_counts_bit_identical(self, tmp_path, small_run):
        cfg, rows1, _ = small_run
        paths = []
        for workers in (1, 4, 8):
            rows, _ = run_scenario(cfg, workers=workers)
            path = tmp_path / f"metrics_w{workers}.csv"
            write_metrics_csv(str(path), rows)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1] == paths[2]

    def test_metrics_match_independent_aggregation(self, tmp_path):
        cfg = ScenarioConfig(ErrorSpec(sim.SYMMETRIC_BIMODAL), n=100, reps=50, seed=2)
        rows, results = run_scenario(cfg, workers=4)
        log_path = tmp_path / "replicates.csv"
        write_replicate_csv(str(log_path), results)

        truth = dict(zip(sim.INTERACTION_EFFECTS, cfg.dgp.truth()))
        by_key: dict[tuple, list] = {}
        with open(log_path, newline="") as fh:
            for rec in csv.DictReader(fh):
                if rec["success"] != "1":
                    continue
                key = (rec["method"], rec["effect"])
                by_key.setdefault(key, []).append(
                    (float(rec["estimate"]), float(rec["ci_lo"]), float(rec["ci_hi"]))
                )
        for r in rows:
            entries = by_key[(r.method, r.effect)]
            est = np.array([e[0] for e in entries])
            lo = np.array([e[1] for e in entries])
            hi = np.array([e[2] for e in entries])
            t = truth[r.effect]
            assert r.reps_used == len(entries)
            assert r.bias == float(est.mean() - t)
            assert r.rmse == float(np.sqrt(np.mean((est - t) ** 2)))
            assert r.coverage == float(np.mean((lo <= t) & (t <= hi)))
            assert r.avg_length == float(np.mean(hi - lo))

    def test_metrics_csv_roundtrip(self, tmp_path, small_run):
        _, rows, _ = small_run
        path = tmp_path / "metrics.csv"
        write_metrics_csv(str(path), rows)
        with open(path, newline="", encoding="utf-8") as fh:
            header, *records = csv.reader(fh)
        assert header == ["scenario", "method", "effect", "bias", "rmse", "coverage", "avg_length", "success_rate", "reps_used"]
        assert len(records) == len(rows)
        for record, row in zip(records, rows):
            fields = dataclasses.astuple(row)
            assert record[:3] == list(fields[:3])
            assert [float(cell) for cell in record[3:]] == list(fields[3:])

    def test_failed_replicates_counted_not_dropped(self):
        results = [
            sim.ReplicateResult(0, "ols", True, np.ones(5), np.zeros(5), np.full(5, 2.0)),
            sim.ReplicateResult(1, "ols", False, np.full(5, np.nan), np.full(5, np.nan), np.full(5, np.nan)),
        ]
        rows = aggregate_metrics("gaussian", results, np.ones(5), reps=2)
        assert rows[0].success_rate == 0.5
        assert rows[0].reps_used == 1
        assert rows[0].coverage == 1.0


class TestReplicateFailures:
    CONFIG = ScenarioConfig(ErrorSpec(sim.GAUSSIAN), n=60, reps=2, seed=4)

    def test_estimation_error_is_a_failed_replicate(self, monkeypatch):
        def failing_mediate(*args, **kwargs):
            raise EstimationError("degenerate density estimate")

        monkeypatch.setattr(sim, "mediate", failing_mediate)
        results = run_replicates(self.CONFIG)
        assert len(results) == 4
        assert not any(r.success for r in results)
        assert all(np.isnan(r.estimates).all() for r in results)

    def test_programming_error_propagates(self, monkeypatch):
        def buggy_mediate(*args, **kwargs):
            raise IndexError("index 3 is out of bounds")

        monkeypatch.setattr(sim, "mediate", buggy_mediate)
        with pytest.raises(IndexError):
            run_replicates(self.CONFIG)


class TestPowerStudy:
    def test_design_constants_echoed(self):
        cfg = power_config(reps=1, seed=9)
        assert cfg.n == 220
        assert cfg.dgp == DgpConstants(alpha2=0.2, beta2=0.26, beta3=0.5, gamma=-0.26, eta=0.8)
        assert cfg.error.law == sim.ASYMMETRIC_MIXTURE
        report = run_power_study(cfg)
        assert report.truth_acme0 == pytest.approx(-0.0676, abs=1e-12)

    def test_paper_reference_values_attached(self):
        report = run_power_study(power_config(reps=1, seed=10))
        ref = report.paper_reference
        assert ref["ols_rejection_rate"] == 0.183
        assert ref["ols_avg_length"] == 0.1781
        assert ref["semiparametric_avg_length"] == 0.0439

    def test_single_replicate_rates_binary(self):
        report = run_power_study(power_config(reps=1, seed=11))
        for s in report.methods.values():
            assert s.rejection_rate in (0.0, 1.0)

    def test_large_effect_rejected_by_both(self):
        dgp = DgpConstants(alpha2=0.2, beta2=1.0, beta3=0.5, gamma=-1.0, eta=0.8)
        cfg = dataclasses.replace(power_config(reps=60, seed=12), dgp=dgp)
        report = run_power_study(cfg, workers=4)
        assert report.truth_acme0 == -1.0
        for s in report.methods.values():
            assert s.rejection_rate >= 0.99


def test_replicate_log_columns(tmp_path):
    cfg = ScenarioConfig(ErrorSpec(sim.GAUSSIAN), n=80, reps=2, seed=1)
    results = run_replicates(cfg, workers=1)
    path = tmp_path / "log.csv"
    write_replicate_csv(str(path), results)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
    assert header == ["replicate", "method", "effect", "estimate", "ci_lo", "ci_hi", "success"]
