import dataclasses
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from semimediation import cli, inference
from semimediation.cli import emit_forest_svg, main
from semimediation.estimators import FitFailure
from semimediation.inference import EffectEstimates, mediate


@pytest.fixture(scope="module")
def mediation_csv(tmp_path_factory):
    rng = np.random.default_rng(99)
    n = 180
    t = (rng.random(n) < 0.5).astype(float)
    x1 = rng.standard_normal(n)
    m = 0.3 + 0.5 * t + 0.2 * x1 + rng.laplace(0.0, 1 / np.sqrt(2), n)
    y = 0.1 + 0.4 * t - 0.6 * m + 0.8 * t * m + 0.3 * x1 + rng.laplace(0.0, 1 / np.sqrt(2), n)
    path = tmp_path_factory.mktemp("data") / "study.csv"
    lines = ["T,M,Y,X1"]
    for i in range(n):
        lines.append(",".join(repr(float(v)) for v in (t[i], m[i], y[i], x1[i])))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def load_report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_strict_json(path):
    """The file parsed as strict JSON: NaN, Infinity and -Infinity are refused."""

    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=refuse)


def strip_timestamp(report):
    report = dict(report)
    report.pop("generated_at", None)
    return report


class TestMediateCommand:
    def test_both_methods_interaction(self, mediation_csv, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "mediate",
                "--data", str(mediation_csv),
                "--treatment", "T",
                "--mediator", "M",
                "--outcome", "Y",
                "--covariates", "X1",
                "--interaction",
                "--method", "both",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = load_report(out)
        assert set(report["effects"]) == {"ols", "semiparametric"}
        for method in ("ols", "semiparametric"):
            assert len(report["effects"][method]["effects"]) == 5
        assert report["schema_version"] == 2
        for method in ("ols", "semiparametric"):
            for model in ("mediator", "outcome"):
                assert isinstance(report["diagnostics"][method][model]["screened_reasons"], list)
        assert report["diagnostics"]["ols"]["interaction_p_value"] is not None

    def test_report_roundtrips_library_values_exactly(self, mediation_csv, tmp_path):
        out = tmp_path / "report.json"
        assert main(
            [
                "mediate", "--data", str(mediation_csv), "--treatment", "T", "--mediator", "M",
                "--outcome", "Y", "--covariates", "X1", "--interaction", "--method", "ols",
                "--out", str(out),
            ]
        ) == 0
        report = load_report(out)
        from semimediation.data import load_csv

        data = load_csv(str(mediation_csv), columns=["T", "M", "Y", "X1"])
        res = mediate(data, "T", "M", "Y", covariates=("X1",), interaction=True, method="ols")
        eff = res.effects("ols")
        got = report["effects"]["ols"]["effects"]
        for i, entry in enumerate(got):
            assert entry["estimate"] == eff.values[i]
            assert entry["ci_lower"] == eff.ci_lower[i]
            assert entry["ci_upper"] == eff.ci_upper[i]

    def test_ols_without_interaction_three_effects(self, mediation_csv, tmp_path):
        out = tmp_path / "report3.json"
        code = main(
            [
                "mediate", "--data", str(mediation_csv), "--treatment", "T", "--mediator", "M",
                "--outcome", "Y", "--method", "ols", "--out", str(out),
            ]
        )
        assert code == 0
        report = load_report(out)
        assert [e["name"] for e in report["effects"]["ols"]["effects"]] == ["ACME", "ADE", "ATE"]
        assert "semiparametric" not in report["effects"]

    def test_unknown_column_exits_2_without_output(self, mediation_csv, tmp_path):
        out = tmp_path / "never.json"
        code = main(
            [
                "mediate", "--data", str(mediation_csv), "--treatment", "T", "--mediator", "GHOST",
                "--outcome", "Y", "--out", str(out),
            ]
        )
        assert code == 2
        assert not out.exists()

    def test_over_long_field_in_unreferenced_column_exits_2(self, mediation_csv, tmp_path, capsys):
        lines = mediation_csv.read_text(encoding="utf-8").splitlines()
        lines[0] += ",NOTE"
        lines[1:] = [line + ",-" for line in lines[1:]]
        lines[5] = lines[5][:-1] + "x" * 200_000
        path = tmp_path / "long_note.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "never.json"
        code = main(
            [
                "mediate", "--data", str(path), "--treatment", "T", "--mediator", "M",
                "--outcome", "Y", "--method", "ols", "--out", str(out),
            ]
        )
        assert code == 2
        assert "long_note.csv:6: field larger than field limit" in capsys.readouterr().err
        assert not out.exists()

    def test_spaces_around_covariate_names_ignored(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 60
        t = (rng.random(n) < 0.5).astype(float)
        x1, x2 = rng.standard_normal(n), rng.standard_normal(n)
        m = 0.3 + 0.5 * t + 0.2 * x1 + rng.standard_normal(n)
        y = 0.1 + 0.4 * t - 0.6 * m + 0.3 * x2 + rng.standard_normal(n)
        path = tmp_path / "two_covariates.csv"
        rows = ["T,M,Y,X1,X2"] + [",".join(repr(float(v)) for v in row) for row in zip(t, m, y, x1, x2)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        reports = []
        for i, covariates in enumerate(["X1,X2", "X1, X2", " X1 , X2,"]):
            out = tmp_path / f"r{i}.json"
            code = main(
                [
                    "mediate", "--data", str(path), "--treatment", "T", "--mediator", "M",
                    "--outcome", "Y", "--covariates", covariates, "--method", "ols", "--out", str(out),
                ]
            )
            assert code == 0
            reports.append(strip_timestamp(load_report(out)))
        assert reports[0]["model"]["covariates"] == ["X1", "X2"]
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_spaces_around_role_names_ignored(self, mediation_csv, tmp_path):
        reports = []
        for i, (treatment, mediator, outcome) in enumerate([("T", "M", "Y"), (" T", "M ", " Y ")]):
            out = tmp_path / f"r{i}.json"
            code = main(
                [
                    "mediate", "--data", str(mediation_csv), "--treatment", treatment, "--mediator", mediator,
                    "--outcome", outcome, "--method", "ols", "--out", str(out),
                ]
            )
            assert code == 0
            reports.append(strip_timestamp(load_report(out)))
        assert reports[1]["model"]["treatment"] == "T"
        assert reports[1] == reports[0]

    def test_collinear_covariate_exits_2_naming_rcond(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        n = 60
        t = (rng.random(n) < 0.5).astype(float)
        x1 = rng.standard_normal(n)
        m = 0.3 + 0.5 * t + rng.standard_normal(n)
        y = 0.1 + 0.4 * t - 0.6 * m + rng.standard_normal(n)
        path = tmp_path / "collinear.csv"
        rows = ["T,M,Y,X1,X2"] + [",".join(repr(float(v)) for v in row) for row in zip(t, m, y, x1, 3.0 * x1)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "never.json"
        code = main(
            [
                "mediate", "--data", str(path), "--treatment", "T", "--mediator", "M",
                "--outcome", "Y", "--covariates", "X1,X2", "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "rank-deficient or ill-conditioned" in err and "rcond=" in err
        assert not out.exists()

    def test_missing_file_exits_1(self, tmp_path):
        code = main(
            [
                "mediate", "--data", str(tmp_path / "absent.csv"), "--treatment", "T",
                "--mediator", "M", "--outcome", "Y", "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 1

    def test_scale_outcome_flag(self, mediation_csv, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        base = [
            "mediate", "--data", str(mediation_csv), "--treatment", "T", "--mediator", "M",
            "--outcome", "Y", "--method", "ols",
        ]
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--scale-outcome", "0.01", "--out", str(out2)]) == 0
        e1 = load_report(out1)["effects"]["ols"]["effects"][0]["estimate"]
        e2 = load_report(out2)["effects"]["ols"]["effects"][0]["estimate"]
        assert e2 == pytest.approx(0.01 * e1, rel=1e-10)

    def test_semiparametric_failure_exits_3_with_ols_report(self, tmp_path):
        n = 14
        t = np.array([0.0, 1.0] * 7)
        m = 0.2 + 0.4 * t + np.linspace(-1, 1, n)
        y = 1e8 * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        path = tmp_path / "bad.csv"
        rows = ["T,M,Y"] + [",".join(repr(float(v)) for v in (t[i], m[i], y[i])) for i in range(n)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "bad.json"
        code = main(
            [
                "mediate", "--data", str(path), "--treatment", "T", "--mediator", "M",
                "--outcome", "Y", "--method", "both", "--out", str(out),
            ]
        )
        assert code == 3
        report = load_report(out)
        assert "ols" in report["effects"]
        assert "semiparametric" not in report["effects"]
        assert report["diagnostics"]["semiparametric"]["outcome"]["status"] == "numerical_failure"
        assert len(report["diagnostics"]["semiparametric"]["outcome"]["reasons"]) == 5
        assert report["warnings"]

    def test_undefined_interaction_p_value_written_as_null(self, mediation_csv, tmp_path, monkeypatch):
        # The p-value is NaN when the interaction's SE is 0.
        def nan_p_value(*args, **kwargs):
            res = mediate(*args, **kwargs)
            methods = {m: dataclasses.replace(mr, interaction_p_value=float("nan")) for m, mr in res.methods.items()}
            return dataclasses.replace(res, methods=methods)

        monkeypatch.setattr(cli, "mediate", nan_p_value)
        out = tmp_path / "nan.json"
        args = ["mediate", "--data", str(mediation_csv), "--treatment", "T", "--mediator", "M", "--outcome", "Y"]
        assert main(args + ["--interaction", "--method", "both", "--out", str(out)]) == 0
        report = load_strict_json(out)
        for method in ("ols", "semiparametric"):
            assert report["diagnostics"][method]["interaction_p_value"] is None

    def test_rerun_identical_except_timestamp(self, mediation_csv, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = [
            "mediate", "--data", str(mediation_csv), "--treatment", "T", "--mediator", "M",
            "--outcome", "Y", "--interaction", "--method", "both",
        ]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert strip_timestamp(load_report(out1)) == strip_timestamp(load_report(out2))

    def test_method_semi_reports_both_tables(self, mediation_csv, tmp_path):
        out = tmp_path / "semi.json"
        code = main(
            [
                "mediate", "--data", str(mediation_csv), "--treatment", "T", "--mediator", "M",
                "--outcome", "Y", "--interaction", "--method", "semi", "--out", str(out),
            ]
        )
        assert code == 0
        report = load_report(out)
        # least-squares results ride along as the documented fallback content
        assert set(report["effects"]) == {"ols", "semiparametric"}


class TestSimulateCommand:
    def test_metrics_structure_and_determinism(self, tmp_path):
        args = ["simulate", "--scenario", "gaussian", "--n", "100", "--reps", "6", "--seed", "1"]
        out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        log = tmp_path / "log.csv"
        assert main(args + ["--out", str(out1), "--log", str(log)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().splitlines()
        assert len(lines) == 11  # header + 2 methods x 5 effects
        assert lines[0] == "scenario,method,effect,bias,rmse,coverage,avg_length,success_rate,reps_used"
        assert log.exists()

    def test_unknown_scenario_exits_2(self, capsys, tmp_path):
        code = main(["simulate", "--scenario", "cauchy", "--n", "100", "--reps", "2", "--seed", "1"])
        assert code == 2
        err = capsys.readouterr().err
        for name in ("gaussian", "skewnormal", "asymmix", "symbimodal"):
            assert name in err


class TestPowerCommand:
    def test_single_replicate(self, tmp_path):
        out = tmp_path / "power.json"
        assert main(["power", "--reps", "1", "--seed", "7", "--out", str(out)]) == 0
        report = load_report(out)
        assert report["design"]["n"] == 220
        assert report["design"]["truth_acme0"] == pytest.approx(-0.0676, abs=1e-12)
        for method in ("ols", "semiparametric"):
            assert report["results"][method]["rejection_rate"] in (0.0, 1.0)
        assert report["paper_reference"]["ols_avg_length"] == 0.1781

    def test_method_without_successes_written_as_null(self, tmp_path, monkeypatch):
        # No semiparametric replicate succeeds, so its rate, mean and length
        # are undefined; the report stays strict JSON.
        monkeypatch.setattr(inference, "fit_semiparametric", lambda ols: FitFailure(("stub",)))
        out = tmp_path / "power.json"
        assert main(["power", "--reps", "3", "--seed", "7", "--out", str(out)]) == 0
        results = load_strict_json(out)["results"]
        assert results["semiparametric"] == {
            "rejection_rate": None,
            "mean_estimate": None,
            "avg_ci_length": None,
            "success_rate": 0.0,
            "reps_used": 0,
        }
        assert results["ols"]["reps_used"] == 3

    def test_rerun_identical_except_timestamp(self, tmp_path):
        out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
        assert main(["power", "--reps", "2", "--seed", "5", "--out", str(out1)]) == 0
        assert main(["power", "--reps", "2", "--seed", "5", "--out", str(out2)]) == 0
        assert strip_timestamp(load_report(out1)) == strip_timestamp(load_report(out2))


class TestForestSvg:
    @staticmethod
    def estimates(kind="no_interaction"):
        if kind == "no_interaction":
            names = ("ACME", "ADE", "ATE")
            vals = np.array([-0.3, 0.9, 0.6])
        else:
            names = ("ACME(0)", "ACME(1)", "ADE(0)", "ADE(1)", "ATE")
            vals = np.array([-0.32, -0.46, 0.94, 0.79, 0.47])
        se = np.full(len(vals), 0.1)
        return EffectEstimates(
            kind=kind,
            names=names,
            values=vals,
            cov=np.diag(se**2),
            ci_lower=vals - 1.96 * se,
            ci_upper=vals + 1.96 * se,
        )

    def test_single_method_structure(self, tmp_path):
        path = tmp_path / "forest.svg"
        emit_forest_svg({"ols": self.estimates()}, str(path))
        root = ET.fromstring(path.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        circles = root.findall(f"{ns}circle")
        assert len(circles) == 3 + 1  # one per effect plus legend marker
        assert all(c.get("fill") == "white" for c in circles)

    def test_two_methods_dashed_and_solid(self, tmp_path):
        path = tmp_path / "forest2.svg"
        est = {"ols": self.estimates("interaction"), "semiparametric": self.estimates("interaction")}
        emit_forest_svg(est, str(path))
        text = path.read_text()
        root = ET.fromstring(text)
        ns = "{http://www.w3.org/2000/svg}"
        circles = root.findall(f"{ns}circle")
        assert len(circles) == 10 + 2  # 5 effects x 2 methods + 2 legend markers
        assert "stroke-dasharray" in text
        fills = {c.get("fill") for c in circles}
        assert fills == {"white", "black"}

    def test_zero_line_present(self, tmp_path):
        path = tmp_path / "forest3.svg"
        emit_forest_svg({"ols": self.estimates()}, str(path))
        root = ET.fromstring(path.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        grays = [l for l in root.findall(f"{ns}line") if l.get("stroke") == "#888888"]
        assert len(grays) == 1

    def test_byte_identical_output(self, tmp_path):
        p1, p2 = tmp_path / "f1.svg", tmp_path / "f2.svg"
        est = {"ols": self.estimates(), "semiparametric": self.estimates()}
        emit_forest_svg(est, str(p1))
        emit_forest_svg(est, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_estimates_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_forest_svg({}, str(tmp_path / "x.svg"))

    def test_plot_flag_writes_svg(self, mediation_csv, tmp_path):
        out = tmp_path / "r.json"
        plot = tmp_path / "r.svg"
        code = main(
            [
                "mediate", "--data", str(mediation_csv), "--treatment", "T", "--mediator", "M",
                "--outcome", "Y", "--interaction", "--method", "both",
                "--out", str(out), "--plot", str(plot),
            ]
        )
        assert code == 0
        assert plot.exists()
        ET.fromstring(plot.read_text())  # well-formed XML
