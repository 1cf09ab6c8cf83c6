"""Smoke tests that run the scripts under scripts/ as a user would."""

import csv
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from semimediation.simulation import ERROR_LAWS, METRICS_HEADER

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_run_simulations_writes_every_metrics_table(tmp_path):
    outdir = tmp_path / "results"
    proc = run_script("run_simulations.py", "--n", "30", "--reps", "2", "--outdir", str(outdir))
    assert proc.returncode == 0, proc.stderr
    names = [f"metrics_{law}.csv" for law in ERROR_LAWS] + ["metrics_all.csv"]
    assert sorted(p.name for p in outdir.iterdir()) == sorted(names)
    with open(outdir / "metrics_all.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == METRICS_HEADER
    # Four laws x two methods x five effects.
    assert len(rows) == 40


DIGEST_NAMES = sorted(
    [f"{kind}_{s}.csv" for s in ("gaussian", "skewnormal", "asymmix", "symbimodal") for kind in ("metrics", "replicates")]
    + ["report_no_interaction.json", "report_interaction.json", "report_scaled_failure.json", "power.json"]
)


def test_replicate_digests_keep_writes_what_it_hashes(tmp_path):
    keep = tmp_path / "kept"
    proc = run_script("replicate_digests.py", "--keep", str(keep))
    assert proc.returncode == 0, proc.stderr
    printed = dict(reversed(line.split("  ")) for line in proc.stdout.splitlines())
    assert sorted(printed) == DIGEST_NAMES
    for name, digest in printed.items():
        assert hashlib.sha256((keep / name).read_bytes()).hexdigest() == digest
    codes = json.loads((keep / "exit_codes.json").read_text())
    assert codes == {name: 3 if name == "report_scaled_failure.json" else 0 for name in DIGEST_NAMES}
    assert sorted(p.name for p in keep.iterdir()) == sorted(DIGEST_NAMES + ["exit_codes.json"])


def write_kept_dir(path, estimate=0.25, success="1", reason="start 1: condition number", codes=None):
    """A small hand-made --keep directory: one replicate CSV, one report, exit codes."""
    path.mkdir()
    rows = [
        "replicate,method,effect,estimate,ci_lo,ci_hi,success",
        f"0,ols,ACME(0),{estimate!r},0.125,0.5,1",
        f"0,semiparametric,ACME(0),nan,nan,nan,{success}",
    ]
    (path / "replicates_x.csv").write_text("\n".join(rows) + "\n")
    report = {"status": "numerical_failure", "start_index_used": None, "reasons": ["start 0: condition number", reason]}
    (path / "report.json").write_text(json.dumps(report, sort_keys=True))
    codes = codes or {"replicates_x.csv": 0, "report.json": 3}
    (path / "exit_codes.json").write_text(json.dumps(codes))
    return path


def compare_dirs(a, b):
    return run_script("replicate_digests.py", "--compare", str(a), str(b))


def test_replicate_digests_compare_identical_directories(tmp_path):
    proc = compare_dirs(write_kept_dir(tmp_path / "a"), write_kept_dir(tmp_path / "b"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["replicates_x.csv: no difference", "report.json: no difference"]


def test_replicate_digests_compare_reports_relative_size(tmp_path):
    a = write_kept_dir(tmp_path / "a")
    b = write_kept_dir(tmp_path / "b", estimate=0.25 * (1 + 1e-9))
    proc = compare_dirs(a, b)
    assert proc.returncode == 1
    assert "  max rel diff 1e-09 at row 1 (0,ols,ACME(0)).estimate" in proc.stdout.splitlines()
    assert "report.json: no difference" in proc.stdout


def test_replicate_digests_compare_names_flips_reasons_and_exit_codes(tmp_path):
    a = write_kept_dir(tmp_path / "a")
    b = write_kept_dir(tmp_path / "b", success="0", reason="start 1: maximum iterations reached", codes={"replicates_x.csv": 0, "report.json": 0})
    (b / "extra.csv").write_text("x\n1\n")
    proc = compare_dirs(a, b)
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert "  success flipped: row 2 (0,semiparametric,ACME(0)).success: '1' -> '0'" in lines
    assert "  changed: reasons[1]: 'start 1: condition number' -> 'start 1: maximum iterations reached'" in lines
    assert "  exit status: 3 -> 0" in lines
    assert lines[lines.index("extra.csv: differs") + 1] == "  missing in A"
    # NaN cells equal NaN cells: the flipped row reports no numeric difference.
    assert not any(line.startswith("  max") for line in lines)


def load_script(name):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned_run(call_ms, peak_mb, correct=True, attempted=40, samples=None):
    """The two lines a benchmark run prints last, as ``perfbench/run.py`` writes them.

    ``samples`` are the run's call times; by default three calls of ``call_ms``.
    """
    samples = [call_ms] * 3 if samples is None else samples
    info = json.dumps({"acme0_len_ratio": 0.48, "call_samples": len(samples), "call_ms": samples})
    metrics = {"call_ms_p50": {"value": call_ms, "unit": "ms"}, "peak_rss_mb": {"value": peak_mb, "unit": "MB"}}
    result = json.dumps({"correct": correct, "attempted": attempted, "failed": 0 if correct else attempted, "metrics": metrics})
    return f"info: {info}\n{result}\n"


def test_bench_pairs_summarizes_canned_runs():
    bench_pairs = load_script("bench_pairs.py")
    declared = [
        {"name": "call_ms_p50", "better": "lower"},
        {"name": "reps_per_s", "better": "higher"},
        {"name": "peak_rss_mb", "better": "lower"},
    ]
    parent = [canned_run(ms, 40.0) for ms in (100.0, 104.0, 101.0, 103.0, 102.0)]
    # One call of the change's second run is slow: its median stays put, its mean does not.
    slow = [95.0, 95.0, 95.0, 395.0]
    change = [canned_run(ms, mb) for ms, mb in ((90.0, 40.5), (95.0, 39.5), (105.0, 40.0), (93.0, 41.0), (92.0, 39.0))]
    change[1] = canned_run(95.0, 39.5, samples=slow)
    runs = {"parent": [bench_pairs.parse_run(s) for s in parent], "change": [bench_pairs.parse_run(s) for s in change]}
    summary = bench_pairs.summarize(runs, [7, 8, 9, 10, 11], declared)
    assert summary["all_runs_correct"] and summary["failed_total"] == 0
    assert summary["attempted"] == {"parent": [40] * 5, "change": [40] * 5}
    assert summary["seeds"] == [7, 8, 9, 10, 11]
    assert summary["acme0_len_ratio"]["change"] == [0.48] * 5
    # A metric the runs do not report is left out.
    assert sorted(summary["metrics"]) == ["call_ms_p50", "peak_rss_mb"]
    call = summary["metrics"]["call_ms_p50"]
    assert call["parent_runs"] == [100.0, 104.0, 101.0, 103.0, 102.0]
    assert call["parent_q25_median_q75"] == [101.0, 102.0, 103.0]
    assert call["change_q25_median_q75"] == [92.0, 93.0, 95.0]
    # Lower is better: pair 2 (101 -> 105) is the one the change loses.
    assert call["change_better_pairs"] == "4/5"
    assert call["median_change_rel"] == round((93.0 - 102.0) / 102.0, 4)
    # Ties count as not better.
    assert summary["metrics"]["peak_rss_mb"]["change_better_pairs"] == "2/5"
    mean = summary["call_ms_mean"]
    assert mean["parent_runs"] == [100.0, 104.0, 101.0, 103.0, 102.0]
    assert mean["change_runs"] == [90.0, 170.0, 105.0, 93.0, 92.0]
    assert mean["change_q25_median_q75"] == [92.0, 93.0, 105.0]
    # Runs without call samples leave the mean out.
    bare = {side: [dict(bench_pairs.parse_run(parent[0]), call_ms_mean=None)] for side in ("parent", "change")}
    assert "call_ms_mean" not in bench_pairs.summarize(bare, [7], declared)


def test_bench_pairs_flags_an_incorrect_run():
    bench_pairs = load_script("bench_pairs.py")
    runs = {side: [bench_pairs.parse_run(canned_run(100.0, 40.0, correct=side == "parent"))] for side in ("parent", "change")}
    summary = bench_pairs.summarize(runs, [1], [{"name": "call_ms_p50", "better": "lower"}])
    assert not summary["all_runs_correct"]
    assert summary["failed_total"] == 40
    with pytest.raises(ValueError, match="one run per seed"):
        bench_pairs.summarize(runs, [1, 2], [])


def test_bench_kernel_scaling_records_a_small_fit(tmp_path):
    out = tmp_path / "scaling.json"
    proc = run_script("bench_kernel_scaling.py", "--n", "200", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    [record] = json.loads(out.read_text())["runs"]
    assert record["n"] == 200
    assert record["kernel_passes"] > 0
    assert record["semiparametric_ok"]
    effects = [record[k] for k in ("semiparametric_estimates", "semiparametric_ci_lower", "semiparametric_ci_upper")]
    assert all(len(values) == 5 and all(math.isfinite(v) for v in values) for values in effects)
    assert proc.stdout.startswith("n=200: ")
    # A budget of 8000 bytes makes the pass take blocks of side 31; GEMM
    # sums may round differently, so the effects agree to rounding.
    small = tmp_path / "small_blocks.json"
    proc = run_script("bench_kernel_scaling.py", "--n", "200", "--block-bytes", "8000", "--out", str(small))
    assert proc.returncode == 0, proc.stderr
    [blocked] = json.loads(small.read_text())["runs"]
    assert blocked["block_bytes"] == 8000
    assert blocked["kernel_passes"] == record["kernel_passes"]
    np.testing.assert_allclose(blocked["semiparametric_estimates"], record["semiparametric_estimates"], rtol=1e-10)


def test_memory_stages_reports_each_stage_of_a_small_run(tmp_path):
    out = tmp_path / "stages.json"
    proc = run_script("memory_stages.py", "--n", "2000", "--row-block-bytes", "4096", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert record["exit_status"] == 0 and record["n"] == 2000
    assert record["row_block_bytes"] == 4096
    stages = record["stages"]
    assert [s["stage"] for s in stages] == [
        "load_csv", "build_design", "build_design", "fit_ols", "fit_ols", "stack_fits", "build_mediate_report", "end",
    ]  # fmt: skip
    assert all(s["traced_peak_mib"] >= s["traced_live_mib"] > 0 for s in stages[:-1])
    maxrss = [s["ru_maxrss_mb"] for s in stages]
    assert maxrss == sorted(maxrss) and maxrss[0] > 0
    assert proc.stdout.split()[:5] == ["stage", "ms", "peak", "MiB", "live"]
    assert len(proc.stdout.splitlines()) == 1 + len(stages)


def test_code_lines_counts_code_alone(tmp_path):
    # Code lines: the import, the def, the two lines of the call and the
    # return. The docstrings, the comment and the blank lines do not count.
    source = tmp_path / "sample.py"
    source.write_text(
        '"""Module docstring\n'
        'over two lines."""\n'
        "\n"
        "import math\n"
        "\n"
        "\n"
        "def f(x):\n"
        '    """Function docstring."""\n'
        "    # A comment.\n"
        "    y = math.hypot(x,\n"
        "                   1.0)  # a trailing comment\n"
        "    return y\n"
    )
    empty = tmp_path / "empty.py"
    empty.write_text("# only a comment\n\n")
    proc = run_script("code_lines.py", str(source), str(empty))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"5  {source}", f"0  {empty}", "5  total"]
