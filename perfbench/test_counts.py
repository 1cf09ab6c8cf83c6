"""Tests of the benchmark itself; they run the real command, so each takes seconds.

    python3 -m pytest perfbench/test_counts.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def run(root: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180,
    )  # fmt: skip


def last_two_lines(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2].removeprefix("info: ")), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_machine_independent_counts_repeat_across_traced_runs(workload):
    runs = [run(ROOT, workload, seed=5, trace=1) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr[-3000:]
    (info_a, line_a), (info_b, _) = (last_two_lines(p) for p in runs)
    assert info_a["counts"] == info_b["counts"]
    assert set(info_a["counts"]) == set(tracing.COUNT_METRICS)
    assert line_a["correct"] and line_a["failed"] == 0
    for name, value in info_a["counts"].items():
        assert line_a["metrics"][name]["value"] == value
    fits = info_a["counts"]["estimators.fit_semiparametric.calls"]
    per_start = sum(info_a["counts"][f"estimators.fit_semiparametric.start_{i}"] for i in tracing.START_INDICES)
    assert per_start == fits - info_a["counts"]["estimators.fit_semiparametric.failures"]


def copy_tree(dest: Path, with_source: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_source:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))


def test_fails_without_the_program(tmp_path):
    copy_tree(tmp_path, with_source=False)
    proc = run(tmp_path, "mc_gate_n300", seed=1, trace=0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_output_check_failure_exits_nonzero(tmp_path):
    copy_tree(tmp_path, with_source=True)
    ref_path = tmp_path / "perfbench" / "reference.json"
    reference = json.loads(ref_path.read_text())
    reference["mc_gate_n300"]["power"][1] *= 1.01
    ref_path.write_text(json.dumps(reference))
    proc = run(tmp_path, "mc_gate_n300", seed=1, trace=0)
    assert proc.returncode == 1
    _, line = last_two_lines(proc)
    assert line["correct"] is False and line["failed"] >= 1
