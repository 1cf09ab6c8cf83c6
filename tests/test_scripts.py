"""Smoke tests that run the scripts under scripts/ as a user would."""

import csv
import os
import subprocess
import sys
from pathlib import Path

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
