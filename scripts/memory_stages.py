#!/usr/bin/env python3
"""Traced peak and resident-set high-water mark of each stage of one OLS command-line run.

The script writes an n-row CSV in the layout of the benchmark's
``cli_ols_n200k`` input (columns T, M, Y, X1..X3, drawn by
``perfbench/inputs.py`` from ``--seed`` as the benchmark draws them), then runs
``semimediation mediate --method ols --interaction --covariates X1,X2,X3`` on
it in a fresh child process, with BLAS pinned to one thread and glibc's
allocator thresholds fixed as the benchmark fixes them. In the child, each
call of ``load_csv``, ``build_design``, ``fit_ols``, ``stack_fits`` and
``build_mediate_report`` is wrapped and reports its wall time, the traced
(tracemalloc) peak during the call and live memory after it, and the
process's ``ru_maxrss`` after it. Both memory figures are needed:
tracemalloc sees numpy's arrays but not the buffers LAPACK allocates inside
a call, and ``ru_maxrss`` sees everything but only as a high-water mark
since the process started. A final ``end`` line gives ``ru_maxrss`` after the
forest plot is written::

    python3 scripts/memory_stages.py --n 200000 --seed 1201
    python3 scripts/memory_stages.py --src ../parent/src --n 200000 --out stages.json
    python3 scripts/memory_stages.py --n 200000 --row-block-bytes 262144

``--row-block-bytes`` sets ``estimators.ROW_BLOCK_BYTES`` in the child, so
that budgets can be compared. Tracing costs time of its own, so the wall
times are for comparison between runs of this script only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = r"""
import json, resource, sys, time, tracemalloc
from semimediation import cli, estimators, inference

path, workdir, row_block_bytes = sys.argv[1], sys.argv[2], int(sys.argv[3])
if row_block_bytes:
    estimators.ROW_BLOCK_BYTES = row_block_bytes
MIB = 1024.0 * 1024.0
records = []

def staged(module, name):
    fn = getattr(module, name)

    def wrapped(*args, **kwargs):
        tracemalloc.reset_peak()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        ms = (time.perf_counter() - start) * 1e3
        live, peak = tracemalloc.get_traced_memory()
        records.append({
            "stage": name,
            "ms": ms,
            "traced_peak_mib": peak / MIB,
            "traced_live_mib": live / MIB,
            "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        return result

    setattr(module, name, wrapped)

for module, name in ((cli, "load_csv"), (inference, "build_design"), (inference, "fit_ols"),
                     (inference, "stack_fits"), (cli, "build_mediate_report")):
    staged(module, name)
tracemalloc.start()
rc = cli.main([
    "mediate", "--data", path, "--treatment", "T", "--mediator", "M", "--outcome", "Y",
    "--covariates", "X1,X2,X3", "--interaction", "--method", "ols",
    "--out", workdir + "/report.json", "--plot", workdir + "/forest.svg",
])
live, peak = tracemalloc.get_traced_memory()
records.append({"stage": "end", "ms": None, "traced_peak_mib": None, "traced_live_mib": live / MIB,
                "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
print(json.dumps({"exit_status": rc, "row_block_bytes": getattr(estimators, "ROW_BLOCK_BYTES", None), "stages": records}))
"""

# As perfbench/run.py pins them (ALLOCATOR_PIN), so that RSS compares with the benchmark's.
ALLOCATOR_PIN = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}


# Drawing and writing the table takes far more memory than the run, and a
# process's ru_maxrss is inherited across fork and exec, so it runs in a
# child of its own.
WRITER = r"""
import importlib.util, sys
spec = importlib.util.spec_from_file_location("perfbench_inputs", sys.argv[1])
inputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(inputs)
n, seed = int(sys.argv[3]), int(sys.argv[4])
inputs.write_csv(sys.argv[2], inputs.mediation_table(inputs.rng_for(seed, 3, n), n, 3))
"""


def write_input(path: Path, n: int, seed: int) -> None:
    """The benchmark's cli_ols_n200k table at n rows, drawn and written by perfbench/inputs.py."""
    args = [sys.executable, "-c", WRITER, str(ROOT / "perfbench" / "inputs.py"), str(path), str(n), str(seed)]
    subprocess.run(args, check=True)


def run_stages(src: Path, path: Path, workdir: Path, row_block_bytes: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.update(ALLOCATOR_PIN)
    args = [sys.executable, "-c", CHILD, str(path), str(workdir), str(row_block_bytes)]
    out = subprocess.run(args, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"the child failed with exit status {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def format_row(rec: dict) -> str:
    def cell(value, fmt):
        return format(value, fmt) if value is not None else format("-", ">" + fmt.split(".")[0])

    return (
        f"{rec['stage']:<22}{cell(rec['ms'], '10.1f')}{cell(rec['traced_peak_mib'], '14.2f')}"
        f"{cell(rec['traced_live_mib'], '14.2f')}{cell(rec['ru_maxrss_mb'], '12.1f')}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--n", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=1201)
    parser.add_argument("--row-block-bytes", type=int, default=0, help="ROW_BLOCK_BYTES in the child (0: the tree's own)")
    parser.add_argument("--out", type=Path, help="write the records as JSON here as well")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"cli_{args.n}.csv"
        write_input(path, args.n, args.seed)
        result = run_stages(args.src.resolve(), path, Path(tmp), args.row_block_bytes)
    if result["exit_status"] != 0:
        raise SystemExit(f"the command exited with status {result['exit_status']}")
    print(f"{'stage':<22}{'ms':>10}{'peak MiB':>14}{'live MiB':>14}{'maxrss MB':>12}")
    for rec in result["stages"]:
        print(format_row(rec))
    if args.out:
        meta = {"src": str(args.src), "n": args.n, "seed": args.seed, "python": platform.python_version(), "allocator": ALLOCATOR_PIN, **result}
        args.out.write_text(json.dumps(meta, indent=2) + "\n")


if __name__ == "__main__":
    main()
