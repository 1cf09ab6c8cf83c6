#!/usr/bin/env python3
"""Wall time and peak memory of one large-n mediation fit, one fresh process per size.

Each size runs ``mediate(method="both", interaction=True)`` on one simulated
interaction data set (asymmetric-mixture errors, replicate 0 of ``--seed``)
in a child process of its own, with BLAS pinned to one thread and glibc's
allocator thresholds fixed, so that the child's peak resident memory belongs
to that size alone. The child reports
the wall time of the call, its peak RSS, the number of kernel passes
(``semiparam_psi`` calls) and the semiparametric effects, so that two source
trees can be compared on the same data, and ``--block-bytes`` sets the kernel
pass's ``KERNEL_BLOCK_BYTES`` in the child, so that budgets can be compared:

    python3 scripts/bench_kernel_scaling.py --n 3000 10000 20000 --out scaling.json
    python3 scripts/bench_kernel_scaling.py --src ../parent/src --n 3000 10000
    python3 scripts/bench_kernel_scaling.py --n 10000 20000 --block-bytes 33554432

The n x n kernel arrays of a tree that builds them need 24 n^2 bytes at a
time, about 9.6 GB at n = 20 000; choose the sizes to fit the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

CHILD = r"""
import json, resource, sys, time
import numpy as np
from semimediation import estimators
from semimediation.inference import mediate
from semimediation.simulation import ASYMMETRIC_MIXTURE, ErrorSpec, ScenarioConfig, generate_interaction_dataset

n, seed, block_bytes = int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
if block_bytes:
    estimators.KERNEL_BLOCK_BYTES = block_bytes
ds = generate_interaction_dataset(ScenarioConfig(ErrorSpec(ASYMMETRIC_MIXTURE), n=n, reps=1, seed=seed), 0)
passes = 0
kernel_pass = estimators.semiparam_psi

def counted(*args):
    global passes
    passes += 1
    return kernel_pass(*args)

estimators.semiparam_psi = counted
start = time.perf_counter()
result = mediate(ds, "T", "M", "Y", interaction=True, method="both")
wall = time.perf_counter() - start
semi = result.methods["semiparametric"]
print(json.dumps({
    "n": n,
    "block_bytes": getattr(estimators, "KERNEL_BLOCK_BYTES", None),
    "wall_s": wall,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "kernel_passes": passes,
    "semiparametric_ok": not semi.failed,
    "semiparametric_estimates": None if semi.failed else semi.effects.values.tolist(),
    "semiparametric_ci_lower": None if semi.failed else semi.effects.ci_lower.tolist(),
    "semiparametric_ci_upper": None if semi.failed else semi.effects.ci_upper.tolist(),
}))
"""


# glibc's allocator thresholds, as perfbench/run.py pins them (ALLOCATOR_PIN):
# left adaptive, whether an n x n temporary comes from the heap or from freshly
# faulted pages depends on the order of earlier frees, and back-to-back runs at
# n = 10^4 ranged 1.72-2.40 s. Set only in the child's environment.
ALLOCATOR_PIN = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}


def run_size(src: Path, n: int, seed: int, block_bytes: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.update(ALLOCATOR_PIN)
    out = subprocess.run([sys.executable, "-c", CHILD, str(n), str(seed), str(block_bytes)], env=env, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"n={n} failed with exit status {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    parser.add_argument("--n", type=int, nargs="+", default=[3000, 10000, 20000])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--block-bytes", type=int, default=0, help="KERNEL_BLOCK_BYTES in the child, the bytes of one square kernel block (0: the tree's own)")
    parser.add_argument("--out", type=Path, help="write the records as JSON here as well")
    args = parser.parse_args()

    records = []
    for n in args.n:
        rec = run_size(args.src.resolve(), n, args.seed, args.block_bytes)
        print(f"n={n}: {rec['wall_s']:.2f} s, peak RSS {rec['peak_rss_mb']:.1f} MB, {rec['kernel_passes']} kernel passes")
        records.append(rec)
    if args.out:
        meta = {"src": str(args.src), "seed": args.seed, "python": platform.python_version(), "allocator": ALLOCATOR_PIN, "runs": records}
        args.out.write_text(json.dumps(meta, indent=2) + "\n")


if __name__ == "__main__":
    main()
