"""Benchmark of the semimediation package: one workload per invocation.

    python3 perfbench/run.py --workload mc_gate_n300 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from ``src/``.
Workloads, metric names, units and regression bounds are declared in
``BENCHMARK.json``. The process:

1. writes the workload's inputs, generated from ``--seed``, in a child process;
2. starts a fresh interpreter that imports numpy and the package several
   times, and reports the median start-up as ``setup_s`` (input generation is
   the harness's own work and is not part of it);
3. runs the workload in its own child process for ``--seconds`` (a closed
   loop from one process, simulation on one worker thread, BLAS pinned to
   one thread, glibc's allocator thresholds fixed) and checks every output;
4. prints an ``info:`` line (environment, failure and efficiency ratios) and,
   as the last line, ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from spans recorded around the package's functions,
and the spans are written to ``.bench_out/``. The exit code is 0 when every
output check passed, 1 when one failed, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
# Set-up is repeated at least SETUP_MIN times and until SETUP_BUDGET_S is spent.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 5, 15, 2.5
# Every run must end within 180 s; children are killed and awaited at this limit.
DEADLINE_S = 170.0
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# glibc raises its mmap threshold each time a large block is freed, so whether
# an n x n temporary is served from the heap or from freshly faulted pages
# depends on the order of earlier frees: identical calls differed by a third in
# page faults, and nearly half of a gate round's time was the kernel zeroing pages.
# The thresholds are fixed at the values glibc itself reaches in a long-running
# process (mmap 32 MiB, its ceiling; trim twice that), which stops that switch.
ALLOCATOR_PIN = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_PIN, **ALLOCATOR_PIN)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class ChildFailed(Exception):
    pass


def run_child(args: list[str], deadline: float) -> float:
    """Run a worker to completion and return its wall time in seconds.

    The wait blocks instead of polling, so the time has no polling granularity;
    a timer kills a child that is still running at the deadline.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed(f"no time left before the {DEADLINE_S:.0f} s limit")
    t0 = time.perf_counter()
    # The child's output goes to stderr so that stdout carries only the result.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args], env=child_env(), cwd=ROOT, stdout=sys.stderr
    )
    timer = threading.Timer(remaining, proc.kill)
    timer.start()
    try:
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - t0
    if rc != 0:
        reason = f"killed at the {DEADLINE_S:.0f} s limit" if time.monotonic() >= deadline else f"exited with {rc}"
        raise ChildFailed(f"worker {args[0]} {reason}")
    return wall


def cache_size(level: int) -> int | None:
    try:
        out = subprocess.run(
            ["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True, text=True, timeout=10, check=True
        ).stdout.strip()
        return int(out) if out else None
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "l2_bytes": cache_size(2),
        "l3_bytes": cache_size(3),
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def main(argv: list[str] | None = None) -> int:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        return fail("--seed must be non-negative")
    if not (ROOT / "src" / "semimediation" / "__init__.py").is_file():
        return fail(f"program source not found under {ROOT / 'src'}")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir)]
    result_path = OUT_DIR / f"{tag}.json"
    try:
        inputs_s = run_child(["inputs", *common], deadline)
        setup_s: list[float] = []
        while not args.trace and len(setup_s) < SETUP_MAX and (len(setup_s) < SETUP_MIN or sum(setup_s) < SETUP_BUDGET_S):
            setup_s.append(run_child(["setup", *common], deadline))
        measure = ["measure", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        measure += ["--result", str(result_path)]
        if args.trace:
            measure += ["--spans", str(OUT_DIR / f"{tag}.spans.jsonl")]
        run_child(measure, deadline)
        result = json.loads(result_path.read_text())
    except ChildFailed as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setup_s)
    missing = [m["name"] for m in declared if m["name"] not in values]
    correct = result["failed"] == 0 and not missing
    info = dict(result["info"], inputs_s=inputs_s, setup_samples_s=setup_s, environment=environment(args.seed))
    if missing:
        info["missing_metrics"] = missing
    if result["problems"]:
        info["problems"] = result["problems"]
    result_path.write_text(json.dumps({**result, "info": info, "correct": correct}, indent=1))
    print("info: " + json.dumps(info, sort_keys=True))
    line = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared if m["name"] in values},
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
