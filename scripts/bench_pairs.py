#!/usr/bin/env python3
"""Run the benchmark on two source checkouts in alternating pairs and summarize the end-to-end metrics.

Pair i runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` in the parent checkout first when i is even and in the change
checkout first when i is odd, with the same seed S = seed base + i on both
sides. Each checkout must hold its own ``perfbench/`` and ``src/``; the
benchmark is only run, never imported or edited. The result is written as
JSON in the layout of the repository's ``BENCH_<n>.json`` files: for each
workload the runs' correctness, attempted and failed counts, seeds and
``acme0_len_ratio``, and for each end-to-end metric of ``BENCHMARK.json``
the per-pair values of both sides, their quartiles (q25, median, q75, linear
interpolation), the number of pairs in which the change is better in the
metric's declared direction, and the relative change of the median. Each
run's mean call time, taken from the ``call_ms`` samples of its ``info:``
line, is recorded beside them with its quartiles per side: the median call
hides a round in which one slow fit, such as a Newton run that reaches its
iteration cap, takes seconds::

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload mc_gate_n300 --pairs 10 --seed-base 2511 --out pairs.json

The exit status is 1 when a run fails or reports ``"correct": false``, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_run(stdout: str) -> dict:
    """The result line and the ``info:`` line of one benchmark run, reduced to what the summary reads."""
    info: dict = {}
    result = None
    for line in stdout.splitlines():
        if line.startswith("info: "):
            info = json.loads(line[len("info: ") :])
        elif line.startswith("{"):
            result = json.loads(line)
    if result is None:
        raise ValueError("no result line in the benchmark's output")
    samples = info.get("call_ms")
    return {
        "correct": bool(result["correct"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "acme0_len_ratio": info.get("acme0_len_ratio"),
        "call_ms_mean": statistics.fmean(samples) if samples else None,
    }


def quartiles(values: list[float]) -> list[float]:
    """q25, median and q75 with linear interpolation between order statistics."""
    q25, median, q75 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return [round(q25, 4), round(median, 4), round(q75, 4)]


def summarize(runs: dict[str, list[dict]], seeds: list[int], declared: list[dict]) -> dict:
    """One workload's summary from the parsed runs of each side, pair i being the i-th run of each."""
    pairs = len(seeds)
    if any(len(runs[side]) != pairs for side in SIDES):
        raise ValueError("each side needs one run per seed")
    summary = {
        "all_runs_correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "failed_total": sum(r["failed"] for side in SIDES for r in runs[side]),
        "attempted": {side: [r["attempted"] for r in runs[side]] for side in SIDES},
        "seeds": list(seeds),
        "metrics": {},
        "acme0_len_ratio": {side: [r["acme0_len_ratio"] for r in runs[side]] for side in SIDES},
    }
    means = {side: [r["call_ms_mean"] for r in runs[side]] for side in SIDES}
    if None not in means["parent"] + means["change"]:
        summary["call_ms_mean"] = {}
        for side in SIDES:
            summary["call_ms_mean"][f"{side}_runs"] = [round(v, 4) for v in means[side]]
            summary["call_ms_mean"][f"{side}_q25_median_q75"] = quartiles(means[side])
    for metric in declared:
        name = metric["name"]
        if not all(name in r["metrics"] for side in SIDES for r in runs[side]):
            continue
        parent = [r["metrics"][name] for r in runs["parent"]]
        change = [r["metrics"][name] for r in runs["change"]]
        sign = -1.0 if metric["better"] == "lower" else 1.0
        better = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        p_median, c_median = statistics.median(parent), statistics.median(change)
        summary["metrics"][name] = {
            "parent_runs": [round(v, 4) for v in parent],
            "change_runs": [round(v, 4) for v in change],
            "parent_q25_median_q75": quartiles(parent),
            "change_q25_median_q75": quartiles(change),
            "change_better_pairs": f"{better}/{pairs}",
            "median_change_rel": round((c_median - p_median) / p_median, 4) if p_median else None,
        }
    return summary


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    return parse_run(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True, help="repeat for several workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, required=True, help="pair i of every workload uses this seed + i")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seeds = [args.seed_base + i for i in range(args.pairs)]
    report = {
        "order": (
            "pair i runs the parent first when i is even, the change first when odd; "
            f"seed {args.seed_base} + i on both sides of pair i"
        ),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "perfbench": {},
    }
    ok = True
    for workload in args.workload:
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        for i, seed in enumerate(seeds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                run = run_once(checkouts[side], workload, seed, args.seconds)
                runs[side].append(run)
                ok &= run["correct"]
                print(f"{workload} pair {i} {side}: {json.dumps(run['metrics'])}", flush=True)
        report["perfbench"][workload] = summarize(runs, seeds, declared)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
