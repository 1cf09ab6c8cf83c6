"""Child process of the benchmark. See ``run.py``.

``setup`` only imports numpy and the package (the start-up a user pays before
the first call), ``inputs`` writes one workload's inputs, and ``measure`` runs
the workload and writes a result file.

    python3 perfbench/worker.py setup|inputs --workload W --seed S --workdir D
    python3 perfbench/worker.py measure --workload W --seed S --workdir D \\
        --seconds T --trace 0|1 --result R [--spans P]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import semimediation
import tracing
from workloads import WORKLOADS, Tally, reference_problems


def run_call(w, k: int, tally: Tally, tracer: tracing.Tracer | None = None):
    """One timed call, then its output check; None if the call raised."""
    try:
        if tracer is None:
            wall, units, payload = w.run(k)
        else:
            with tracer.installed():
                wall, units, payload = w.run(k)
    except Exception:
        tally.units(1, [traceback.format_exc(limit=4)])
        return None
    tally.merge(w.check(payload))
    return wall, units


def reference_tally(w) -> Tally:
    """Units of the fixed reference inputs; only their pass/fail counts are kept."""
    outputs, payload = w.reference_outputs()
    if outputs is None:
        return Tally()
    checked = w.check(payload)
    checked.units(1, reference_problems(w.name, outputs))
    return Tally(attempted=checked.attempted, failed=checked.failed, problems=checked.problems)


def rates(calls) -> tuple[float, float]:
    """(median call ms, median units per second) over completed calls.

    Medians, because a stalled call on a shared machine would move a mean.
    """
    return statistics.median(c[0] * 1e3 for c in calls), statistics.median(c[1] / c[0] for c in calls)


def measure_untraced(w, seconds: float, tally: Tally) -> tuple[dict, dict]:
    calls = []
    start = time.perf_counter()
    while not calls or time.perf_counter() - start < seconds:
        call = run_call(w, len(calls), tally)
        if call is None:
            break
        calls.append(call)
    if not calls:
        return {}, {}
    call_ms, reps_per_s = rates(calls)
    metrics = {"call_ms_p50": call_ms, "reps_per_s": reps_per_s}
    info = {"call_samples": len(calls), "call_ms": [c[0] * 1e3 for c in calls]}
    return metrics, info


def measure_traced(w, seconds: float, tally: Tally, workers: int, spans_path: str | None) -> tuple[dict, dict]:
    """Alternate untraced and traced runs of call 0 until the time is up.

    Both sides run identical work, so their difference is the tracing overhead,
    and the machine-independent counts must agree across traced calls.
    """
    untraced, traced, layers, all_spans = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        # Alternate which side goes first, so that drift over the run cancels.
        tracer = tracing.Tracer()
        traced_first = len(traced) % 2 == 1
        if traced_first:
            call = run_call(w, 0, tally, tracer)
        plain = run_call(w, 0, tally)
        if not traced_first:
            call = run_call(w, 0, tally, tracer)
        if plain is None or call is None:
            return {}, {}
        untraced.append(plain)
        traced.append(call)
        layers.append(tracing.layer_metrics(tracer.spans, workers))
        all_spans.append(tracer.spans)

    counts = {name: layers[0][name] for name in tracing.COUNT_METRICS}
    if any(layer[name] != value for layer in layers for name, value in counts.items()):
        tally.units(1, ["machine-independent counts differ between traced calls of identical input"])
    metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    plain_ms, plain_rate = rates(untraced)
    traced_ms, traced_rate = rates(traced)
    metrics["trace.overhead_call_ms"] = traced_ms - plain_ms
    metrics["trace.overhead_reps_per_s"] = traced_rate - plain_rate
    top_ms = [sum(s.ms for s in spans if s.parent is None) for spans in all_spans]
    info = {
        "call_samples": len(traced),
        "counts": counts,
        "untraced_call_ms_p50": plain_ms,
        "traced_call_ms_p50": traced_ms,
        "untraced_reps_per_s": plain_rate,
        "traced_reps_per_s": traced_rate,
        "traced_top_level_ms": statistics.median(top_ms),
    }
    if spans_path:
        with open(spans_path, "w", encoding="utf-8") as fh:
            for call_index, spans in enumerate(all_spans):
                origin = min(s.start for s in spans)
                for s in spans:
                    record = {
                        "call": call_index, "id": s.id, "name": s.name,
                        "start_ms": (s.start - origin) * 1e3, "end_ms": (s.end - origin) * 1e3,
                        "parent": s.parent, "unit": s.unit, "thread": s.thread, "info": s.info,
                    }  # fmt: skip
                    fh.write(json.dumps(record) + "\n")
    return metrics, info


# Simulation replicates run on one thread. With a pool as large as nproc, the
# threads contend for the GIL and for the allocator with the rest of a shared
# host, and a gate round's time switched between two speeds from run to run.
WORKERS = 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("role", choices=["setup", "inputs", "measure"])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    # The benchmark measures the checkout's own source tree, never an installed copy.
    expected_src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if os.path.commonpath([os.path.abspath(semimediation.__file__), expected_src]) != expected_src:
        print(f"error: semimediation imported from {semimediation.__file__}, not {expected_src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    if args.role == "setup":
        return 0
    if args.role == "inputs":
        workload.write_inputs(args.seed, args.workdir)
        return 0

    w = workload(args.seed, args.workdir, WORKERS)
    w.warm_up()
    tally = Tally()
    if args.trace:
        metrics, info = measure_traced(w, args.seconds, tally, WORKERS, args.spans)
        metrics["inference.acme0_len_ratio"] = tally.acme0_len_ratio()
    else:
        metrics, info = measure_untraced(w, args.seconds, tally)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally.merge(reference_tally(w))
    info.update(
        error_ratio=tally.failed / tally.attempted if tally.attempted else 1.0,
        semi_fail_ratio=tally.semi_failed / tally.semi_attempted if tally.semi_attempted else 0.0,
        semi_attempted=tally.semi_attempted,
        acme0_len_ratio=tally.acme0_len_ratio(),
        workers=WORKERS,
        numpy=np.__version__,
        blas_threads={k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        malloc_thresholds={k: os.environ.get(k) for k in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")},
    )
    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "info": info,
        "problems": tally.problems[:20],
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
