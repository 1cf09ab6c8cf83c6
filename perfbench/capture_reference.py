"""Record the semiparametric outputs on the fixed reference inputs.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/capture_reference.py

Writes ``perfbench/reference.json``; every benchmark run recomputes the same
outputs and compares them at ``workloads.REFERENCE_RTOL``. Re-capture only in
a change that is allowed to move semiparametric numbers, and state it there.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from workloads import REFERENCE_PATH, WORKLOADS


def main() -> int:
    workdir = os.path.join(os.path.dirname(os.path.dirname(REFERENCE_PATH)), ".bench_out", "capture")
    os.makedirs(workdir, exist_ok=True)
    captured = {}
    try:
        for name, workload in WORKLOADS.items():
            workload.write_inputs(0, workdir)
            outputs, _ = workload(0, workdir, len(os.sched_getaffinity(0))).reference_outputs()
            if outputs is not None:
                captured[name] = outputs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(captured, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
