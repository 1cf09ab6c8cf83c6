#!/usr/bin/env python3
"""Print the sha256 of every CSV that ``simulate`` writes at one fixed setting.

Runs ``semimediation simulate`` for the four scenarios at n=300, 25
replicates and seed 11 into a temporary directory, then prints one
``<sha256>  <file>`` line per metrics CSV and per replicate CSV. A pure
refactor prints the same eight lines before and after the change; run it on
both trees and compare the output::

    PYTHONPATH=src python scripts/replicate_digests.py

It takes no options. The exit status is that of the first failing
``simulate`` run, or 0.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

from semimediation import cli


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for scenario in cli.SCENARIO_NAMES:
            metrics, log = out / f"metrics_{scenario}.csv", out / f"replicates_{scenario}.csv"
            argv = ["simulate", "--scenario", scenario, "--n", "300", "--reps", "25", "--seed", "11"]
            code = cli.main(argv + ["--out", str(metrics), "--log", str(log)])
            if code != 0:
                return code
            for path in (metrics, log):
                print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
