#!/usr/bin/env python3
"""Print sha256 digests of the CSVs and reports that the CLI writes at fixed settings.

Runs ``semimediation simulate`` for the four scenarios at n=300, 25
replicates and seed 11 into a temporary directory, and prints one
``<sha256>  <file>`` line per metrics CSV and per replicate CSV. Then it
writes a fixed-seed CSV with two covariates and runs ``semimediation
mediate --method both`` on it, once without and once with ``--interaction``,
and prints one line per JSON report, hashed after dropping ``generated_at``
and ``data.path`` and serialized with sorted keys. A third report, without
interaction and with ``--scale-outcome 10000``, is one whose semiparametric
outcome fit fails at every start (exit status 3), so the reasons a start
fails for are pinned too. Last it runs ``semimediation power --reps 25 --seed
11`` and prints one line for its JSON report, hashed in the same way after
dropping ``generated_at``. The simulations cover the interaction map without
covariates; the reports cover the no-interaction map and the covariate
positions. A pure refactor prints the same twelve lines before and after the
change; run it on both trees and compare the output::

    PYTHONPATH=src python scripts/replicate_digests.py

It takes no options. The exit status is that of the first CLI run that fails
unexpectedly (any non-zero status, or for the scaled report any but 3), or 0.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from semimediation import cli


def write_covariate_csv(path: Path) -> None:
    """300 rows of T, M, Y, X1, X2 with skewed errors, from seed 11."""
    rng = np.random.default_rng(11)
    n = 300
    x = rng.normal(size=(n, 2))
    t = (rng.random(n) < 0.5).astype(float)
    m = 0.2 + 0.4 * t + x @ [0.5, -0.3] + rng.exponential(size=n) - 1.0
    y = 0.5 * t - 0.8 * m + 0.6 * t * m + x @ [0.2, 0.4] + rng.standard_t(4, size=n)
    np.savetxt(path, np.column_stack([t, m, y, x]), fmt="%.17g", delimiter=",", header="T,M,Y,X1,X2", comments="")


def print_report_digest(path: Path, payload: dict) -> None:
    """Print the digest of a JSON report without its timestamp, keys sorted."""
    del payload["generated_at"]
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    print(f"{digest}  {path.name}")


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
        data = out / "covariates.csv"
        write_covariate_csv(data)
        reports = (
            ("report_no_interaction.json", [], cli.EXIT_OK),
            ("report_interaction.json", ["--interaction"], cli.EXIT_OK),
            ("report_scaled_failure.json", ["--scale-outcome", "10000"], cli.EXIT_NUMERICAL),
        )
        for name, extra, expected in reports:
            report = out / name
            argv = ["mediate", "--data", str(data), "--treatment", "T", "--mediator", "M", "--outcome", "Y"]
            code = cli.main(argv + ["--covariates", "X1,X2", "--method", "both", "--out", str(report)] + extra)
            if code != expected:
                return code or 1
            payload = json.loads(report.read_text(encoding="utf-8"))
            del payload["data"]["path"]
            print_report_digest(report, payload)
        power = out / "power.json"
        code = cli.main(["power", "--reps", "25", "--seed", "11", "--out", str(power)])
        if code != 0:
            return code
        print_report_digest(power, json.loads(power.read_text(encoding="utf-8")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
