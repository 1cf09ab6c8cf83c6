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

With ``--keep DIR`` it also writes the twelve outputs into DIR under their
printed names, each JSON as it is hashed, plus ``exit_codes.json``, which maps
each output's name to the exit status of the run that made it. ``--compare A
B`` runs nothing: it compares two such directories, say one kept from the
parent tree and one from the change, and prints per file the largest absolute
and relative difference over numeric CSV cells and JSON numbers (relative to
max(|a|, |b|), NaN equal to NaN), the replicate ``success`` values that
flipped, the JSON paths of non-numeric values that changed (``status``,
``start_index_used``, ``reasons`` and the like), the exit statuses that
changed and the files missing on either side::

    PYTHONPATH=src python scripts/replicate_digests.py --keep ../parent-out
    PYTHONPATH=src python scripts/replicate_digests.py --compare ../parent-out out

Without ``--compare`` the exit status is that of the first CLI run that fails
unexpectedly (any non-zero status, or for the scaled report any but 3), or 0.
With it, the exit status is 0 when nothing differs and 1 otherwise.
"""

import argparse
import csv
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from semimediation import cli

EXIT_CODES = "exit_codes.json"
# JSON keys whose values are compared as labels even when they are numbers.
LABEL_KEYS = {"start_index_used"}


def write_covariate_csv(path: Path) -> None:
    """300 rows of T, M, Y, X1, X2 with skewed errors, from seed 11."""
    rng = np.random.default_rng(11)
    n = 300
    x = rng.normal(size=(n, 2))
    t = (rng.random(n) < 0.5).astype(float)
    m = 0.2 + 0.4 * t + x @ [0.5, -0.3] + rng.exponential(size=n) - 1.0
    y = 0.5 * t - 0.8 * m + 0.6 * t * m + x @ [0.2, 0.4] + rng.standard_t(4, size=n)
    np.savetxt(path, np.column_stack([t, m, y, x]), fmt="%.17g", delimiter=",", header="T,M,Y,X1,X2", comments="")


def report_bytes(payload: dict) -> bytes:
    """A JSON report as it is hashed: without its timestamp, keys sorted."""
    del payload["generated_at"]
    return json.dumps(payload, sort_keys=True).encode()


def run_outputs(out: Path, keep: Path | None) -> int:
    """Run the CLI into ``out`` and print one digest line per output; see the module docstring."""
    exit_codes: dict[str, int] = {}

    def emit(path: Path, data: bytes) -> None:
        print(f"{hashlib.sha256(data).hexdigest()}  {path.name}")
        if keep is not None:
            (keep / path.name).write_bytes(data)

    def run(argv: list[str], *paths: Path) -> int:
        code = cli.main(argv)
        exit_codes.update((p.name, code) for p in paths)
        return code

    try:
        for scenario in cli.SCENARIO_NAMES:
            metrics, log = out / f"metrics_{scenario}.csv", out / f"replicates_{scenario}.csv"
            argv = ["simulate", "--scenario", scenario, "--n", "300", "--reps", "25", "--seed", "11"]
            code = run(argv + ["--out", str(metrics), "--log", str(log)], metrics, log)
            if code != 0:
                return code
            for path in (metrics, log):
                emit(path, path.read_bytes())
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
            code = run(argv + ["--covariates", "X1,X2", "--method", "both", "--out", str(report)] + extra, report)
            if code != expected:
                return code or 1
            payload = json.loads(report.read_text(encoding="utf-8"))
            del payload["data"]["path"]
            emit(report, report_bytes(payload))
        power = out / "power.json"
        code = run(["power", "--reps", "25", "--seed", "11", "--out", str(power)], power)
        if code != 0:
            return code
        emit(power, report_bytes(json.loads(power.read_text(encoding="utf-8"))))
    finally:
        if keep is not None:
            (keep / EXIT_CODES).write_text(json.dumps(exit_codes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def leaves(path: Path) -> dict[str, object]:
    """A kept output as {location: value}.

    CSV cells that parse as numbers become floats, except the ``success`` flags, which stay labels.
    """
    if path.suffix == ".json":
        flat: dict[str, object] = {}

        def walk(node: object, where: str) -> None:
            if isinstance(node, dict):
                for key, value in node.items():
                    walk(value, f"{where}.{key}" if where else key)
            elif isinstance(node, list):
                for i, value in enumerate(node):
                    walk(value, f"{where}[{i}]")
            else:
                flat[where] = node

        walk(json.loads(path.read_text(encoding="utf-8")), "")
        return flat
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    flat = {}
    for i, row in enumerate(rows, start=1):
        for column, cell in zip(header, row):
            try:
                value: object = cell if column == "success" else float(cell)
            except ValueError:
                value = cell
            # The leading cells name the row: (replicate, method, effect) or (scenario, method, effect).
            flat[f"row {i} ({','.join(row[:3])}).{column}"] = value
    return flat


def is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare_file(a: Path, b: Path) -> list[str]:
    """Lines describing how ``b`` differs from ``a``; empty when nothing differs."""
    left, right = leaves(a), leaves(b)
    worst_abs, worst_rel = (0.0, ""), (0.0, "")
    lines = []
    for where in sorted(left.keys() | right.keys()):
        x, y = left.get(where, "<missing>"), right.get(where, "<missing>")
        last = where.rsplit(".", 1)[-1]
        if is_number(x) and is_number(y) and last not in LABEL_KEYS:
            if math.isnan(x) or math.isnan(y):
                diff = rel = 0.0 if math.isnan(x) and math.isnan(y) else math.inf
            else:
                diff = abs(x - y)
                rel = diff / max(abs(x), abs(y)) if diff else 0.0
            worst_abs = max(worst_abs, (diff, where))
            worst_rel = max(worst_rel, (rel, where))
        elif x != y:
            kind = "success flipped" if last == "success" else "changed"
            lines.append(f"  {kind}: {where}: {x!r} -> {y!r}")
    if worst_abs[0] or worst_rel[0]:
        lines.insert(0, f"  max abs diff {worst_abs[0]:.3g} at {worst_abs[1]}")
        lines.insert(1, f"  max rel diff {worst_rel[0]:.3g} at {worst_rel[1]}")
    return lines


def compare(a: Path, b: Path) -> int:
    """Print how directory ``b`` differs from ``a``, file by file; 0 when nothing differs, else 1."""
    codes, differs = [], False
    for side, d in (("A", a), ("B", b)):
        path = d / EXIT_CODES
        codes.append(json.loads(path.read_text(encoding="utf-8")) if path.exists() else {})
        if not path.exists():
            print(f"{EXIT_CODES}: missing in {side}")
            differs = True
    names = {p.name for d in (a, b) for p in d.iterdir() if p.name != EXIT_CODES}
    for name in sorted(names | codes[0].keys() | codes[1].keys()):
        pa, pb = a / name, b / name
        missing = [side for side, p in (("A", pa), ("B", pb)) if not p.exists()]
        lines = [f"  missing in {' and '.join(missing)}"] if missing else compare_file(pa, pb)
        if codes[0].get(name) != codes[1].get(name):
            lines.append(f"  exit status: {codes[0].get(name)} -> {codes[1].get(name)}")
        print(f"{name}: " + ("differs" if lines else "no difference"))
        for line in lines:
            print(line)
        differs = differs or bool(lines)
    return 1 if differs else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--keep", type=Path, metavar="DIR", help="also write the outputs and exit_codes.json into DIR")
    group.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"), help="compare two --keep directories")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.keep is not None:
        args.keep.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        return run_outputs(Path(tmp), args.keep)


if __name__ == "__main__":
    sys.exit(main())
