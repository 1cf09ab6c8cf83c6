#!/usr/bin/env python3
"""Reproduce the four-scenario Monte Carlo comparison (interaction model).

Writes one metrics CSV per error law plus a combined table, and prints the
scorecard. Replicates run one after another on one thread; lower --reps for
quick looks.
"""

import argparse
from pathlib import Path

from semimediation.simulation import (
    ERROR_LAWS,
    ErrorSpec,
    ScenarioConfig,
    run_scenario,
    write_metrics_csv,
    write_replicate_csv,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=300)
    parser.add_argument("--reps", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=20250809)
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--logs", action="store_true", help="also write per-replicate logs")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(exist_ok=True)
    all_rows = []
    for law in ERROR_LAWS:
        cfg = ScenarioConfig(ErrorSpec(law), n=args.n, reps=args.reps, seed=args.seed)
        rows, results = run_scenario(cfg)
        all_rows.extend(rows)
        write_metrics_csv(str(outdir / f"metrics_{law}.csv"), rows)
        if args.logs:
            write_replicate_csv(str(outdir / f"replicates_{law}.csv"), results)
        print(f"== {law} (n={args.n}, reps={args.reps})")
        for r in rows:
            print(
                f"  {r.method:16s} {r.effect:8s} bias={r.bias:+.4f} rmse={r.rmse:.4f} "
                f"cov={r.coverage:.3f} len={r.avg_length:.4f} success={r.success_rate:.3f}"
            )
    write_metrics_csv(str(outdir / "metrics_all.csv"), all_rows)
    print(f"\nwrote {outdir}/metrics_all.csv")


if __name__ == "__main__":
    main()
