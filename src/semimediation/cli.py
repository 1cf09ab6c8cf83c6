"""Command-line front end: dataset analysis, simulation runs, power study.

Exit codes are a stable contract: 0 success, 1 I/O error, 2 usage or
validation error, 3 semiparametric numerical failure (report still written
with the least-squares results).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys

from . import __version__
from .data import DataError, load_csv
from .estimators import FitFailure, RegressionFit
from .inference import (
    METHOD_OLS,
    METHOD_SEMIPARAMETRIC,
    EffectEstimates,
    InferenceError,
    MediationResult,
    mediate,
)
from .simulation import (
    ASYMMETRIC_MIXTURE,
    GAUSSIAN,
    SKEW_NORMAL,
    SYMMETRIC_BIMODAL,
    ErrorSpec,
    ScenarioConfig,
    power_config,
    run_power_study,
    run_scenario,
    write_metrics_csv,
    write_replicate_csv,
)

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

SCENARIO_NAMES = {
    "gaussian": GAUSSIAN,
    "skewnormal": SKEW_NORMAL,
    "asymmix": ASYMMETRIC_MIXTURE,
    "symbimodal": SYMMETRIC_BIMODAL,
}


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _json_number(x: float | None) -> float | None:
    """``x`` if it is a finite number, else None: JSON has no NaN or infinity."""
    return x if x is not None and abs(x) < float("inf") else None


def _effects_payload(effects: EffectEstimates) -> dict:
    return {
        "kind": effects.kind,
        "effects": [
            {
                "name": name,
                "estimate": float(effects.values[i]),
                "ci_lower": float(effects.ci_lower[i]),
                "ci_upper": float(effects.ci_upper[i]),
                "ci_length": float(effects.ci_length[i]),
            }
            for i, name in enumerate(effects.names)
        ],
    }


def _fit_diagnostics(fit: RegressionFit | FitFailure | None) -> dict | None:
    if fit is None:
        return None
    if isinstance(fit, FitFailure):
        return {"status": "numerical_failure", "reasons": list(fit.reasons)}
    d = fit.diagnostics
    return {
        "status": "ok",
        "start_index_used": d.start_index_used,
        "iterations": d.iterations,
        "residual_norm": float(d.residual_norm),
        "rcond": float(d.rcond),
        "screened_reasons": list(d.screened_reasons),
    }


def build_mediate_report(args: argparse.Namespace, result: MediationResult, n_dropped: int) -> dict:
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": "mediate",
        "generated_at": _timestamp(),
        "data": {"path": args.data, "n_rows_used": result.n, "n_rows_dropped": n_dropped},
        "model": {
            "treatment": args.treatment,
            "mediator": args.mediator,
            "outcome": args.outcome,
            "covariates": list(result.covariates),
            "interaction": result.interaction,
            "scale_outcome": args.scale_outcome,
        },
        "effects": {},
        "diagnostics": {},
        "warnings": [],
    }
    for method, mr in result.methods.items():
        if mr.effects is not None:
            report["effects"][method] = _effects_payload(mr.effects)
        report["diagnostics"][method] = {
            "mediator": _fit_diagnostics(mr.mediator_fit),
            "outcome": _fit_diagnostics(mr.outcome_fit),
            "interaction_p_value": _json_number(mr.interaction_p_value),
        }
        if mr.failed:
            report["warnings"].append(f"{method} fit flagged as a numerical failure; see diagnostics")
    return report


def cmd_mediate(args: argparse.Namespace) -> int:
    # load_csv strips header names, so the requested names are stripped too:
    # the covariates here, the other three by their argument type.
    covariates = tuple(filter(None, (c.strip() for c in args.covariates.split(","))))
    referenced = [args.treatment, args.mediator, args.outcome, *covariates]
    try:
        dataset = load_csv(args.data, columns=referenced)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.scale_outcome is not None:
        dataset = dataset.with_scaled_column(args.outcome, args.scale_outcome)

    want_semi = args.method in ("semi", "both")
    try:
        result = mediate(
            dataset,
            treatment=args.treatment,
            mediator=args.mediator,
            outcome=args.outcome,
            covariates=covariates,
            interaction=args.interaction,
            method="both" if want_semi else METHOD_OLS,
        )
    except (DataError, InferenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    # Serialized first: a stray NaN raises ValueError before the file opens.
    text = json.dumps(build_mediate_report(args, result, dataset.n_dropped), indent=2, allow_nan=False)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        if args.plot:
            estimates = {m: mr.effects for m, mr in result.methods.items() if mr.effects is not None}
            emit_forest_svg(estimates, args.plot)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    semi_failed = want_semi and result.methods[METHOD_SEMIPARAMETRIC].failed
    return EXIT_NUMERICAL if semi_failed else EXIT_OK


def _internal_workers() -> int:
    # replicate results are bit-identical for any worker count
    return min(8, os.cpu_count() or 1)


def cmd_simulate(args: argparse.Namespace) -> int:
    config = ScenarioConfig(
        error=ErrorSpec(SCENARIO_NAMES[args.scenario]),
        n=args.n,
        reps=args.reps,
        seed=args.seed,
    )
    rows, results = run_scenario(config, workers=_internal_workers())
    try:
        write_metrics_csv(args.out, rows)
        if args.log:
            write_replicate_csv(args.log, results)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_power(args: argparse.Namespace) -> int:
    config = power_config(reps=args.reps, seed=args.seed)
    report = run_power_study(config, workers=_internal_workers())
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": "power",
        "generated_at": _timestamp(),
        "seed": config.seed,
        "reps": config.reps,
        "design": {
            "n": config.n,
            "error_law": config.error.law,
            "alpha2": config.dgp.alpha2,
            "beta2": config.dgp.beta2,
            "beta3": config.dgp.beta3,
            "gamma": config.dgp.gamma,
            "eta": config.dgp.eta,
            "truth_acme0": report.truth_acme0,
        },
        "results": {
            m: {
                "rejection_rate": _json_number(s.rejection_rate),
                "mean_estimate": _json_number(s.mean_estimate),
                "avg_ci_length": _json_number(s.avg_ci_length),
                "success_rate": s.success_rate,
                "reps_used": s.reps_used,
            }
            for m, s in report.methods.items()
        },
        "paper_reference": report.paper_reference,
    }
    text = json.dumps(payload, indent=2, allow_nan=False)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


# ---------------------------------------------------------------------------
# Forest plot


def _svg_number(x: float) -> str:
    return f"{x:.2f}"


def emit_forest_svg(estimates: dict[str, EffectEstimates], path: str) -> None:
    """Write a grayscale-safe forest plot: one row per effect, CI whiskers.

    Least-squares results use open circles with solid whiskers; semiparametric
    results use filled circles with dashed whiskers. Output is deterministic
    for identical input.
    """
    if not estimates:
        raise ValueError("at least one method's estimates are required")
    methods = [m for m in (METHOD_OLS, METHOD_SEMIPARAMETRIC) if m in estimates]
    names = estimates[methods[0]].names

    left, right, top, bottom = 120.0, 30.0, 30.0, 50.0
    row_h = 36.0
    width = 640.0
    height = top + row_h * len(names) + bottom

    lo = min(0.0, *(float(estimates[m].ci_lower.min()) for m in methods))
    hi = max(0.0, *(float(estimates[m].ci_upper.max()) for m in methods))
    span = (hi - lo) or 1.0
    lo -= 0.05 * span
    hi += 0.05 * span

    def sx(v: float) -> float:
        return left + (v - lo) / (hi - lo) * (width - left - right)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    # zero reference line
    zx = _svg_number(sx(0.0))
    parts.append(
        f'<line x1="{zx}" y1="{_svg_number(top - 8)}" x2="{zx}" y2="{_svg_number(top + row_h * len(names) + 8)}" '
        'stroke="#888888" stroke-width="1"/>'
    )
    # axis with five ticks
    axis_y = top + row_h * len(names) + 14
    parts.append(
        f'<line x1="{_svg_number(left)}" y1="{_svg_number(axis_y)}" x2="{_svg_number(width - right)}" '
        f'y2="{_svg_number(axis_y)}" stroke="black" stroke-width="1"/>'
    )
    for k in range(5):
        v = lo + k * (hi - lo) / 4
        x = _svg_number(sx(v))
        parts.append(f'<line x1="{x}" y1="{_svg_number(axis_y)}" x2="{x}" y2="{_svg_number(axis_y + 4)}" stroke="black"/>')
        parts.append(f'<text x="{x}" y="{_svg_number(axis_y + 16)}" text-anchor="middle">{v:.3g}</text>')

    for i, name in enumerate(names):
        y_mid = top + row_h * (i + 0.5)
        parts.append(f'<text x="{_svg_number(left - 10)}" y="{_svg_number(y_mid + 4)}" text-anchor="end">{name}</text>')
        offsets = [-6.0, 6.0] if len(methods) == 2 else [0.0]
        for m, dy in zip(methods, offsets):
            eff = estimates[m]
            y = y_mid + dy
            x1, x2 = sx(float(eff.ci_lower[i])), sx(float(eff.ci_upper[i]))
            xc = sx(float(eff.values[i]))
            dash = ' stroke-dasharray="5,3"' if m == METHOD_SEMIPARAMETRIC else ""
            fill = "black" if m == METHOD_SEMIPARAMETRIC else "white"
            parts.append(
                f'<line x1="{_svg_number(x1)}" y1="{_svg_number(y)}" x2="{_svg_number(x2)}" y2="{_svg_number(y)}" '
                f'stroke="black" stroke-width="1.5"{dash}/>'
            )
            parts.append(
                f'<circle cx="{_svg_number(xc)}" cy="{_svg_number(y)}" r="4" fill="{fill}" stroke="black" stroke-width="1.2"/>'
            )

    # legend
    ly = height - 12
    lx = left
    for m in methods:
        dash = ' stroke-dasharray="5,3"' if m == METHOD_SEMIPARAMETRIC else ""
        fill = "black" if m == METHOD_SEMIPARAMETRIC else "white"
        parts.append(f'<line x1="{_svg_number(lx)}" y1="{_svg_number(ly - 4)}" x2="{_svg_number(lx + 26)}" y2="{_svg_number(ly - 4)}" stroke="black" stroke-width="1.5"{dash}/>')
        parts.append(f'<circle cx="{_svg_number(lx + 13)}" cy="{_svg_number(ly - 4)}" r="4" fill="{fill}" stroke="black" stroke-width="1.2"/>')
        parts.append(f'<text x="{_svg_number(lx + 32)}" y="{_svg_number(ly)}">{m}</text>')
        lx += 180
    parts.append("</svg>")

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="semimediation", description="Causal mediation effects in linear models")
    sub = parser.add_subparsers(dest="command", required=True)

    p_med = sub.add_parser("mediate", help="estimate mediation effects from a CSV dataset")
    p_med.add_argument("--data", required=True, help="CSV file with a header row")
    p_med.add_argument("--treatment", required=True, type=str.strip)
    p_med.add_argument("--mediator", required=True, type=str.strip)
    p_med.add_argument("--outcome", required=True, type=str.strip)
    p_med.add_argument("--covariates", default="", help="comma-separated covariate column names")
    p_med.add_argument("--interaction", action="store_true", help="include the treatment*mediator term")
    p_med.add_argument("--method", choices=["ols", "semi", "both"], default="both")
    p_med.add_argument("--scale-outcome", type=float, default=None, metavar="FACTOR", help="multiply the outcome column by FACTOR before fitting")
    p_med.add_argument("--out", default="report.json", help="JSON report path")
    p_med.add_argument("--plot", default=None, help="optional SVG forest-plot path")
    p_med.set_defaults(func=cmd_mediate)

    p_sim = sub.add_parser("simulate", help="run one Monte Carlo scenario")
    p_sim.add_argument("--scenario", required=True, choices=sorted(SCENARIO_NAMES))
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--reps", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", default="metrics.csv", help="metrics CSV path")
    p_sim.add_argument("--log", default=None, help="optional per-replicate CSV log path")
    p_sim.set_defaults(func=cmd_simulate)

    p_pow = sub.add_parser("power", help="run the near-boundary power study")
    p_pow.add_argument("--reps", type=int, required=True)
    p_pow.add_argument("--seed", type=int, required=True)
    p_pow.add_argument("--out", default="power.json", help="JSON report path")
    p_pow.set_defaults(func=cmd_power)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
