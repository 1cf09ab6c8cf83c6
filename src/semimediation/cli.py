"""Command-line front end: dataset analysis, simulation runs, power study.

Exit codes are a stable contract: 0 success, 1 I/O error, 2 usage or
validation error, 3 semiparametric numerical failure (report still written
with the least-squares results). The commands return 0 or 3 and raise
everything else; ``main`` alone maps an ``OSError`` to 1 and a ``ValueError``
to 2.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from dataclasses import asdict

from . import __version__
from .data import load_csv
from .estimators import FitFailure, RegressionFit
from .inference import (
    METHOD_OLS,
    METHOD_SEMIPARAMETRIC,
    EffectEstimates,
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


def _report_header(command: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _write_json(path: str, payload: dict) -> None:
    # Serialized first: a stray NaN raises ValueError before the file opens.
    text = json.dumps(payload, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _json_number(x: float | None) -> float | None:
    """``x`` if it is a finite number, else None: JSON has no NaN or infinity."""
    return x if x is not None and abs(x) < float("inf") else None


def _record_fields(record, omit: tuple[str, ...] = ()) -> dict:
    """A dataclass record's fields in order, each float passed through ``_json_number``."""
    return {k: _json_number(v) if isinstance(v, float) else v for k, v in asdict(record).items() if k not in omit}


def _effects_payload(effects: EffectEstimates, interaction: bool) -> dict:
    return {
        "kind": "interaction" if interaction else "no_interaction",
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
    return {"status": "ok", **_record_fields(fit.diagnostics)}


def build_mediate_report(args: argparse.Namespace, result: MediationResult, n_dropped: int) -> dict:
    report: dict = {
        **_report_header("mediate"),
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
            report["effects"][method] = _effects_payload(mr.effects, result.interaction)
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
    dataset = load_csv(args.data, columns=referenced)
    if args.scale_outcome is not None:
        dataset = dataset.with_scaled_column(args.outcome, args.scale_outcome)
    result = mediate(
        dataset,
        treatment=args.treatment,
        mediator=args.mediator,
        outcome=args.outcome,
        covariates=covariates,
        interaction=args.interaction,
        method=args.method,
    )
    _write_json(args.out, build_mediate_report(args, result, dataset.n_dropped))
    if args.plot:
        estimates = {m: mr.effects for m, mr in result.methods.items() if mr.effects is not None}
        emit_forest_svg(estimates, args.plot)
    semi = result.methods.get(METHOD_SEMIPARAMETRIC)
    return EXIT_NUMERICAL if semi is not None and semi.failed else EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    config = ScenarioConfig(
        error=ErrorSpec(SCENARIO_NAMES[args.scenario]),
        n=args.n,
        reps=args.reps,
        seed=args.seed,
    )
    rows, results = run_scenario(config)
    write_metrics_csv(args.out, rows)
    if args.log:
        write_replicate_csv(args.log, results)
    return EXIT_OK


def cmd_power(args: argparse.Namespace) -> int:
    config = power_config(reps=args.reps, seed=args.seed)
    report = run_power_study(config)
    payload = {
        **_report_header("power"),
        "seed": config.seed,
        "reps": config.reps,
        "design": {
            "n": config.n,
            "error_law": config.error.law,
            **_record_fields(config.dgp),
            "truth_acme0": report.truth_acme0,
        },
        "results": {m: _record_fields(s, omit=("method",)) for m, s in report.methods.items()},
        "paper_reference": report.paper_reference,
    }
    _write_json(args.out, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Forest plot


def _svg_number(x: float) -> str:
    return f"{x:.2f}"


def _marker(method: str, x1: float, x2: float, xc: float, y: float) -> list[str]:
    """A method's whisker from x1 to x2 and its circle at xc, on the line y, in the method's style."""
    semi = method == METHOD_SEMIPARAMETRIC
    dash = ' stroke-dasharray="5,3"' if semi else ""
    fill = "black" if semi else "white"
    return [
        f'<line x1="{_svg_number(x1)}" y1="{_svg_number(y)}" x2="{_svg_number(x2)}" y2="{_svg_number(y)}" '
        f'stroke="black" stroke-width="1.5"{dash}/>',
        f'<circle cx="{_svg_number(xc)}" cy="{_svg_number(y)}" r="4" fill="{fill}" stroke="black" stroke-width="1.2"/>',
    ]


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
            parts += _marker(m, sx(float(eff.ci_lower[i])), sx(float(eff.ci_upper[i])), sx(float(eff.values[i])), y_mid + dy)

    # legend
    ly = height - 12
    lx = left
    for m in methods:
        parts += _marker(m, lx, lx + 26, lx + 13, ly - 4)
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
    p_med.add_argument("--method", choices=["ols", "both"], default="both", help="ols alone, or both to add the semiparametric fits")
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
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, OSError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
