"""The workloads: what one call runs, and how its outputs are checked.

A call is a gate round of 40 replicates for ``mc_gate_n300`` and one
``cli.main`` call for ``cli_ols_n200k``. ``run`` is the timed part
and returns (seconds, units done, raw outputs); ``check`` verifies the outputs
afterwards, outside the timing and outside any tracing.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import inputs
from semimediation import cli, inference, simulation
from semimediation.data import dataset_from_arrays

# OLS effects are recomputed independently and must agree to rounding. The
# semiparametric reference tolerance is the one allowed for number-moving
# changes (analytic instead of finite-difference derivatives).
OLS_RTOL = 1e-9
REFERENCE_RTOL = 1e-6
ABS_FLOOR = 1e-12
REFERENCE_SEED = 20260417
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
ACME0 = inference.INTERACTION_EFFECTS.index("ACME(0)")
OLS = inference.METHOD_OLS
SEMI = inference.METHOD_SEMIPARAMETRIC


@dataclass
class Tally:
    """Units attempted and failed, plus the semiparametric outcome counts."""

    attempted: int = 0
    failed: int = 0
    semi_attempted: int = 0
    semi_failed: int = 0
    # method -> [sum of ACME(0) interval lengths, number of intervals]
    acme0_length: dict = field(default_factory=lambda: {OLS: [0.0, 0], SEMI: [0.0, 0]})
    problems: list = field(default_factory=list)

    def units(self, count: int, problems: list[str]) -> None:
        self.attempted += count
        if problems:
            self.failed += count
            self.problems.extend(problems)

    def semi(self, attempted: int, failed: int) -> None:
        self.semi_attempted += attempted
        self.semi_failed += failed

    def length(self, method: str, total: float, count: int) -> None:
        self.acme0_length[method][0] += total
        self.acme0_length[method][1] += count

    def merge(self, other: "Tally") -> None:
        self.units(other.attempted, [])
        self.failed += other.failed
        self.problems.extend(other.problems)
        self.semi(other.semi_attempted, other.semi_failed)
        for m, (total, count) in other.acme0_length.items():
            self.length(m, total, count)

    def acme0_len_ratio(self) -> float:
        """Mean semiparametric over mean OLS ACME(0) interval length; 0 without both."""
        (s_sum, s_n), (o_sum, o_n) = self.acme0_length[SEMI], self.acme0_length[OLS]
        return (s_sum / s_n) / (o_sum / o_n) if s_n and o_n and o_sum > 0 else 0.0


def ols_effects(table: dict[str, np.ndarray], covariates: tuple[str, ...]) -> np.ndarray:
    """(ACME(0), ACME(1), ADE(0), ADE(1), ATE) from two lstsq fits and the closed-form map."""
    t, m, y = table["T"], table["M"], table["Y"]
    X = np.column_stack([table[c] for c in covariates]) if covariates else np.empty((t.size, 0))
    ones = np.ones_like(t)
    med = np.linalg.lstsq(np.column_stack([ones, t, X]), m, rcond=None)[0]
    out = np.linalg.lstsq(np.column_stack([ones, t, m, t * m, X]), y, rcond=None)[0]
    alpha2, beta2, xi2 = med[0], med[1], med[2:]
    beta3, gamma, eta = out[1], out[2], out[3]
    mu0 = alpha2 + xi2 @ X.mean(axis=0)
    mu1 = mu0 + beta2
    return np.array(
        [beta2 * gamma, beta2 * (gamma + eta), beta3 + eta * mu0, beta3 + eta * mu1, beta3 + beta2 * gamma + eta * mu1]
    )


def close(actual, expected, rtol: float) -> bool:
    """Elementwise relative agreement; NaN matches NaN (a failure that reproduces)."""
    a = np.asarray(actual, dtype=float)
    b = np.asarray(expected, dtype=float)
    if a.shape != b.shape:
        return False
    both_nan = np.isnan(a) & np.isnan(b)
    ok = np.abs(a - b) <= rtol * np.maximum(np.abs(a), np.abs(b)) + ABS_FLOOR
    return bool(np.all(both_nan | ok))


def interval_problems(label: str, est, lo, hi) -> list[str]:
    est, lo, hi = (np.asarray(v, dtype=float) for v in (est, lo, hi))
    if not (np.all(np.isfinite(est)) and np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        return [f"{label}: non-finite estimate or interval"]
    if not np.all((lo <= est) & (est <= hi)):
        return [f"{label}: estimate outside its interval"]
    return []


def ols_problems(label: str, est, lo, hi, expected: np.ndarray) -> list[str]:
    problems = interval_problems(label, est, lo, hi)
    if not close(est, expected, OLS_RTOL):
        problems.append(f"{label}: OLS effects differ from the lstsq recomputation")
    return problems


def reference_problems(name: str, outputs: dict) -> list[str]:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        stored = json.load(fh)[name]
    if set(stored) != set(outputs):
        return [f"{name} reference: keys differ"]
    return [
        f"{name} reference: {key} differs beyond {REFERENCE_RTOL:g} relative"
        for key in sorted(stored)
        if not close(outputs[key], stored[key], REFERENCE_RTOL)
    ]


def warm_up_mediate(seed: int) -> None:
    table = inputs.mediation_table(inputs.rng_for(seed, 99), 300, 1)
    inference.mediate(dataset_from_arrays(**table), "T", "M", "Y", covariates=("X1",), interaction=True, method="both")


class McGate:
    """Four error laws at n=300 plus the n=220 power study, REPS replicates each."""

    name = "mc_gate_n300"
    N = 300
    REPS = 8
    REFERENCE_REPS = 2

    def __init__(self, seed: int, workdir: str, workers: int) -> None:
        self.seed = seed
        self.workers = workers

    @staticmethod
    def write_inputs(seed: int, workdir: str) -> None:
        """The inputs are scenario configurations; the program draws its own replicates."""

    def warm_up(self) -> None:
        warm_up_mediate(self.seed)

    def run(self, k: int):
        return self._gate(self.seed * 1000 + k, self.REPS)

    def _gate(self, seed: int, reps: int):
        scenarios = [
            simulation.ScenarioConfig(simulation.ErrorSpec(law), n=self.N, reps=reps, seed=seed)
            for law in simulation.ERROR_LAWS
        ]
        power = simulation.power_config(reps=reps, seed=seed)
        t0 = time.perf_counter()
        outs = [simulation.run_scenario(c, workers=self.workers) for c in scenarios]
        report = simulation.run_power_study(power, workers=self.workers)
        return time.perf_counter() - t0, 5 * reps, (scenarios, outs, power, report)

    def check(self, payload) -> Tally:
        scenarios, outs, power, report = payload
        tally = Tally()
        for cfg, (_, results) in zip(scenarios, outs):
            by_rep: dict[int, dict] = {}
            for r in results:
                by_rep.setdefault(r.replicate_index, {})[r.method] = r
            for i in range(cfg.reps):
                label = f"{cfg.error.law} seed {cfg.seed} replicate {i}"
                ols, semi = by_rep[i][OLS], by_rep[i][SEMI]
                problems: list[str] = []
                if not ols.success:
                    problems.append(f"{label}: OLS fit raised")
                else:
                    expected = ols_effects(simulation.generate_interaction_dataset(cfg, i).columns, ())
                    problems += ols_problems(f"{label} OLS", ols.estimates, ols.ci_lower, ols.ci_upper, expected)
                tally.semi(1, 0 if semi.success else 1)
                if semi.success:
                    problems += interval_problems(f"{label} semiparametric", semi.estimates, semi.ci_lower, semi.ci_upper)
                tally.units(1, problems)

        label = f"power seed {power.seed}"
        ols, semi = report.methods[OLS], report.methods[SEMI]
        problems = []
        if ols.reps_used != power.reps:
            problems.append(f"{label}: OLS fit raised")
        else:
            expected = np.mean(
                [ols_effects(simulation.generate_interaction_dataset(power, i).columns, ())[ACME0] for i in range(power.reps)]
            )
            if not close(ols.mean_estimate, expected, OLS_RTOL):
                problems.append(f"{label}: OLS mean ACME(0) differs from the lstsq recomputation")
        for s in (ols, semi):
            if s.reps_used and not (
                math.isfinite(s.mean_estimate) and s.avg_ci_length > 0.0 and 0.0 <= s.rejection_rate <= 1.0
            ):
                problems.append(f"{label}: {s.method} summary is not finite or out of range")
        tally.semi(power.reps, power.reps - semi.reps_used)
        for s in (ols, semi):
            if s.reps_used:
                tally.length(s.method, s.avg_ci_length * s.reps_used, s.reps_used)
        tally.units(power.reps, problems)
        return tally

    def reference_outputs(self):
        payload = self._gate(REFERENCE_SEED, self.REFERENCE_REPS)[2]
        scenarios, outs, _, report = payload
        outputs = {
            f"{cfg.error.law}/{r.replicate_index}": [list(r.estimates), list(r.ci_lower), list(r.ci_upper)]
            for cfg, (_, results) in zip(scenarios, outs)
            for r in results
            if r.method == SEMI
        }
        s = report.methods[SEMI]
        outputs["power"] = [s.mean_estimate, s.avg_ci_length, s.rejection_rate]
        return outputs, payload


class CliOls:
    """The command line on a 200 000-row CSV: OLS, interaction, three covariates, JSON and SVG out."""

    name = "cli_ols_n200k"
    N = 200_000
    WARM_N = 500
    COVARIATES = ("X1", "X2", "X3")

    def __init__(self, seed: int, workdir: str, workers: int) -> None:
        self.workdir = workdir
        self.expected = ols_effects(self.table(seed, self.N), self.COVARIATES)

    @classmethod
    def table(cls, seed: int, n: int) -> dict[str, np.ndarray]:
        return inputs.mediation_table(inputs.rng_for(seed, 3, n), n, len(cls.COVARIATES))

    @classmethod
    def write_inputs(cls, seed: int, workdir: str) -> None:
        for n in (cls.N, cls.WARM_N):
            inputs.write_csv(os.path.join(workdir, f"cli_{n}.csv"), cls.table(seed, n))

    def argv(self, n: int) -> list[str]:
        d = self.workdir
        return [
            "mediate", "--data", os.path.join(d, f"cli_{n}.csv"),
            "--treatment", "T", "--mediator", "M", "--outcome", "Y",
            "--covariates", ",".join(self.COVARIATES), "--interaction", "--method", "ols",
            "--out", os.path.join(d, "report.json"), "--plot", os.path.join(d, "forest.svg"),
        ]  # fmt: skip

    def warm_up(self) -> None:
        cli.main(self.argv(self.WARM_N))

    def run(self, k: int):
        argv = self.argv(self.N)
        t0 = time.perf_counter()
        rc = cli.main(argv)
        return time.perf_counter() - t0, 1, rc

    def check(self, rc) -> Tally:
        tally = Tally()
        problems: list[str] = []
        if rc != cli.EXIT_OK:
            problems.append(f"cli exited with {rc}")
        else:
            with open(os.path.join(self.workdir, "report.json"), encoding="utf-8") as fh:
                effects = json.load(fh)["effects"][OLS]["effects"]
            est, lo, hi = (np.array([e[key] for e in effects]) for key in ("estimate", "ci_lower", "ci_upper"))
            problems += ols_problems("cli report", est, lo, hi, self.expected)
            with open(os.path.join(self.workdir, "forest.svg"), encoding="utf-8") as fh:
                if not fh.read().startswith("<svg"):
                    problems.append("cli forest plot is not an SVG document")
            tally.length(OLS, float(hi[ACME0] - lo[ACME0]), 1)
        tally.units(1, problems)
        return tally

    def reference_outputs(self):
        """No semiparametric fit runs here; every call is checked against the lstsq recomputation."""
        return None, None


WORKLOADS = {w.name: w for w in (McGate, CliOls)}
