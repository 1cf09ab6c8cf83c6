"""Benchmark inputs, generated by the harness from the workload seed.

The program under test receives only what is made here: a CSV file for
``cli_ols_n200k`` and the warm-up table. ``mc_gate_n300`` passes scenario
configurations, from which the program draws its own replicates. The error
law is the asymmetric mixture 0.9 N(-0.3, 0.5^2) + 0.1 N(2.7, 0.5^2), scaled
to unit variance, on which the semiparametric fit differs most from least
squares.
"""

from __future__ import annotations

import math

import numpy as np

# Covariates are X1..Xq, with these coefficients in the mediator and outcome models.
MEDIATOR_COVARIATE_COEFS = (0.3, -0.2, 0.1)
OUTCOME_COVARIATE_COEFS = (0.2, 0.1, -0.1)


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def asymmetric_mixture(rng: np.random.Generator, n: int) -> np.ndarray:
    upper = rng.random(n) >= 0.9
    means = np.where(upper, 2.7, -0.3)
    return (means + 0.5 * rng.standard_normal(n)) / math.sqrt(1.06)


def mediation_table(rng: np.random.Generator, n: int, q: int) -> dict[str, np.ndarray]:
    """T, M, Y and q covariates under M = .2 + .4T + xi'X + e2, Y = .5T - .8M + TM + zeta'X + e3."""
    t = (rng.random(n) < 0.5).astype(float)
    covs = {f"X{j + 1}": rng.standard_normal(n) for j in range(q)}
    m = 0.2 + 0.4 * t + asymmetric_mixture(rng, n)
    y = 0.5 * t + asymmetric_mixture(rng, n)
    for j, x in enumerate(covs.values()):
        m += MEDIATOR_COVARIATE_COEFS[j] * x
        y += OUTCOME_COVARIATE_COEFS[j] * x
    y += -0.8 * m + t * m
    return {"T": t, "M": m, "Y": y, **covs}


def write_csv(path: str, table: dict[str, np.ndarray]) -> None:
    """Write a header row and one row per observation.

    Cells are ``repr`` of Python floats: ``tolist`` converts the float64 values
    first, because under numpy 2 ``repr(np.float64(x))`` reads
    ``np.float64(x)``, which the CSV loader would drop as unparseable.
    """
    names = list(table)
    rows = np.column_stack([table[k] for k in names]).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        fh.write("\n".join(",".join(map(repr, row)) for row in rows))
        fh.write("\n")
