"""The traced benchmark wraps package functions by (module, attribute) name.

A rename or a signature change in the package would otherwise only surface
when the benchmark runs; here it fails the test suite. The benchmark's tracing
module is read, not changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from semimediation import dataset_from_arrays, mediate

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = load_tracing()
PATCH_POINTS = TRACING_MODULE.PATCH_POINTS


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _, _ in PATCH_POINTS])
def test_patch_point_resolves_to_a_callable(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def test_traced_semiparametric_mediate_counts_kernel_elements():
    rng = np.random.default_rng(3)
    n = 60
    t = (rng.random(n) < 0.5).astype(float)
    m = 0.5 * t + rng.laplace(size=n)
    y = 0.3 * t + 0.6 * m + rng.laplace(size=n)
    data = dataset_from_arrays(T=t, M=m, Y=y)
    tracer = TRACING_MODULE.Tracer()
    with tracer.installed():
        mediate(data, treatment="T", mediator="M", outcome="Y", method="both")
    metrics = TRACING_MODULE.layer_metrics(tracer.spans, workers=1)
    calls = metrics["estimators.semiparam_psi.calls"]
    assert calls > 0
    assert metrics["estimators.kernel_elements"] == calls * n**2


def test_traced_mediate_both_fits_each_model_by_least_squares_once():
    rng = np.random.default_rng(4)
    n = 60
    t = (rng.random(n) < 0.5).astype(float)
    m = 0.5 * t + rng.laplace(size=n)
    y = 0.3 * t + 0.6 * m + 0.2 * t * m + rng.laplace(size=n)
    data = dataset_from_arrays(T=t, M=m, Y=y)
    tracer = TRACING_MODULE.Tracer()
    with tracer.installed():
        mediate(data, treatment="T", mediator="M", outcome="Y", interaction=True, method="both")
    metrics = TRACING_MODULE.layer_metrics(tracer.spans, workers=1)
    assert sum(1 for s in tracer.spans if s.name == "estimators.fit_ols") == 2
    calls = metrics["estimators.fit_semiparametric.calls"]
    assert calls == 2
    per_start = sum(metrics[f"estimators.fit_semiparametric.start_{i}"] for i in TRACING_MODULE.START_INDICES)
    assert per_start == calls - metrics["estimators.fit_semiparametric.failures"]


def test_traced_mediate_records_one_effects_span_per_successful_method():
    # inference.effects_from_stacked.ms reads these spans; a mediate that
    # stopped calling effects_from_stacked through its module would leave it 0.
    rng = np.random.default_rng(5)
    n = 80
    t = (rng.random(n) < 0.5).astype(float)
    m = 0.5 * t + rng.laplace(size=n)
    y = 0.3 * t + 0.6 * m + 0.2 * t * m + rng.laplace(size=n)
    data = dataset_from_arrays(T=t, M=m, Y=y)
    tracer = TRACING_MODULE.Tracer()
    with tracer.installed():
        res = mediate(data, treatment="T", mediator="M", outcome="Y", interaction=True, method="both")
    succeeded = [method for method, mr in res.methods.items() if not mr.failed]
    assert succeeded == ["ols", "semiparametric"]
    assert sum(1 for s in tracer.spans if s.name == "inference.effects_from_stacked") == len(succeeded)
    assert TRACING_MODULE.layer_metrics(tracer.spans, workers=1)["inference.effects_from_stacked.ms"] > 0


def test_traced_newton_counts_match_the_fits_diagnostics():
    # The benchmark's Newton and fit counts read NewtonResult.iterations and
    # a fit's diagnostics.start_index_used; a change to either would
    # otherwise surface only when the benchmark runs.
    rng = np.random.default_rng(3)
    n = 60
    t = (rng.random(n) < 0.5).astype(float)
    m = 0.5 * t + rng.laplace(size=n)
    y = 0.3 * t + 0.6 * m + rng.laplace(size=n)
    data = dataset_from_arrays(T=t, M=m, Y=y)
    tracer = TRACING_MODULE.Tracer()
    with tracer.installed():
        res = mediate(data, treatment="T", mediator="M", outcome="Y", method="both")
    metrics = TRACING_MODULE.layer_metrics(tracer.spans, workers=1)
    semi = res.methods["semiparametric"]
    fits = (semi.mediator_fit, semi.outcome_fit)
    assert [fit.diagnostics.start_index_used for fit in fits] == [0, 0]
    assert metrics["estimators.newton_root.calls"] == 2
    assert metrics["estimators.newton_root.iterations"] == sum(fit.diagnostics.iterations for fit in fits)
    assert metrics["estimators.fit_semiparametric.start_0"] == 2
