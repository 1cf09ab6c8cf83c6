"""The traced benchmark wraps package functions by (module, attribute) name.

A rename in the package would otherwise only surface when the benchmark runs;
here it fails the test suite. The benchmark's tracing module is read, not
changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


PATCH_POINTS = load_tracing().PATCH_POINTS


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _, _ in PATCH_POINTS])
def test_patch_point_resolves_to_a_callable(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))
