"""Spans around the package's public functions, recorded from outside the package.

Modules import each other's functions by name, so a function is wrapped at
every module attribute through which it is called (``cli.load_csv``,
``inference.fit_semiparametric``, ``simulation.mediate`` ...). Spans are kept in
memory and turned into per-layer metrics once a traced call has finished.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable


def _fit_info(args: tuple, result: Any) -> dict:
    diag = getattr(result, "diagnostics", None)
    if diag is None:
        return {"failed": True}
    return {"failed": False, "start": diag.start_index_used}


def _newton_info(args: tuple, result: Any) -> dict:
    return {"iterations": result.iterations}


def _psi_info(args: tuple, result: Any) -> dict:
    return {"n": int(args[0].values.shape[0])}


REPLICATE_SPAN = "simulation.replicate"

# (module, attribute, span name, info taken from the arguments and result).
PATCH_POINTS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("semimediation.cli", "main", "cli.main", None),
    ("semimediation.cli", "load_csv", "data.load_csv", None),
    ("semimediation.cli", "mediate", "inference.mediate", None),
    ("semimediation.cli", "build_mediate_report", "cli.build_mediate_report", None),
    ("semimediation.cli", "emit_forest_svg", "cli.emit_forest_svg", None),
    ("semimediation.simulation", "run_scenario", "simulation.run_scenario", None),
    ("semimediation.simulation", "run_power_study", "simulation.run_power_study", None),
    ("semimediation.simulation", "run_replicates", "simulation.run_replicates", None),
    ("semimediation.simulation", "_run_replicate", REPLICATE_SPAN, None),
    ("semimediation.simulation", "generate_interaction_dataset", "simulation.generate_interaction_dataset", None),
    ("semimediation.simulation", "mediate", "inference.mediate", None),
    ("semimediation.simulation", "aggregate_metrics", "simulation.aggregate_metrics", None),
    ("semimediation.inference", "mediate", "inference.mediate", None),
    ("semimediation.inference", "build_design", "data.build_design", None),
    ("semimediation.inference", "fit_ols", "estimators.fit_ols", None),
    ("semimediation.inference", "fit_semiparametric", "estimators.fit_semiparametric", _fit_info),
    ("semimediation.inference", "stack_fits", "inference.stack_fits", None),
    ("semimediation.inference", "effects_from_stacked", "inference.effects_from_stacked", None),
    ("semimediation.estimators", "fit_ols", "estimators.fit_ols", None),
    ("semimediation.estimators", "newton_root", "estimators.newton_root", _newton_info),
    ("semimediation.estimators", "semiparam_psi", "estimators.semiparam_psi", _psi_info),
)

START_INDICES = range(5)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    unit: int
    thread: int
    info: dict | None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Collects spans; a span's parent is the innermost open span on its thread.

    A unit is one call of the workload or one simulation replicate: top-level
    spans and replicate spans start a new one. A span opened on a worker thread
    with nothing open there belongs to the span the main thread is blocked in
    (``run_replicates`` waiting on its pool).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: list[tuple[int, int]] = []

    def _stack(self) -> list[tuple[int, int]]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, info: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            sid = next(self._ids)
            if stack:
                parent, unit = stack[-1][0], stack[-1][1]
            else:
                outer = self._main_stack[-1:] if stack is not self._main_stack else []
                parent, unit = (outer[0][0] if outer else None), sid
            if name == REPLICATE_SPAN:
                unit = sid
            stack.append((sid, unit))
            extra = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    extra = info(args, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, unit, threading.get_ident(), extra))

        return traced

    @contextmanager
    def installed(self):
        """Replace every patch point with its traced wrapper for the duration."""
        saved = []
        try:
            for module_name, attr, name, info in PATCH_POINTS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, info))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def _union_ms(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total * 1e3


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover (ms)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            children[s.parent].append((max(s.start, p.start), min(s.end, p.end)))
    return {s.id: s.ms - _union_ms(children[s.id]) for s in spans}


# Counts that do not depend on the machine; they must repeat exactly for the
# same inputs.
COUNT_METRICS = (
    "estimators.fit_semiparametric.calls",
    "estimators.fit_semiparametric.failures",
    *(f"estimators.fit_semiparametric.start_{i}" for i in START_INDICES),
    "estimators.newton_root.calls",
    "estimators.newton_root.iterations",
    "estimators.semiparam_psi.calls",
    "estimators.kernel_elements",
)


def layer_metrics(spans: list[Span], workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced call.

    ``estimators.kernel_elements`` is computed, not measured: the sum of n^2
    over the ``semiparam_psi`` calls that returned, each of which builds n x n
    kernel arrays. A ratio whose base is zero (the layer did no work) is 0.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def ms(name: str) -> float:
        return sum(s.ms for s in by_name[name])

    def self_ms(name: str) -> float:
        return sum(own[s.id] for s in by_name[name])

    fits = [s for s in by_name["estimators.fit_semiparametric"] if s.info is not None]
    accepted = sum(1 for s in fits if not s.info["failed"])
    newton = by_name["estimators.newton_root"]
    replicate_ids = {s.id for s in by_name[REPLICATE_SPAN]}
    replicate_mediate_ms = sum(s.ms for s in by_name["inference.mediate"] if s.parent in replicate_ids)
    pool_ms = ms("simulation.run_replicates")

    out = {
        "data.load_csv.ms": ms("data.load_csv"),
        "data.build_design.ms": ms("data.build_design"),
        "estimators.fit_ols.ms": ms("estimators.fit_ols"),
        "inference.stack_fits.ms": ms("inference.stack_fits"),
        "estimators.fit_semiparametric.ms": ms("estimators.fit_semiparametric"),
        "estimators.fit_semiparametric.self_ms": self_ms("estimators.fit_semiparametric"),
        "estimators.fit_semiparametric.calls": len(by_name["estimators.fit_semiparametric"]),
        "estimators.fit_semiparametric.failures": len(by_name["estimators.fit_semiparametric"]) - accepted,
        "estimators.newton_root.ms": ms("estimators.newton_root"),
        "estimators.newton_root.calls": len(newton),
        "estimators.newton_root.iterations": sum(s.info["iterations"] for s in newton if s.info),
        "estimators.newton_root.accepted_ratio": accepted / len(newton) if newton else 0.0,
        "estimators.semiparam_psi.ms": ms("estimators.semiparam_psi"),
        "estimators.semiparam_psi.calls": len(by_name["estimators.semiparam_psi"]),
        "estimators.kernel_elements": sum(s.info["n"] ** 2 for s in by_name["estimators.semiparam_psi"] if s.info),
        "inference.effects_from_stacked.ms": ms("inference.effects_from_stacked"),
        "inference.mediate.self_ms": self_ms("inference.mediate"),
        "simulation.generate_interaction_dataset.ms": ms("simulation.generate_interaction_dataset"),
        "simulation.aggregate_metrics.ms": ms("simulation.aggregate_metrics"),
        "simulation.busy_ratio": replicate_mediate_ms / (workers * pool_ms) if pool_ms > 0 else 0.0,
        "cli.main.ms": ms("cli.main"),
        "cli.build_mediate_report.ms": ms("cli.build_mediate_report"),
        "cli.emit_forest_svg.ms": ms("cli.emit_forest_svg"),
    }
    for i in START_INDICES:
        out[f"estimators.fit_semiparametric.start_{i}"] = sum(1 for s in fits if s.info.get("start") == i)
    return out
