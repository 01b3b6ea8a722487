"""In-process span tracing of the forecast_stability modules.

The benchmark records spans from its own files: ``install`` replaces each
public function of the eight package modules with a wrapper that appends
one span per call (name, start, end, parent, attributes) to an in-memory
list. Modules import each other's functions by name (``from .forecasters
import fit``), so a wrapper is installed at every module binding of the
function, not only where it is defined. ``Rng.permutation`` and
``Rng.normals`` are patched on the class. ``uninstall`` puts every
original back, so an untraced pass in the same process runs the
unmodified code.

A span's self time is its duration minus the durations of its direct
children. Spans nest, so the self times of all spans under one root add
up to the root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple

from workloads import SGD_KINDS

PACKAGE = "forecast_stability"
MODULES = ("seeding", "dataset", "forecasters", "ensemble", "harness", "metrics", "report", "cli")
RNG_METHODS = ("permutation", "normals")

# Called once per CSV cell by write_long_csv (584k calls on wide_io): a span
# per call would cost more than the work it measures, so its time stays in
# write_long_csv's self time.
NOT_WRAPPED = frozenset({"dataset.format_demand"})

ROOT = "pipeline"
KIND_NAMES = {
    "SeasonalNaive": "seasonal_naive",
    "GlobalMean": "global_mean",
    "LinearAR": "linear_ar",
    "TinyMLP": "tiny_mlp",
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for the root
    attrs: tuple | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _fit_attrs(kind, train, seed):
    return (kind, train.values.shape, seed)


def _cli_name(argv=None):
    return f"cli.{argv[0]}" if argv else "cli.cli_main"


# Span attributes and names that depend on the call's arguments.
ATTRS: dict[str, Callable] = {"forecasters.fit": _fit_attrs}
NAMERS: dict[str, Callable] = {"cli.cli_main": _cli_name}


class Tracer:
    """Collects spans; ``install``/``uninstall`` patch the package."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.wrapped: dict[str, int] = {}  # span name -> bindings replaced

    @contextlib.contextmanager
    def root(self):
        """The root span of one traced pass; clears the spans of the last one."""
        if self._stack:
            raise RuntimeError("root span opened inside another span")
        self.spans.clear()
        self.spans.append(None)
        self._stack.append(0)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[0] = Span(ROOT, start, end, -1, None)

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        attrs_of = ATTRS.get(name)
        namer = NAMERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(
                    namer(*args, **kwargs) if namer else name,
                    start,
                    end,
                    parent,
                    attrs_of(*args, **kwargs) if attrs_of else None,
                )

        return wrapper

    def install(self) -> None:
        self.wrapped = {}
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
        targets: dict[int, tuple[object, str]] = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                name = f"{short}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in NOT_WRAPPED
                ):
                    targets[id(obj)] = (obj, name)
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in targets.items()}
        bound = [
            m for key, m in sys.modules.items()
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for module in bound:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and obj is targets[id(obj)][0]:
                    self._patch(module, attr, wrappers[id(obj)])
                    name = targets[id(obj)][1]
                    self.wrapped[name] = self.wrapped.get(name, 0) + 1
        rng = modules["seeding"].Rng
        for attr in RNG_METHODS:
            name = f"seeding.Rng.{attr}"
            self._patch(rng, attr, self._wrap(vars(rng)[attr], name))
            self.wrapped[name] = 1

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def unpatched_bindings(self) -> list[str]:
        """Package bindings that still hold an original wrapped function."""
        originals = {id(orig) for _, _, orig in self._patches}
        missed = []
        for key, module in list(sys.modules.items()):
            if module is None or not (key == PACKAGE or key.startswith(PACKAGE + ".")):
                continue
            for attr, obj in vars(module).items():
                if id(obj) in originals and inspect.isfunction(obj):
                    missed.append(f"{key}.{attr}")
        return missed


def self_times(spans: list[Span]) -> list[float]:
    child_total = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_total[span.parent] += span.duration
    return [span.duration - child_total[i] for i, span in enumerate(spans)]


def sgd_steps(kind, shape: tuple[int, int]) -> int:
    """Mini-batch steps of one SGD fit, computed from the panel shape."""
    rows = shape[0] * (shape[1] - kind.lags)
    return kind.epochs * math.ceil(rows / kind.batch_size)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one traced pass (see README.md)."""
    selfs = self_times(spans)
    calls: Counter = Counter()
    inclusive: dict[str, float] = defaultdict(float)
    exclusive: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, selfs):
        calls[span.name] += 1
        inclusive[span.name] += span.duration
        exclusive[span.name] += own

    out: dict[str, float] = {}
    out["seeding.permutation.calls"] = calls["seeding.Rng.permutation"]
    out["seeding.permutation.self_s"] = exclusive["seeding.Rng.permutation"]

    fit_calls: Counter = Counter()
    fit_self: dict[str, float] = defaultdict(float)
    distinct = set()
    steps = 0
    sgd_self = 0.0
    validation_fit = all_fit = 0.0
    fit_ensemble_children = [0.0] * len(spans)
    score_calls = 0
    for i, (span, own) in enumerate(zip(spans, selfs)):
        parent_name = spans[span.parent].name if span.parent >= 0 else None
        if span.name == "forecasters.fit":
            kind, shape, seed = span.attrs
            kind_name = KIND_NAMES[type(kind).__name__]
            fit_calls[kind_name] += 1
            fit_self[kind_name] += own
            sgd = kind_name in SGD_KINDS
            # Deterministic kinds ignore the seed, so it is no part of their key.
            distinct.add((kind, shape, seed if sgd else None))
            if sgd:
                steps += sgd_steps(kind, shape)
                sgd_self += own
            all_fit += span.duration
            if parent_name == "ensemble.fit_ensemble":
                validation_fit += span.duration
        if parent_name == "ensemble.fit_ensemble":
            if span.name in ("forecasters.fit", "forecasters.predict"):
                fit_ensemble_children[span.parent] += span.duration
            if span.name == "metrics.postprocess":
                score_calls += 1
    total_fits = sum(fit_calls.values())
    for kind_name in KIND_NAMES.values():
        out[f"forecasters.fit.calls.{kind_name}"] = fit_calls[kind_name]
        out[f"forecasters.fit.self_s.{kind_name}"] = fit_self[kind_name]
    out["forecasters.fit.self_s"] = exclusive["forecasters.fit"]
    out["forecasters.sgd.steps"] = steps
    out["forecasters.sgd.us_per_step"] = sgd_self / steps * 1e6 if steps else 0.0
    out["forecasters.fit.useful_ratio"] = len(distinct) / total_fits if total_fits else 0.0
    out["forecasters.predict.calls"] = calls["forecasters.predict"]
    out["forecasters.predict.self_s"] = exclusive["forecasters.predict"]

    out["ensemble.fit_ensemble.calls"] = calls["ensemble.fit_ensemble"]
    out["ensemble.fit_ensemble.self_s"] = sum(
        span.duration - fit_ensemble_children[i]
        for i, span in enumerate(spans)
        if span.name == "ensemble.fit_ensemble"
    )
    out["ensemble.score_calls"] = score_calls
    out["ensemble.validation_fit_share"] = validation_fit / all_fit if all_fit else 0.0

    for name in ("synth_generate", "write_long_csv", "load_long_csv"):
        out[f"dataset.{name}.s"] = inclusive[f"dataset.{name}"]
    out["harness.run_experiment.self_s"] = exclusive["harness.run_experiment"]
    for name in ("persist_runs", "load_runs", "config_from_json"):
        out[f"harness.{name}.s"] = inclusive[f"harness.{name}"]
    out["metrics.postprocess.calls"] = calls["metrics.postprocess"]
    for name in ("cv_grid", "accuracy_report"):
        out[f"metrics.{name}.s"] = inclusive[f"metrics.{name}"]
    for name in ("write_metrics_files", "load_metrics_files", "build_report_bundle", "emit_plots"):
        out[f"report.{name}.s"] = inclusive[f"report.{name}"]
    for stage in ("generate", "run", "metrics", "report"):
        out[f"cli.{stage}.self_s"] = exclusive[f"cli.{stage}"]
    return out

