"""Convex-combination ensembles weighted on trailing validation windows.

Component forecasters are fit on the history before each validation window
and scored on the window itself; weights come from greedy forward
selection with replacement: start from the single best component, then
repeatedly add whichever component most lowers the pooled validation RMSE
of the running average, stopping when no addition improves it. Weights are
selection frequencies, so they are nonnegative and sum to one by
construction, and the selected combination never scores worse than the
best single component on validation.

Validation scoring applies the same clip-and-round post-processing the
experiment harness applies to delivered forecasts, so selection optimizes
the quantity that is actually reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import SplitSpec, TimeSeriesDataset, split
from .errors import ForecastStabilityError
from .forecasters import (
    Diverged,
    FittedForecaster,
    ForecasterKind,
    InsufficientHistory,
    fit,
    predict,
)
from .metrics import MetricsError, postprocess, rmse
from .seeding import derive_seed

DEFAULT_WINDOWS = 2
DEFAULT_ITERATIONS = 100

_WEIGHT_TOL = 1e-12
_DOMINANCE_TOL = 1e-9


class EnsembleError(ForecastStabilityError):
    pass


class LengthMismatch(EnsembleError):
    pass


class DominanceViolation(EnsembleError):
    """The greedy selection scored worse than its best single component."""


@dataclass(frozen=True)
class EnsembleSpec:
    """Components plus convex weights learned on validation windows."""

    components: tuple[ForecasterKind, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        components = tuple(self.components)
        weights = tuple(float(w) for w in self.weights)
        if len(components) != len(weights):
            raise LengthMismatch(
                f"{len(components)} components but {len(weights)} weights"
            )
        if not components:
            raise ValueError("ensemble needs at least one component")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        if abs(sum(weights) - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"weights sum to {sum(weights)!r}, expected 1")
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "weights", weights)


def component_seed(master: int, index: int) -> int:
    """Seed for component ``index``: independent across components,
    reproducible from the master seed."""
    return derive_seed(master, index)


def make_validation_windows(
    train: TimeSeriesDataset, horizon: int, n: int
) -> list[tuple[TimeSeriesDataset, np.ndarray]]:
    """The last ``n`` non-overlapping horizon-length blocks of a panel.

    Returns ``(inner_train, held_out)`` pairs oldest-first; each window's
    inner train is everything before its block. Requires history for all
    blocks plus a non-empty inner train.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if n < 1:
        raise ValueError("window count must be >= 1")
    needed = (n + 1) * horizon
    if train.length < needed:
        raise InsufficientHistory(
            f"{n} validation windows of length {horizon} need at least "
            f"{needed} observations, have {train.length}"
        )
    return [split(train, SplitSpec(train.length - (n - k) * horizon, horizon)) for k in range(n)]


def fit_ensemble(
    components: Sequence[ForecasterKind],
    train: TimeSeriesDataset,
    horizon: int,
    n_windows: int = DEFAULT_WINDOWS,
    seeds: tuple[int, ...] = (0,),
    iterations: int = DEFAULT_ITERATIONS,
) -> tuple[EnsembleSpec, ...]:
    """Learn convex weights by greedy forward selection with replacement.

    Returns one spec per seed, in seed order. Run ``r`` fits component
    ``j`` with seed ``component_seed(seeds[r], j)`` on each validation
    window; each (component, window) pair is fit once for all runs, and
    the specs equal those of fitting each seed alone. Selection scores a
    candidate multiset by post-processing the average of its raw forecasts
    and taking RMSE against the held-out blocks, pooled over all windows.
    Greedy rounds stop as soon as no addition strictly improves the score,
    so at most ``iterations`` rounds run and the result never scores worse
    than the best single component.
    """
    components = tuple(components)
    seeds = tuple(seeds)
    if not components:
        raise ValueError("ensemble needs at least one component")
    if not seeds:
        raise ValueError("fit_ensemble needs at least one seed")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    windows = make_validation_windows(train, horizon, n_windows)
    actual = np.stack([held_out for _, held_out in windows])

    # forecasts[r][j]: component j's raw forecasts of run r, stacked over
    # windows. Runs that share fitted models (deterministic kinds) share one.
    forecasts: list[list[np.ndarray]] = [[] for _ in seeds]
    for index, kind in enumerate(components):
        component_seeds = tuple(component_seed(seed, index) for seed in seeds)
        fitted = [fit(kind, inner, component_seeds) for inner, _ in windows]
        stacked: dict[tuple[FittedForecaster, ...], np.ndarray] = {}
        for run, models in enumerate(zip(*fitted)):
            if models not in stacked:
                stacked[models] = np.stack([predict(model, horizon) for model in models])
            forecasts[run].append(stacked[models])

    specs = []
    for run, run_forecasts in enumerate(forecasts):
        try:
            counts = _select(run_forecasts, actual, iterations)
        except MetricsError as exc:
            raise Diverged(f"validation forecasts cannot be scored: {exc}", (run,)) from exc
        total = sum(counts)
        specs.append(
            EnsembleSpec(components=components, weights=tuple(c / total for c in counts))
        )
    return tuple(specs)


def _select(forecasts: list[np.ndarray], actual: np.ndarray, iterations: int) -> list[int]:
    """Greedy forward selection with replacement; returns selection counts."""

    def score(forecast_sum: np.ndarray, count: int) -> float:
        return rmse(postprocess(forecast_sum / count), actual)

    single_scores = [score(fc, 1) for fc in forecasts]
    best_single = int(np.argmin(single_scores))
    counts = [0] * len(forecasts)
    counts[best_single] = 1
    total = 1
    running_sum = forecasts[best_single].copy()
    current = single_scores[best_single]

    for _ in range(iterations):
        candidate_scores = [
            score(running_sum + fc, total + 1) for fc in forecasts
        ]
        best = int(np.argmin(candidate_scores))
        if candidate_scores[best] >= current:
            break
        counts[best] += 1
        total += 1
        running_sum += forecasts[best]
        current = candidate_scores[best]

    if not current <= min(single_scores) + _DOMINANCE_TOL:
        raise DominanceViolation(
            f"greedy selection scored {current!r}, worse than the best single "
            f"component's {min(single_scores)!r}"
        )
    return counts


def predict_ensemble(
    specs: Sequence[EnsembleSpec],
    fitted: Sequence[Sequence[FittedForecaster]],
    horizon: int,
) -> tuple[np.ndarray, ...]:
    """One raw forecast per run: the weighted sum of its component predictions.

    ``fitted[r]`` holds run ``r``'s fitted components in the order of
    ``specs[r].components``. A model shared by several runs is predicted once.
    """
    if len(fitted) != len(specs):
        raise LengthMismatch(f"{len(specs)} specs but fitted models for {len(fitted)} runs")
    predicted: dict[FittedForecaster, np.ndarray] = {}
    combined = []
    for spec, models in zip(specs, fitted):
        kinds = tuple(model.kind for model in models)
        if kinds != spec.components:
            raise LengthMismatch(f"fitted kinds {kinds!r} do not match {spec.components!r}")
        total = None
        for weight, model in zip(spec.weights, models):
            if model not in predicted:
                predicted[model] = predict(model, horizon)
            term = weight * predicted[model]
            total = term if total is None else total + term
        combined.append(total)
    return tuple(combined)
