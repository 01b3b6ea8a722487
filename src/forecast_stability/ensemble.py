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


class EnsembleError(ForecastStabilityError):
    pass


class LengthMismatch(EnsembleError):
    pass


class DominanceViolation(EnsembleError):
    """The greedy selection scored worse than its best single component."""


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
) -> np.ndarray:
    """Learn convex weights by greedy forward selection with replacement.

    Returns a read-only float64 matrix of shape ``(len(seeds),
    len(components))``: row ``r`` holds run ``r``'s weights, its selection
    counts over their sum. Run ``r`` fits component ``j`` with seed
    ``component_seed(seeds[r], j)`` on each validation window; each
    (component, window) pair is fit once for all runs, and each row equals
    the one of fitting that seed alone. Selection scores a
    candidate multiset by post-processing the average of its raw forecasts
    and taking RMSE against the held-out blocks, pooled over all windows.
    The first round picks the best single component; at most
    ``iterations`` more rounds follow, and they stop as soon as no addition
    strictly improves the score, so the result never scores worse than the
    best single component.
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

    # per_component[j][r]: component j's raw forecasts of run r, stacked over
    # windows. Runs that share fitted models (deterministic kinds) share one.
    per_component = []
    for index, kind in enumerate(components):
        component_seeds = tuple(component_seed(seed, index) for seed in seeds)
        runs = list(zip(*(fit(kind, inner, component_seeds) for inner, _ in windows)))
        stacked = {
            models: np.stack([predict(model, horizon) for model in models])
            for models in dict.fromkeys(runs)
        }
        per_component.append([stacked[models] for models in runs])

    counts = np.empty((len(seeds), len(components)), dtype=np.int64)
    for run, forecasts in enumerate(zip(*per_component)):
        try:
            counts[run] = _select(forecasts, actual, iterations)
        except MetricsError as exc:
            raise Diverged(f"validation forecasts cannot be scored: {exc}", (run,)) from exc
    weights = counts / counts.sum(axis=1, keepdims=True)
    weights.flags.writeable = False
    return weights


def _select(forecasts: Sequence[np.ndarray], actual: np.ndarray, iterations: int) -> list[int]:
    """Greedy forward selection with replacement; returns selection counts.

    Each round scores the running sum plus each component, averaged, and
    adds the best. The first round, from an empty sum, picks the best single
    component; at most ``iterations`` more rounds follow, stopping at the
    first that does not strictly lower the score.
    """
    counts = [0] * len(forecasts)
    running_sum = np.zeros_like(forecasts[0])
    for total in range(1, iterations + 2):
        scores = [rmse(postprocess((running_sum + fc) / total), actual) for fc in forecasts]
        best = int(np.argmin(scores))
        if total == 1:
            best_single = scores[best]
        elif not scores[best] < current:
            break
        counts[best] += 1
        running_sum += forecasts[best]
        current = scores[best]

    if not current <= best_single:
        raise DominanceViolation(
            f"greedy selection scored {current!r}, worse than the best single "
            f"component's {best_single!r}"
        )
    return counts


def predict_ensemble(
    components: Sequence[ForecasterKind],
    weights: np.ndarray,
    fitted: Sequence[Sequence[FittedForecaster]],
    horizon: int,
) -> tuple[np.ndarray, ...]:
    """One raw forecast per run: the weighted sum of its component predictions.

    ``weights`` is a (runs, components) matrix, as :func:`fit_ensemble`
    returns, whose rows are convex. ``fitted[r]`` holds run ``r``'s fitted
    components in the order of ``components``. Every check runs before any
    prediction, and a model shared by several runs is predicted once.
    """
    components = tuple(components)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[1] != len(components):
        raise LengthMismatch(f"{len(components)} components but weights of shape {weights.shape}")
    if len(weights) != len(fitted):
        raise LengthMismatch(f"{len(weights)} weight rows but fitted models for {len(fitted)} runs")
    for run, (row, models) in enumerate(zip(weights, fitted)):
        if (row < 0).any():
            raise ValueError(f"run {run}: weights must be nonnegative")
        if not abs(row.sum() - 1.0) <= _WEIGHT_TOL:
            raise ValueError(f"run {run}: weights sum to {row.sum()!r}, expected 1")
        kinds = tuple(model.kind for model in models)
        if kinds != components:
            raise LengthMismatch(f"run {run}: fitted kinds {kinds!r} do not match {components!r}")
    predicted = {
        model: predict(model, horizon)
        for model in dict.fromkeys(model for models in fitted for model in models)
    }
    return tuple(
        sum(weight * predicted[model] for weight, model in zip(row, models))
        for row, models in zip(weights, fitted)
    )
