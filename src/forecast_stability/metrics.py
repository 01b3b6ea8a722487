"""Forecast post-processing, stability grids, accuracy, and summaries.

Stability of a forecaster is measured by refitting it R times on fixed
inputs, varying only the seed, and computing a per-cell coefficient of
variation over the R forecasts: one CV value for every (series, horizon
step) cell. Before any statistic, forecasts are post-processed: negatives
clipped to zero, then rounded to whole units. Rounding removes the
tiny-mean blowup of sigma/mu, and on the resulting nonnegative integers a
zero mean forces a zero standard deviation, so CV := 0 there is the only
sensible completion and CV is total and finite.

Accuracy is root mean squared error per run, in demand units.

Reductions over the run axis are accumulated sequentially (run 0 first) so
results are bit-for-bit reproducible and match a straightforward per-cell
recomputation exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ForecastStabilityError

DEFAULT_QUANTILES = (0.25, 0.50, 0.75, 0.90)
_INT64_LIMIT = 2.0**63


class MetricsError(ForecastStabilityError):
    pass


class NonFiniteInput(MetricsError):
    pass


class OutOfRange(MetricsError):
    pass


class EmptySample(MetricsError):
    pass


class ShapeMismatch(MetricsError):
    pass


class EmptyInput(MetricsError):
    pass


class ProbOutOfRange(MetricsError):
    pass


@dataclass(frozen=True, eq=False)
class ForecastSet:
    """R point-forecast runs for one model: an (R, M, H) tensor.

    All runs share series order and horizon; ``values[r, i, t]`` is run r's
    forecast for series i at horizon step t+1.
    """

    series_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 3:
            raise ValueError("values must be a (runs, series, horizon) tensor")
        if values.shape[0] < 1:
            raise ValueError("need at least one run")
        if values.shape[1] != len(self.series_ids):
            raise ValueError("series_ids length must match the series axis")
        values.flags.writeable = False
        object.__setattr__(self, "series_ids", tuple(self.series_ids))
        object.__setattr__(self, "values", values)

    @property
    def run_count(self) -> int:
        return self.values.shape[0]

    @property
    def n_series(self) -> int:
        return self.values.shape[1]

    @property
    def horizon(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True, eq=False)
class CvGrid:
    """Per-cell stability statistics over R runs: (M, H) matrices.

    ``cv[i, t] = std[i, t] / mean[i, t]`` with CV := 0 wherever the mean is
    zero. Means and standard deviations are in post-processed demand units;
    the standard deviation uses the R-1 denominator.
    """

    cv: np.ndarray
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        cv = np.array(self.cv, dtype=np.float64)
        mean = np.array(self.mean, dtype=np.float64)
        std = np.array(self.std, dtype=np.float64)
        if not (cv.shape == mean.shape == std.shape) or cv.ndim != 2:
            raise ValueError("cv, mean, std must be equal-shape 2-D matrices")
        for name, arr in (("cv", cv), ("mean", mean), ("std", std)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        if np.any(cv < 0):
            raise ValueError("cv must be nonnegative")
        zero_mean = mean == 0
        if np.any(std[zero_mean] != 0) or np.any(cv[zero_mean] != 0):
            raise ValueError("zero mean must imply zero std and zero cv")
        for arr in (cv, mean, std):
            arr.flags.writeable = False
        object.__setattr__(self, "cv", cv)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    @property
    def shape(self) -> tuple[int, int]:
        return self.cv.shape


@dataclass(frozen=True)
class AccuracyReport:
    """Per-run RMSE values for one model."""

    model_label: str
    rmse_per_run: tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(v) for v in self.rmse_per_run)
        if any(v < 0 or not math.isfinite(v) for v in values):
            raise ValueError("rmse values must be finite and nonnegative")
        object.__setattr__(self, "rmse_per_run", values)


@dataclass(frozen=True)
class Histogram:
    """Equal-width counts over [0, clip_upper], plus the excluded tail."""

    bins: tuple[tuple[float, float, int], ...]
    excluded: int

    @property
    def total_count(self) -> int:
        return sum(count for _, _, count in self.bins)


def postprocess(raw: np.ndarray) -> np.ndarray:
    """Clip negatives to zero, then round to the nearest whole unit.

    Halves round away from zero (clipping first makes that plain half-up).
    Returns an int64 array of the same shape; raises
    :class:`NonFiniteInput` on NaN or infinity and :class:`OutOfRange` on
    a value of 2**63 or more, which int64 cannot hold.
    """
    arr = np.asarray(raw, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput("forecasts must be finite before post-processing")
    # Below 2**63 a float64 is at most 2**63 - 1024, so rounding stays in range.
    if arr.size and arr.max() >= _INT64_LIMIT:
        raise OutOfRange(
            f"forecast {float(arr.max())!r} is beyond the int64 range of delivered forecasts"
        )
    return np.floor(np.maximum(arr, 0.0) + 0.5).astype(np.int64)


def cv_cell(sample: Sequence[float]) -> tuple[float, float, float]:
    """Coefficient of variation of one post-processed sample.

    Returns ``(cv, mean, std)`` with std using the n-1 denominator (std 0
    for a single observation) and CV := 0 when the mean is zero. Sums run
    left to right so the result is bit-identical to :func:`cv_grid`.
    """
    values = [float(v) for v in sample]
    n = len(values)
    if n == 0:
        raise EmptySample("cv_cell needs at least one value")
    total = 0.0
    for v in values:
        total += v
    mean = total / n
    if n < 2:
        std = 0.0
    else:
        ssq = 0.0
        for v in values:
            d = v - mean
            ssq += d * d
        std = math.sqrt(ssq / (n - 1))
    cv = std / mean if mean != 0.0 else 0.0
    return cv, mean, std


def cv_grid(fs: ForecastSet) -> CvGrid:
    """Per-cell CV statistics over the runs of a forecast set.

    Every run is post-processed first, then each (series, step) cell is
    treated as a sample of size R. Requires R >= 2.
    """
    if fs.run_count < 2:
        raise EmptySample("cv_grid needs at least 2 runs")
    runs = postprocess(fs.values).astype(np.float64)
    n = fs.run_count
    total = np.zeros(runs.shape[1:], dtype=np.float64)
    for r in range(n):
        total += runs[r]
    mean = total / n
    ssq = np.zeros_like(mean)
    for r in range(n):
        d = runs[r] - mean
        ssq += d * d
    std = np.sqrt(ssq / (n - 1))
    positive = mean > 0
    cv = np.zeros_like(mean)
    cv[positive] = std[positive] / mean[positive]
    return CvGrid(cv=cv, mean=mean, std=std)


def rmse(forecast: np.ndarray, actual: np.ndarray) -> float:
    """Root mean squared error over all cells, in demand units."""
    f = np.asarray(forecast, dtype=np.float64)
    a = np.asarray(actual, dtype=np.float64)
    if f.shape != a.shape:
        raise ShapeMismatch(f"forecast shape {f.shape} != actual shape {a.shape}")
    diff = f - a
    return float(np.sqrt(np.mean(diff * diff)))


def accuracy_report(fs: ForecastSet, actual: np.ndarray, label: str) -> AccuracyReport:
    """RMSE of each post-processed run against the test actuals."""
    actual = np.asarray(actual, dtype=np.float64)
    if actual.shape != fs.values.shape[1:]:
        raise ShapeMismatch(
            f"actuals shape {actual.shape} != forecast shape {fs.values.shape[1:]}"
        )
    runs = postprocess(fs.values)
    per_run = tuple(rmse(runs[r], actual) for r in range(fs.run_count))
    return AccuracyReport(model_label=label, rmse_per_run=per_run)


def quantiles(
    values: Iterable[float], probs: Sequence[float] = DEFAULT_QUANTILES
) -> list[float]:
    """Quantiles by linear interpolation between order statistics.

    Quantile p of n sorted values interpolates at fractional index
    p * (n - 1); p=0 is the minimum and p=1 the maximum.
    """
    data = np.sort(np.asarray(list(values), dtype=np.float64))
    if data.size == 0:
        raise EmptyInput("quantiles of an empty sample are undefined")
    out = []
    for p in probs:
        if not (0.0 <= p <= 1.0):
            raise ProbOutOfRange(f"quantile prob {p} outside [0, 1]")
        pos = p * (data.size - 1)
        lo = math.floor(pos)
        hi = math.ceil(pos)
        frac = pos - lo
        out.append(float(data[lo] + (data[hi] - data[lo]) * frac))
    return out


def histogram(
    values: Iterable[float], bin_count: int, clip_upper: float
) -> Histogram:
    """Equal-width histogram over [0, clip_upper] with a clipped tail.

    Values above ``clip_upper`` are excluded and counted separately (the
    long right tail of CV distributions is clipped for display). Bins are
    half-open [lo, hi) except the final bin, which is closed.
    """
    data = np.asarray(list(values), dtype=np.float64)
    if data.size == 0:
        raise EmptyInput("histogram of an empty sample is undefined")
    if bin_count < 1:
        raise ValueError("bin_count must be >= 1")
    if clip_upper <= 0:
        raise ValueError("clip_upper must be positive")
    kept = data[data <= clip_upper]
    excluded = int(data.size - kept.size)
    idx = np.floor(kept * bin_count / clip_upper).astype(np.int64)
    idx = np.clip(idx, 0, bin_count - 1)
    counts = np.bincount(idx, minlength=bin_count)
    bins = tuple(
        (i * clip_upper / bin_count, (i + 1) * clip_upper / bin_count, int(counts[i]))
        for i in range(bin_count)
    )
    return Histogram(bins=bins, excluded=excluded)
