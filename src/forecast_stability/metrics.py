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
from typing import Sequence

import numpy as np

from .errors import ForecastStabilityError

DEFAULT_QUANTILES = (0.25, 0.50, 0.75, 0.90)
# The CV histogram SVG's plot area is 560 px wide (640 less its 60 and 20
# px margins); with more bins than that, bars are narrower than a pixel.
MAX_BINS = 560
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
            arr.flags.writeable = False
        if np.any(cv < 0):
            raise ValueError("cv must be nonnegative")
        zero_mean = mean == 0
        if np.any(std[zero_mean] != 0) or np.any(cv[zero_mean] != 0):
            raise ValueError("zero mean must imply zero std and zero cv")
        object.__setattr__(self, "cv", cv)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    @property
    def shape(self) -> tuple[int, int]:
        return self.cv.shape


@dataclass(frozen=True)
class AccuracyReport:
    """Per-run RMSE values for one model."""

    rmse_per_run: tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(v) for v in self.rmse_per_run)
        if any(v < 0 or not math.isfinite(v) for v in values):
            raise ValueError("rmse values must be finite and nonnegative")
        object.__setattr__(self, "rmse_per_run", values)


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


def _run_grid(values: np.ndarray, min_runs: int, caller: str) -> np.ndarray:
    """``values`` as an (R, M, H) grid of at least ``min_runs`` runs."""
    grid = np.asarray(values)
    if grid.ndim != 3:
        raise ShapeMismatch(f"{caller} needs a (runs, series, horizon) grid, not {grid.shape}")
    if len(grid) < min_runs:
        raise EmptySample(f"{caller} needs at least {min_runs} runs, got {len(grid)}")
    return grid


def cv_grid(values: np.ndarray) -> CvGrid:
    """Per-cell CV statistics over the runs of an (R, M, H) forecast grid.

    Every run is post-processed first, then each (series, step) cell is
    treated as a sample of size R. Raises :class:`ShapeMismatch` unless the
    grid is 3-D and :class:`EmptySample` unless R >= 2.
    """
    runs = postprocess(_run_grid(values, 2, "cv_grid")).astype(np.float64)
    n = len(runs)
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
    """Root mean squared error over all cells, in demand units.

    Raises :class:`OutOfRange` when the result is not finite, as it is for
    finite inputs that differ by more than about 1.3e154.
    """
    f = np.asarray(forecast, dtype=np.float64)
    a = np.asarray(actual, dtype=np.float64)
    if f.shape != a.shape:
        raise ShapeMismatch(f"forecast shape {f.shape} != actual shape {a.shape}")
    with np.errstate(over="ignore"):
        diff = f - a
        value = float(np.sqrt(np.mean(diff * diff)))
    if not math.isfinite(value):
        raise OutOfRange(f"rmse is {value!r}, beyond the float64 range")
    return value


def accuracy_report(values: np.ndarray, actual: np.ndarray) -> AccuracyReport:
    """RMSE of each post-processed run of an (R, M, H) grid against the test actuals."""
    grid = _run_grid(values, 1, "accuracy_report")
    actual = np.asarray(actual, dtype=np.float64)
    if actual.shape != grid.shape[1:]:
        raise ShapeMismatch(f"actuals shape {actual.shape} != forecast shape {grid.shape[1:]}")
    per_run = tuple(rmse(run, actual) for run in postprocess(grid))
    return AccuracyReport(per_run)


def quantiles(
    values: Sequence[float] | np.ndarray, probs: Sequence[float] = DEFAULT_QUANTILES
) -> list[float]:
    """Quantiles by linear interpolation between order statistics.

    Quantile p of n sorted values interpolates at fractional index
    p * (n - 1); p=0 is the minimum and p=1 the maximum. Raises
    :class:`NonFiniteInput` on NaN or infinity.
    """
    data = np.sort(np.asarray(values, dtype=np.float64))
    if data.size == 0:
        raise EmptyInput("quantiles of an empty sample are undefined")
    if not np.isfinite(data).all():
        raise NonFiniteInput("quantiles need finite values")
    for p in probs:
        if not (0.0 <= p <= 1.0):
            raise ProbOutOfRange(f"quantile prob {p} outside [0, 1]")
    pos = np.array(probs, dtype=np.float64) * (data.size - 1)
    floor = np.floor(pos)
    low, high = data[floor.astype(np.intp)], data[np.ceil(pos).astype(np.intp)]
    return (low + (high - low) * (pos - floor)).tolist()


def histogram(
    values: Sequence[float] | np.ndarray, bin_count: int, clip_upper: float
) -> dict:
    """Equal-width histogram over [0, clip_upper] with a clipped tail.

    Returns report.json's ``cv_histogram`` object: ``{"bins": [{"lower",
    "upper", "count"}, ...], "excluded": n}``. Values above ``clip_upper``
    are excluded and counted separately (the long right tail of CV
    distributions is clipped for display). Bins are half-open [lower,
    upper) except the final bin, which is closed. Raises
    :class:`NonFiniteInput` on NaN or infinity and :class:`OutOfRange` on
    a negative value.
    """
    data = np.asarray(values, dtype=np.float64)
    if data.size == 0:
        raise EmptyInput("histogram of an empty sample is undefined")
    if not np.isfinite(data).all():
        raise NonFiniteInput("histogram values must be finite")
    if (data < 0).any():
        raise OutOfRange(f"histogram values must be nonnegative, got {float(data.min())!r}")
    if bin_count < 1:
        raise ValueError("bin_count must be >= 1")
    if bin_count > MAX_BINS:
        raise ValueError(f"bin_count must be <= {MAX_BINS}")
    if not 0 < clip_upper < math.inf:
        raise ValueError(f"clip_upper must be positive and finite, got {clip_upper!r}")
    kept = data[data <= clip_upper]
    idx = np.floor(kept * bin_count / clip_upper).astype(np.int64)
    idx = np.clip(idx, 0, bin_count - 1)
    counts = np.bincount(idx, minlength=bin_count)
    edges = [i * clip_upper / bin_count for i in range(bin_count + 1)]
    bins = [
        {"lower": lo, "upper": hi, "count": int(n)} for lo, hi, n in zip(edges, edges[1:], counts)
    ]
    return {"bins": bins, "excluded": int(data.size - kept.size)}
