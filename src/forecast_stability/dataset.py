"""Panel demand data: loading, validation, splitting, and synthesis.

The canonical in-memory form is a rectangular panel: M daily demand series
that share a start date and a common length T. Long-format CSV
(``item_id,date,demand``) is the interchange format; a seeded generator
produces desk-scale synthetic panels with controllable level, seasonality,
noise, and intermittency.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tabular
from .errors import ForecastStabilityError
from .seeding import Rng

# Fixed start date for synthetic panels; the generator has no calendar knob.
_SYNTH_START = dt.date(2020, 1, 1)


class DatasetError(ForecastStabilityError):
    pass


class MissingColumn(DatasetError):
    pass


class NonDailyGap(DatasetError):
    pass


class DuplicateCell(DatasetError):
    pass


class EmptyFile(DatasetError):
    pass


class SplitOutOfRange(DatasetError):
    pass


_CSV_ERRORS = tabular.Errors(
    MissingColumn, DatasetError, EmptyFile, DuplicateCell, NonDailyGap
)


@dataclass(frozen=True, eq=False)
class TimeSeriesDataset:
    """Rectangular panel of daily demand series.

    ``values`` is an (M, T) float64 matrix, row i holding the history of
    ``series_ids[i]`` starting at ``start_date``. Instances are immutable:
    the matrix is copied on construction and marked read-only.
    """

    series_ids: tuple[str, ...]
    start_date: dt.date
    values: np.ndarray

    def __post_init__(self):
        ids = tuple(str(s) for s in self.series_ids)
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("values must be a 2-D (series x time) matrix")
        if values.shape[0] != len(ids):
            raise ValueError(
                f"{len(ids)} series ids but {values.shape[0]} value rows"
            )
        if values.shape[1] < 1:
            raise ValueError("panel must span at least one timestamp")
        if len(set(ids)) != len(ids):
            raise ValueError("series_ids must be unique")
        if not np.all(np.isfinite(values)):
            raise ValueError("panel contains non-finite entries")
        values.flags.writeable = False
        object.__setattr__(self, "series_ids", ids)
        object.__setattr__(self, "values", values)

    @property
    def n_series(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SplitSpec:
    """Leading-train / held-out-horizon split of a panel."""

    train_length: int
    horizon: int

    def __post_init__(self):
        if self.train_length < 1:
            raise ValueError("train_length must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


@dataclass(frozen=True)
class SynthConfig:
    """Recipe for a seeded synthetic demand panel.

    Each series i is ``level_i + season_amplitude * sin(2*pi*t/season_period
    + phase_i) + noise``, clamped at zero, then each cell is independently
    zeroed with probability ``intermittency``. Levels are uniform over
    ``level_range`` and phases uniform over [0, 2*pi), all drawn from
    ``seed``; equal configs produce bit-identical panels.
    """

    n_series: int
    length: int
    level_range: tuple[float, float] = (50.0, 150.0)
    season_period: int = 7
    season_amplitude: float = 0.0
    noise_std: float = 0.0
    intermittency: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_series < 1 or self.length < 1:
            raise ValueError("n_series and length must be >= 1")
        lo, hi = self.level_range
        if not (0.0 <= lo <= hi):
            raise ValueError("level_range must satisfy 0 <= min <= max")
        if self.season_period < 1:
            raise ValueError("season_period must be >= 1")
        if self.season_amplitude < 0:
            raise ValueError("season_amplitude must be >= 0")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if not (0.0 <= self.intermittency <= 1.0):
            raise ValueError("intermittency must lie in [0, 1]")
        object.__setattr__(self, "level_range", (float(lo), float(hi)))


def load_long_csv(path: str | Path, fill_missing: bool = False) -> TimeSeriesDataset:
    """Load a long-format CSV (``item_id,date,demand``) into a dense panel.

    The panel spans the min..max date across all items. A missing
    (item, date) cell raises :class:`NonDailyGap` unless ``fill_missing``
    is true, in which case it becomes 0.0 (retail exports commonly omit
    zero-demand rows).
    """
    (ids, dates), (demand,) = tabular.read_csv(
        path, tabular.DATASET, _CSV_ERRORS, fill_missing
    )
    return TimeSeriesDataset(ids, dt.date.fromordinal(dates.start), demand)


def write_long_csv(ds: TimeSeriesDataset, path: str | Path) -> None:
    """Write a panel as long-format CSV, rows sorted by (item_id, date).

    Demand values are emitted with round-trip precision so that
    ``load_long_csv(write_long_csv(ds))`` reproduces the panel exactly.
    """
    dates = range(ds.start_date.toordinal(), ds.start_date.toordinal() + ds.length)
    tabular.write_csv(path, tabular.DATASET, (ds.series_ids, dates), (ds.values,))


def split(ds: TimeSeriesDataset, spec: SplitSpec) -> tuple[TimeSeriesDataset, np.ndarray]:
    """Split a panel into a training prefix and a held-out test block.

    Returns ``(train, test)`` where train holds the first ``train_length``
    columns and test is the (M, horizon) block immediately after.
    """
    if spec.train_length + spec.horizon > ds.length:
        raise SplitOutOfRange(
            f"train_length {spec.train_length} + horizon {spec.horizon} "
            f"exceeds panel length {ds.length}"
        )
    train = TimeSeriesDataset(
        ds.series_ids, ds.start_date, ds.values[:, : spec.train_length]
    )
    test = ds.values[:, spec.train_length : spec.train_length + spec.horizon].copy()
    return train, test


def synth_generate(cfg: SynthConfig) -> TimeSeriesDataset:
    """Generate a synthetic panel; a pure function of ``cfg``.

    Draw order is fixed: per-series levels, per-series phases, the noise
    matrix, then the intermittency mask, each as one batched draw from a
    splitmix64 stream seeded with ``cfg.seed``.
    """
    rng = Rng(cfg.seed)
    m, length = cfg.n_series, cfg.length
    lo, hi = cfg.level_range
    levels = lo + (hi - lo) * rng.uniforms(m)
    phases = 2.0 * np.pi * rng.uniforms(m)

    # t is 1-indexed to match the documented sinusoid.
    t = np.arange(1, length + 1, dtype=np.float64)
    values = levels[:, None] + cfg.season_amplitude * np.sin(
        2.0 * np.pi * t[None, :] / cfg.season_period + phases[:, None]
    )
    if cfg.noise_std > 0:
        values = values + cfg.noise_std * rng.normals(m * length).reshape(m, length)
    values = np.maximum(values, 0.0)
    if cfg.intermittency > 0:
        mask = rng.uniforms(m * length).reshape(m, length) < cfg.intermittency
        values[mask] = 0.0

    width = max(4, len(str(m - 1)))
    ids = tuple(f"item_{i:0{width}d}" for i in range(m))
    return TimeSeriesDataset(ids, _SYNTH_START, values)
