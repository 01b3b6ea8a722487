"""Peak memory of the CSV codec, panel generator, SGD fit, run and persist, traced by tracemalloc.

numpy reports its array buffers to tracemalloc, so a traced peak counts
every grid, index and temporary that a call holds at once. Each bound sits
between what the code holds by design and one more whole-grid temporary.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from forecast_stability import (
    EnsembleRequest,
    ExperimentConfig,
    GlobalMean,
    LinearAR,
    ModelEntry,
    SeasonalNaive,
    SplitSpec,
    SynthConfig,
    TinyMLP,
    fit,
    persist_runs,
    run_experiment,
    synth_generate,
    tabular,
)

ERRORS = tabular.Errors(*(ValueError,) * 5)


def traced_peak(call, *args) -> int:
    """Bytes ``call(*args)`` holds at its peak, its result included."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# 112 000 rows: labels listed out of order on both text axes.
RUNS_AXES = (
    ["m1", "m0"],
    range(5),
    [f"item_{i:04d}" for i in reversed(range(400))],
    range(1, 29),
)


def runs_grid(axes=RUNS_AXES) -> np.ndarray:
    shape = tuple(len(axis) for axis in axes)
    return np.arange(np.prod(shape), dtype=np.int64).reshape(shape) % 97


def read_csv_peak_per_row(tmp_path, axes) -> float:
    """Bytes per row that reading back a runs grid over ``axes`` holds at its peak."""
    path = tmp_path / "runs.csv"
    grid = runs_grid(axes)
    tabular.write_csv(path, tabular.RUNS, axes, (grid,))
    return traced_peak(tabular.read_csv, path, tabular.RUNS, ERRORS) / grid.size


def test_read_csv_holds_a_few_words_per_row(tmp_path, monkeypatch):
    # The rows' key codes and numbers and each row's cell index come to
    # 32 B a row for this schema; sorting the cell indices and gathering a
    # position array per key held about 90. Small blocks keep the per-block
    # parse out of the figure.
    monkeypatch.setattr(tabular, "BLOCK_BYTES", 32 * 1024)
    assert read_csv_peak_per_row(tmp_path, RUNS_AXES) < 48


def test_read_csv_holds_a_few_words_per_row_of_floats(tmp_path, monkeypatch):
    # Two key codes, the demand and the cell index come to 24 B a row, and
    # the grid to 8 more. Non-integral demand goes through the decimal
    # kernel and, for 17-digit texts, its exact division; neither they nor
    # the table of key texts may hold more as the file grows.
    monkeypatch.setattr(tabular, "BLOCK_BYTES", 32 * 1024)
    ids = [f"item_{i:04d}" for i in reversed(range(150))]
    days = range(730_000, 730_000 + 730)
    grid = np.random.default_rng(0).random((len(ids), len(days))) * 100
    path = tmp_path / "data.csv"
    tabular.write_csv(path, tabular.DATASET, (ids, days), (grid,))
    assert traced_peak(tabular.read_csv, path, tabular.DATASET, ERRORS) / grid.size < 48


def test_read_csv_by_rows_holds_a_few_words_per_row(tmp_path):
    # A quoted label sends the whole file down the csv.reader path, whose
    # codes are as compact as the block path's; int64 codes with a sorted
    # int64 copy of each held about 75.
    axes = (["m1", 'm"0'], *RUNS_AXES[1:])
    assert read_csv_peak_per_row(tmp_path, axes) < 48


def test_write_csv_holds_less_than_a_copy_of_the_grid(tmp_path, monkeypatch):
    # Small blocks keep the per-block text well below the grid, so a
    # reordered copy of the grid would show; a quarter of the items keeps
    # the traced formatting quick.
    monkeypatch.setattr(tabular, "BLOCK_ROWS", 256)
    axes = (*RUNS_AXES[:2], RUNS_AXES[2][:100], RUNS_AXES[3])
    grid = runs_grid(axes)
    peak = traced_peak(tabular.write_csv, tmp_path / "runs.csv", tabular.RUNS, axes, (grid,))
    assert peak < grid.nbytes


def test_write_csv_holds_less_than_a_copy_of_a_float_grid(tmp_path, monkeypatch):
    # Non-integral demand goes through the number kernel, whose temporaries
    # take a few words per distinct value of one block, so a temporary the
    # size of the grid would show, as in the runs case above.
    monkeypatch.setattr(tabular, "BLOCK_ROWS", 256)
    ids = [f"item_{i:04d}" for i in reversed(range(200))]
    days = range(730_000, 730_000 + 140)
    grid = np.random.default_rng(0).random((len(ids), len(days))) * 100
    path = tmp_path / "data.csv"
    peak = traced_peak(tabular.write_csv, path, tabular.DATASET, (ids, days), (grid,))
    assert peak < grid.nbytes


def test_write_csv_holds_a_small_block_of_long_labels(tmp_path):
    # One 8 KiB label pads every row's field of its key to 8 KiB, so a
    # block of BLOCK_ROWS rows would hold 64 MiB; such a block takes fewer.
    axes = (*RUNS_AXES[:2], ["x" * 8192, *RUNS_AXES[2][:99]], RUNS_AXES[3])
    grid = runs_grid(axes)
    peak = traced_peak(tabular.write_csv, tmp_path / "runs.csv", tabular.RUNS, axes, (grid,))
    assert peak < 8 * 2**20


def test_synth_generate_holds_a_few_panels():
    # A draw's two buffers and its shift, then the panel and the noise;
    # whole-panel temporaries of the formula held six panels.
    cfg = SynthConfig(
        n_series=200, length=500, season_amplitude=15.0, noise_std=5.0, intermittency=0.3
    )
    panel_bytes = cfg.n_series * cfg.length * 8
    assert traced_peak(synth_generate, cfg) < 4 * panel_bytes


@pytest.mark.parametrize("cls", [LinearAR, TinyMLP])
def test_seeded_fit_holds_less_than_half_a_window_matrix(cls):
    # 50 x (400 - 40) training rows of 41 values: a materialized window
    # matrix would hold 5.9 MB. The fit gathers a few batches of windows at
    # a time, which with the panel, its scaled copy and each run's shuffle
    # comes to about a sixth of that for three runs.
    kind = cls(lags=40, epochs=1)
    panel = synth_generate(SynthConfig(n_series=50, length=400, seed=3))
    rows = panel.n_series * (panel.length - kind.lags)
    assert traced_peak(fit, kind, panel, (1, 2, 3)) < rows * (kind.lags + 1) * 8 / 2


def test_run_experiment_holds_the_panel_and_each_grid_once():
    # The peak is inside fit_ensemble: train and the two validation windows
    # come to nearly three panels, and scoring them to 3.7. Keeping the
    # loaded panel beside them, and R stacked copies of each deterministic
    # entry's one forecast, held 5.4.
    components = (SeasonalNaive(period=7), GlobalMean())
    cfg = ExperimentConfig(
        dataset=SynthConfig(
            n_series=200, length=400, season_amplitude=15.0, noise_std=5.0, intermittency=0.3
        ),
        split=SplitSpec(train_length=386, horizon=14),
        models=(
            ModelEntry("seasonal_naive", components[0]),
            ModelEntry("global_mean", components[1]),
            ModelEntry("ensemble", EnsembleRequest(components, n_windows=2)),
        ),
        run_count=10,
    )
    panel_bytes = cfg.dataset.n_series * cfg.dataset.length * 8
    assert traced_peak(run_experiment, cfg) < 4.5 * panel_bytes


def test_persist_runs_holds_less_than_a_forecast_grid(tmp_path, monkeypatch):
    # The result's grid is what runs.csv writes, a block at a time; stacking
    # per-model grids into it again held a whole second copy.
    monkeypatch.setattr(tabular, "BLOCK_ROWS", 256)
    cfg = ExperimentConfig(
        dataset=SynthConfig(n_series=100, length=40),
        split=SplitSpec(train_length=12, horizon=28),
        models=(
            ModelEntry("seasonal_naive", SeasonalNaive(period=7)),
            ModelEntry("global_mean", GlobalMean()),
        ),
        run_count=10,
    )
    result = run_experiment(cfg)
    persist_runs(result, tmp_path / "first")  # imports what persist_runs loads on first use
    grid_bytes = len(cfg.models) * cfg.run_count * cfg.dataset.n_series * cfg.split.horizon * 8
    assert traced_peak(persist_runs, result, tmp_path / "second") < grid_bytes
