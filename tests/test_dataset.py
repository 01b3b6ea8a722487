from __future__ import annotations

import datetime as dt

import numpy as np
import pytest

from forecast_stability import (
    SplitSpec,
    SynthConfig,
    TimeSeriesDataset,
    load_long_csv,
    split,
    synth_generate,
    write_long_csv,
)
from forecast_stability.dataset import (
    DuplicateCell,
    EmptyFile,
    MissingColumn,
    NonDailyGap,
    SplitOutOfRange,
)
from conftest import make_panel


def write_csv(path, rows):
    path.write_text("item_id,date,demand\n" + "\n".join(rows) + "\n", encoding="utf-8")


def test_load_complete_panel(tmp_path):
    path = tmp_path / "panel.csv"
    write_csv(
        path,
        [
            "A,2021-01-01,1.5",
            "A,2021-01-02,2",
            "A,2021-01-03,3",
            "B,2021-01-01,4",
            "B,2021-01-02,5",
            "B,2021-01-03,6",
        ],
    )
    ds = load_long_csv(path)
    assert ds.n_series == 2
    assert ds.length == 3
    assert ds.series_ids == ("A", "B")
    assert ds.start_date == dt.date(2021, 1, 1)
    assert ds.values.tolist() == [[1.5, 2, 3], [4, 5, 6]]


def test_interior_gap_zero_filled_when_requested(tmp_path):
    path = tmp_path / "panel.csv"
    write_csv(
        path,
        [
            "A,2021-01-01,1",
            "A,2021-01-03,3",
            "B,2021-01-01,4",
            "B,2021-01-02,5",
            "B,2021-01-03,6",
        ],
    )
    with pytest.raises(NonDailyGap):
        load_long_csv(path, fill_missing=False)
    ds = load_long_csv(path, fill_missing=True)
    assert ds.values[0].tolist() == [1.0, 0.0, 3.0]


def test_duplicate_cell_rejected(tmp_path):
    path = tmp_path / "panel.csv"
    write_csv(path, ["A,2021-01-01,1", "A,2021-01-01,2"])
    with pytest.raises(DuplicateCell):
        load_long_csv(path)


def test_wrong_header_rejected(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("sku,day,qty\nA,2021-01-01,1\n", encoding="utf-8")
    with pytest.raises(MissingColumn):
        load_long_csv(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(EmptyFile):
        load_long_csv(path)
    path.write_text("item_id,date,demand\n", encoding="utf-8")
    with pytest.raises(EmptyFile):
        load_long_csv(path)


def test_csv_round_trip_is_identity(tmp_path):
    cfg = SynthConfig(
        n_series=6,
        length=45,
        level_range=(0.5, 90.0),
        season_period=7,
        season_amplitude=9.25,
        noise_std=4.0,
        intermittency=0.2,
        seed=21,
    )
    ds = synth_generate(cfg)
    path = tmp_path / "out.csv"
    write_long_csv(ds, path)
    loaded = load_long_csv(path)
    assert loaded.series_ids == ds.series_ids
    assert loaded.start_date == ds.start_date
    assert np.array_equal(loaded.values, ds.values)
    # write -> load -> write is byte stable
    path2 = tmp_path / "out2.csv"
    write_long_csv(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_split_shapes():
    ds = make_panel(np.arange(20, dtype=float).reshape(2, 10))
    train, test = split(ds, SplitSpec(train_length=8, horizon=2))
    assert train.values.shape == (2, 8)
    assert test.shape == (2, 2)
    joined = np.hstack([train.values, test])
    assert np.array_equal(joined, ds.values[:, :10])


def test_split_out_of_range():
    ds = make_panel(np.arange(10, dtype=float))
    message = "^split: train_length 10 [+] horizon 1 exceeds panel length 10$"
    with pytest.raises(SplitOutOfRange, match=message):
        split(ds, SplitSpec(train_length=10, horizon=1))


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(train_length=0, horizon=1)
    with pytest.raises(ValueError):
        SplitSpec(train_length=5, horizon=0)


def test_synth_flat_when_no_noise_or_season():
    cfg = SynthConfig(
        n_series=4,
        length=12,
        level_range=(10.0, 20.0),
        season_period=5,
        season_amplitude=0.0,
        noise_std=0.0,
        intermittency=0.0,
        seed=3,
    )
    ds = synth_generate(cfg)
    for i in range(4):
        row = ds.values[i]
        assert np.all(row == row[0])
        assert 10.0 <= row[0] <= 20.0


def test_synth_is_pure_function_of_config():
    cfg = SynthConfig(
        n_series=5,
        length=30,
        level_range=(5.0, 50.0),
        season_period=7,
        season_amplitude=3.0,
        noise_std=2.0,
        intermittency=0.1,
        seed=77,
    )
    a = synth_generate(cfg)
    b = synth_generate(cfg)
    assert a.series_ids == b.series_ids
    assert np.array_equal(a.values, b.values)


def test_synth_values_nonnegative():
    cfg = SynthConfig(
        n_series=8,
        length=60,
        level_range=(0.0, 2.0),
        season_period=7,
        season_amplitude=5.0,
        noise_std=10.0,
        intermittency=0.3,
        seed=5,
    )
    ds = synth_generate(cfg)
    assert np.all(ds.values >= 0.0)


def test_synth_matches_retail_benchmark_shape():
    # shape parity with the larger of the two public retail panels
    cfg = SynthConfig(n_series=3049, length=1913, noise_std=1.0, seed=1)
    ds = synth_generate(cfg)
    assert ds.values.shape == (3049, 1913)


def test_synth_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_series=0, length=10)
    with pytest.raises(ValueError):
        SynthConfig(n_series=1, length=10, level_range=(5.0, 1.0))
    with pytest.raises(ValueError):
        SynthConfig(n_series=1, length=10, intermittency=1.5)
    with pytest.raises(ValueError):
        SynthConfig(n_series=1, length=10, noise_std=-1.0)
    with pytest.raises(ValueError, match="n_series \\* length"):
        SynthConfig(n_series=2**63, length=1)
    with pytest.raises(ValueError, match="season_period"):
        SynthConfig(n_series=1, length=10, season_period=10**400)
    for fields in (
        {"noise_std": 1e308},
        {"level_range": (0.0, 1e308), "season_amplitude": 1e308},
        {"level_range": (0.0, 1e307), "noise_std": 2e307},
    ):
        with pytest.raises(ValueError, match="9 \\* noise_std must be finite"):
            SynthConfig(n_series=3, length=40, **fields)


@pytest.mark.parametrize(
    "fields",
    [
        {"level_range": (0.0, 1e308), "season_amplitude": 7e307},
        {"level_range": (0.0, 1e307), "noise_std": 1e307},
    ],
)
def test_synth_panel_at_the_float_bound_stays_finite(fields):
    ds = synth_generate(SynthConfig(n_series=3, length=40, **fields))
    assert np.all(np.isfinite(ds.values))


@pytest.mark.parametrize(
    "ids, values, message",
    [
        (("x",), [1.0, 2.0], "^values must be a 2-D"),
        (("x", "y"), [[1.0, 2.0]], "^2 series ids but 1 value rows$"),
        (("x",), np.zeros((1, 0)), "^panel must span at least one timestamp$"),
    ],
    ids=["1-d", "ids-and-rows", "no-columns"],
)
def test_dataset_shape_is_checked(ids, values, message):
    with pytest.raises(ValueError, match=message):
        TimeSeriesDataset(ids, dt.date(2021, 1, 1), values)


def test_dataset_invariants():
    with pytest.raises(ValueError):
        make_panel([[1.0, 2.0], [3.0, 4.0]], ids=("x", "x"))
    with pytest.raises(ValueError):
        make_panel([[1.0, float("nan")]])
    ds = make_panel([[1.0, 2.0]])
    with pytest.raises(ValueError):
        ds.values[0, 0] = 9.0  # panels are immutable
