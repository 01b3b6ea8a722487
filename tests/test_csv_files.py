"""Every CSV file the pipeline writes reads back exactly, and bad files fail.

The round trips use arbitrary text ids and labels, including the comma,
the quote, newlines and surrounding spaces, and arbitrary finite floats,
which must come back bit for bit.
"""

from __future__ import annotations

import csv
import datetime as dt
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from forecast_stability import (
    AccuracyReport,
    CvGrid,
    ExperimentConfig,
    ExperimentResult,
    GlobalMean,
    ModelEntry,
    RunRecord,
    SplitSpec,
    SynthConfig,
    TimeSeriesDataset,
    load_long_csv,
    load_runs,
    persist_runs,
    write_long_csv,
)
from forecast_stability.dataset import DatasetError
from forecast_stability.harness import RaggedRuns, SchemaMismatch
from forecast_stability.report import (
    ReportError,
    load_metrics_files,
    write_metrics_files,
)


def _csv_reads_nul() -> bool:
    """Whether this Python's csv module reads NUL; before 3.11 it raises."""
    try:
        return list(csv.reader(["a\0b"])) == [["a\0b"]]
    except csv.Error:
        return False


TEXT = st.text(
    st.characters(
        exclude_categories=("Cs",),
        exclude_characters="" if _csv_reads_nul() else "\0",
    ),
    max_size=6,
) | st.sampled_from(["a,b", 'say "hi"', "two\nlines", "cr\rlf", " padded ", ""])
FLOATS = st.floats(allow_nan=False, allow_infinity=False)


def unique_texts(max_size):
    return st.lists(TEXT, min_size=1, max_size=max_size, unique=True)


def bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def sort_order(labels):
    return sorted(range(len(labels)), key=labels.__getitem__)


@st.composite
def panels(draw):
    ids = draw(unique_texts(4))
    length = draw(st.integers(1, 5))
    values = draw(hnp.arrays(np.float64, (len(ids), length), elements=FLOATS))
    start = draw(st.dates(max_value=dt.date(9000, 1, 1)))
    return TimeSeriesDataset(tuple(ids), start, values)


@settings(max_examples=60, deadline=None)
@given(panels())
def test_dataset_csv_round_trip(ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        write_long_csv(ds, path)
        loaded = load_long_csv(path)
    order = sort_order(ds.series_ids)
    assert loaded.series_ids == tuple(ds.series_ids[i] for i in order)
    assert loaded.start_date == ds.start_date
    assert np.array_equal(bits(loaded.values), bits(ds.values[order]))


@st.composite
def experiment_results(draw):
    labels = draw(unique_texts(3))
    ids = draw(unique_texts(3))
    runs = draw(st.integers(2, 3))
    horizon = draw(st.integers(1, 3))
    forecasts = draw(
        hnp.arrays(
            np.int64,
            (len(labels), runs, len(ids), horizon),
            elements=st.integers(0, 2**63 - 1),
        )
    )
    actuals = draw(hnp.arrays(np.float64, (len(ids), horizon), elements=FLOATS))
    config = ExperimentConfig(
        dataset=SynthConfig(n_series=len(ids), length=horizon + 1),
        split=SplitSpec(train_length=1, horizon=horizon),
        models=tuple(ModelEntry(label, forecaster=GlobalMean()) for label in labels),
        run_count=runs,
    )
    records = tuple(
        RunRecord(label, run_id, run_id, forecasts[m, run_id], duration_s=0.0)
        for m, label in enumerate(labels)
        for run_id in range(runs)
    )
    return ExperimentResult(records, actuals, tuple(ids), config), forecasts


@settings(max_examples=60, deadline=None)
@given(experiment_results())
def test_runs_csv_round_trip(drawn):
    result, forecasts = drawn
    with tempfile.TemporaryDirectory() as tmp:
        persist_runs(result, tmp)
        sets, actuals = load_runs(tmp)
    labels = [entry.label for entry in result.config.models]
    ids = result.series_ids
    assert list(sets) == sorted(labels)
    id_order = sort_order(ids)
    assert np.array_equal(bits(actuals), bits(result.actuals[id_order]))
    for m, label in enumerate(labels):
        assert sets[label].series_ids == tuple(ids[i] for i in id_order)
        expected = forecasts[m][:, id_order].astype(np.float64)
        assert np.array_equal(bits(sets[label].values), bits(expected))


@st.composite
def metrics(draw):
    labels = draw(unique_texts(3))
    ids = draw(unique_texts(3))
    shape = (len(ids), draw(st.integers(1, 3)))
    grids = {}
    finite = hnp.arrays(np.float64, shape, elements=FLOATS)
    for label in labels:
        mean = draw(finite)
        std = np.where(mean == 0, 0.0, draw(finite))
        cv = np.where(mean == 0, 0.0, np.abs(draw(finite)))
        grids[label] = (CvGrid(cv=cv, mean=mean, std=std), tuple(ids))
    runs = draw(st.integers(1, 3))
    rmse = st.lists(
        st.floats(min_value=0.0, allow_infinity=False), min_size=runs, max_size=runs
    )
    accuracy = {label: AccuracyReport(label, tuple(draw(rmse))) for label in labels}
    return grids, accuracy


THIRD_GRID = CvGrid(
    cv=np.array([[0.5, 1 / 3]]), mean=np.array([[2.0, 3.0]]), std=np.array([[1.0, 1.0]])
)


@settings(max_examples=60, deadline=None)
@given(metrics())
@example(({"m": (THIRD_GRID, ("itemA",))}, {"m": AccuracyReport("m", (1 / 3, 0.0))}))
def test_metrics_csv_round_trip(drawn):
    grids, accuracy = drawn
    with tempfile.TemporaryDirectory() as tmp:
        write_metrics_files(grids, accuracy, tmp)
        loaded_grids, loaded_accuracy = load_metrics_files(tmp)
    assert list(loaded_grids) == sorted(grids)
    for label, (grid, ids) in grids.items():
        order = sort_order(ids)
        loaded, loaded_ids = loaded_grids[label]
        assert loaded_ids == tuple(ids[i] for i in order)
        for stat in ("cv", "mean", "std"):
            expected = getattr(grid, stat)[order]
            assert np.array_equal(bits(getattr(loaded, stat)), bits(expected))
        assert bits(loaded_accuracy[label].rmse_per_run).tolist() == bits(
            accuracy[label].rmse_per_run
        ).tolist()


# Each bad file is a good one with a single fault; the reader must name the
# module's typed error and the file line (or, for a missing cell, the file).
DATASET = "item_id,date,demand\nA,2021-01-01,1\nA,2021-01-02,2\n"
RUNS = "model,run_id,item_id,h,value\n" + "".join(
    f"m,{run},A,1,{run}\n" for run in range(3)
)
ACTUALS = "item_id,h,value\nA,1,5\n"
CV = "model,item_id,h,cv,mean,std\nm,A,1,0.5,2.0,1.0\nm,A,2,0.5,2.0,1.0\n"
RMSE = "model,run_id,rmse\n" + "".join(f"m,{run},1.5\n" for run in range(10))


def _load_dataset(tmp, text):
    (tmp / "data.csv").write_text(text, encoding="utf-8")
    load_long_csv(tmp / "data.csv")


def _load_runs(tmp, runs, actuals=ACTUALS):
    (tmp / "runs.csv").write_text(runs, encoding="utf-8")
    (tmp / "actuals.csv").write_text(actuals, encoding="utf-8")
    load_runs(tmp)


def _load_metrics(tmp, cv, rmse=RMSE):
    (tmp / "cv.csv").write_text(cv, encoding="utf-8")
    (tmp / "rmse.csv").write_text(rmse, encoding="utf-8")
    load_metrics_files(tmp)


@pytest.mark.parametrize(
    "load, error, where",
    [
        pytest.param(
            lambda tmp: _load_dataset(tmp, DATASET + "B,2021-01-01,nan\n"),
            DatasetError,
            "data.csv:4:",
            id="nan-demand",
        ),
        pytest.param(
            lambda tmp: _load_dataset(tmp, DATASET + "B,2021-01-01,inf\n"),
            DatasetError,
            "data.csv:4:",
            id="infinite-demand",
        ),
        pytest.param(
            lambda tmp: _load_runs(tmp, RUNS + "m,1,A,1,4\n"),
            SchemaMismatch,
            "runs.csv:5:",
            id="duplicate-run-cell",
        ),
        pytest.param(
            lambda tmp: _load_runs(tmp, RUNS + "m,3,A,1,x\n"),
            SchemaMismatch,
            "runs.csv:5:",
            id="bad-forecast",
        ),
        pytest.param(
            lambda tmp: _load_runs(tmp, RUNS + "a,b,0,A,1,1\n"),
            SchemaMismatch,
            "runs.csv:5:",
            id="unquoted-comma-label",
        ),
        pytest.param(
            lambda tmp: _load_metrics(tmp, CV + "m,A,1,0.25,2.0,0.5\n"),
            ReportError,
            "cv.csv:4:",
            id="duplicate-cv-cell",
        ),
        pytest.param(
            lambda tmp: _load_metrics(tmp, CV, RMSE.replace("m,3,1.5\n", "")),
            ReportError,
            "rmse.csv:",
            id="missing-rmse-run",
        ),
        pytest.param(
            lambda tmp: _load_metrics(tmp, CV, RMSE + "m,4,2.5\n"),
            ReportError,
            "rmse.csv:12:",
            id="duplicate-rmse-run",
        ),
        pytest.param(
            lambda tmp: _load_metrics(tmp, CV.replace("0.5,2.0", "nan,2.0", 1)),
            ReportError,
            "cv.csv:2:",
            id="nan-cv",
        ),
    ],
)
def test_readers_reject_faulty_files(tmp_path, load, error, where):
    with pytest.raises(error) as excinfo:
        load(tmp_path)
    assert where in str(excinfo.value)


def test_writers_reject_grids_they_could_not_read_back(tmp_path):
    config = ExperimentConfig(
        dataset=SynthConfig(n_series=1, length=2),
        split=SplitSpec(train_length=1, horizon=1),
        models=(ModelEntry(label="m", forecaster=GlobalMean()),),
        run_count=2,
    )
    only_run_1 = RunRecord("m", 1, 1, np.zeros((1, 1), np.int64), duration_s=0.0)
    result = ExperimentResult((only_run_1,), np.zeros((1, 1)), ("x",), config)
    with pytest.raises(RaggedRuns):
        persist_runs(result, tmp_path)
    grids = {"a": (THIRD_GRID, ("x",)), "b": (THIRD_GRID, ("y",))}
    accuracy = {label: AccuracyReport(label, (1.0,)) for label in grids}
    with pytest.raises(ReportError):
        write_metrics_files(grids, accuracy, tmp_path)
    assert not any(tmp_path.iterdir())
