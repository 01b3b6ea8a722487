"""Every CSV file the pipeline writes reads back exactly, and bad files fail.

The round trips use arbitrary text ids and labels, including the comma,
the quote, newlines and surrounding spaces, and arbitrary finite floats,
which must come back bit for bit. The block writer must write the bytes of
a row-by-row ``csv.writer`` kept here as the reference, and the block
reader must return what the ``csv.reader`` loop returns, or raise the same
error, on arbitrary files.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import itertools
import json
import os
import subprocess
import sys
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
    GlobalMean,
    ModelEntry,
    SplitSpec,
    SynthConfig,
    TimeSeriesDataset,
    load_long_csv,
    load_runs,
    persist_runs,
    write_long_csv,
)
from forecast_stability import tabular
from forecast_stability.dataset import DatasetError
from forecast_stability.harness import ExperimentResult, RaggedRuns, SchemaMismatch
from forecast_stability.metrics import EmptyInput
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
        models=tuple(ModelEntry(label, model=GlobalMean()) for label in labels),
        run_count=runs,
    )
    return ExperimentResult(forecasts, actuals, tuple(ids), config), forecasts


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
    accuracy = {label: AccuracyReport(tuple(draw(rmse))) for label in labels}
    return grids, accuracy


THIRD_GRID = CvGrid(
    cv=np.array([[0.5, 1 / 3]]), mean=np.array([[2.0, 3.0]]), std=np.array([[1.0, 1.0]])
)


@settings(max_examples=60, deadline=None)
@given(metrics())
@example(({"m": (THIRD_GRID, ("itemA",))}, {"m": AccuracyReport((1 / 3, 0.0))}))
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
# The helpers write this character as the byte 0x93, which starts no UTF-8 character.
NOT_UTF8 = "\udc93"


def _write(path, text):
    path.write_text(text, encoding="utf-8", errors="surrogateescape")


def _load_dataset(tmp, text):
    _write(tmp / "data.csv", text)
    load_long_csv(tmp / "data.csv")


def _load_runs(tmp, runs, actuals=ACTUALS):
    _write(tmp / "runs.csv", runs)
    _write(tmp / "actuals.csv", actuals)
    load_runs(tmp)


def _load_metrics(tmp, cv, rmse=RMSE):
    _write(tmp / "cv.csv", cv)
    _write(tmp / "rmse.csv", rmse)
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
            lambda tmp: _load_runs(tmp, RUNS + "m,3,A,1,-7\n"),
            SchemaMismatch,
            "runs.csv: cell m,3,A,1: forecast -7.0",
            id="negative-forecast",
        ),
        pytest.param(
            lambda tmp: _load_runs(tmp, RUNS + "m,3,A,1,2.5\n"),
            SchemaMismatch,
            "runs.csv: cell m,3,A,1: forecast 2.5",
            id="fractional-forecast",
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
        pytest.param(
            lambda tmp: _load_dataset(tmp, DATASET + f"B{NOT_UTF8},2021-01-01,3\n"),
            DatasetError,
            "data.csv:4: not UTF-8: byte 0x93 at column 2",
            id="not-utf8-dataset",
        ),
        pytest.param(
            lambda tmp: _load_runs(tmp, RUNS.replace("m,2,", f"m{NOT_UTF8},2,")),
            SchemaMismatch,
            "runs.csv:4: not UTF-8: byte 0x93 at column 2",
            id="not-utf8-runs",
        ),
        pytest.param(
            lambda tmp: _load_runs(tmp, RUNS, ACTUALS.replace(",5", f",5{NOT_UTF8}")),
            SchemaMismatch,
            "actuals.csv:2: not UTF-8: byte 0x93 at column 6",
            id="not-utf8-actuals",
        ),
        pytest.param(
            lambda tmp: _load_runs(tmp, RUNS, ACTUALS.replace("A,", "B,")),
            RaggedRuns,
            "runs.csv: the (item, h) grid does not match that of",
            id="actuals-of-another-grid",
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
        models=(ModelEntry(label="m", model=GlobalMean()),),
        run_count=2,
    )
    one_run = np.zeros((1, 1, 1, 1), np.int64)
    with pytest.raises(RaggedRuns):
        persist_runs(ExperimentResult(one_run, np.zeros((1, 1)), ("x",), config), tmp_path)
    grids = {"a": (THIRD_GRID, ("x",)), "b": (THIRD_GRID, ("y",))}
    accuracy = {label: AccuracyReport((1.0,)) for label in grids}
    with pytest.raises(ReportError):
        write_metrics_files(grids, accuracy, tmp_path)
    # The reader refuses a file with no data rows.
    no_series = TimeSeriesDataset((), dt.date(2020, 1, 1), np.zeros((0, 3)))
    with pytest.raises(ValueError, match="no data rows"):
        write_long_csv(no_series, tmp_path / "data.csv")
    # It lays run ids out from 0, steps from 1 and dates from the first, up by one.
    grid = np.zeros((1, 2))
    for run_ids, steps in [(range(1, 3), [1]), ([0, 5], [1]), (range(2), [2])]:
        axes, column = (["a"], run_ids, ["x"], steps), grid.reshape(1, 2, 1, 1)
        with pytest.raises(ValueError, match="must count up by one"):
            tabular.write_csv(tmp_path / "runs.csv", tabular.RUNS, axes, (column,))
    for days in ([738000, 738002], [738001, 738000]):
        with pytest.raises(ValueError, match=r"date values must count up by one from 73800"):
            tabular.write_csv(tmp_path / "data.csv", tabular.DATASET, (["x"], days), (grid,))
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("item", ["A", '"A"'], ids=["by-blocks", "by-rows"])
@pytest.mark.parametrize("day", ["20200102", "2020-W01-5", "2020-1-02"])
def test_dataset_reader_takes_only_the_dates_it_writes(tmp_path, item, day):
    # From Python 3.11 on, date.fromisoformat also reads the first two, so a
    # file would load on one supported Python and not on another.
    path = tmp_path / "data.csv"
    path.write_text(f"item_id,date,demand\n{item},2020-01-01,1\n{item},{day},2\n")
    with pytest.raises(DatasetError, match=rf"data\.csv:3: bad date '{day}'"):
        load_long_csv(path)


# The block writer against a row-by-row csv.writer.


def test_metrics_writer_rejects_other_models_before_any_write(tmp_path):
    out = tmp_path / "metrics"
    grids = {"a": (THIRD_GRID, ("x",))}
    with pytest.raises(ReportError, match=r"cv models \['a'\] != rmse models \['b'\]"):
        write_metrics_files(grids, {"b": AccuracyReport((1.0, 2.0))}, out)
    assert not out.exists()


def test_metrics_writer_rejects_no_models_before_any_write(tmp_path):
    out = tmp_path / "metrics"
    with pytest.raises(EmptyInput, match="^no models to write$"):
        write_metrics_files({}, {}, out)
    assert not out.exists()


def test_metrics_writer_rejects_ragged_run_counts_before_any_write(tmp_path):
    out = tmp_path / "metrics"
    grids = {"a": (THIRD_GRID, ("x",)), "b": (THIRD_GRID, ("x",))}
    accuracy = {"a": AccuracyReport((1.0, 2.0)), "b": AccuracyReport((1.0,))}
    with pytest.raises(ReportError, match=r"same run count, got \{'a': 2, 'b': 1\}"):
        write_metrics_files(grids, accuracy, out)
    assert not out.exists()


def test_metrics_writer_rejects_a_model_with_no_runs_before_any_write(tmp_path):
    # The reader refuses an rmse.csv with no data rows, so the writer must not make one.
    out = tmp_path / "metrics"
    grids = {"a": (THIRD_GRID, ("x",))}
    with pytest.raises(ReportError, match=r"rmse\.csv: every model needs at least one run"):
        write_metrics_files(grids, {"a": AccuracyReport(())}, out)
    assert not out.exists()


def test_metrics_writer_rejects_cv_grids_of_other_shapes_before_any_write(tmp_path):
    out = tmp_path / "metrics"
    wider = CvGrid(cv=np.zeros((1, 3)), mean=np.zeros((1, 3)), std=np.zeros((1, 3)))
    grids = {"a": (THIRD_GRID, ("x",)), "b": (wider, ("x",))}
    accuracy = {label: AccuracyReport((1.0, 2.0)) for label in grids}
    with pytest.raises(
        ReportError, match=r"cv\.csv: model 'a' has a \(1, 2\) cv grid, but model 'b' a \(1, 3\)"
    ):
        write_metrics_files(grids, accuracy, out)
    assert not out.exists()


def test_write_csv_checks_the_grid_before_it_opens_the_file(tmp_path):
    axes, wrong = (["a"], range(2)), (np.zeros((1, 3)),)
    with pytest.raises(ValueError, match=r"columns must have the axis lengths \(1, 2\)"):
        tabular.write_csv(tmp_path / "new.csv", tabular.RMSE, axes, wrong)
    assert not (tmp_path / "new.csv").exists()
    kept = tmp_path / "kept.csv"
    kept.write_bytes(b"model,run_id,rmse\na,0,1\n")
    with pytest.raises(ValueError, match="duplicate model labels"):
        tabular.write_csv(kept, tabular.RMSE, (["a", "a"], range(1)), (np.zeros((2, 1)),))
    assert kept.read_bytes() == b"model,run_id,rmse\na,0,1\n"


def test_writer_rejects_a_schema_with_no_value_column(tmp_path):
    schema = tabular.Schema((tabular.MODEL,), ())
    with pytest.raises(ValueError, match="at least one value column"):
        tabular.csv_text(schema, (["a"],), ())


def reference_csv_text(schema, axes, columns):
    """The CSV text of a grid written one ``csv.writer`` row per cell."""
    fields = []
    labels = []
    for k, (key, axis) in enumerate(zip(schema.keys, axes)):
        if key.parse is None:
            order = sort_order(axis)
            columns = [np.take(column, order, axis=k) for column in columns]
            fields.append([axis[i] for i in order])
            labels.extend(axis)
        else:
            fields.append([key.show(v) for v in axis])
    values = [column.reshape(-1).tolist() for column in columns]
    if schema.fmt is not None:
        values = [map(schema.fmt, column) for column in values]
    terminator = "\r\n" if any("\r" in label for label in labels) else "\n"
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=terminator)
    writer.writerow(schema.header)
    writer.writerows(map(tuple.__add__, itertools.product(*fields), zip(*values)))
    return out.getvalue()


TABLE = tabular.Schema((tabular.MODEL,), ("q25", "q50"), "{:.3f}".format)


@st.composite
def grids(draw):
    schema = draw(
        st.sampled_from(
            [tabular.DATASET, tabular.RUNS, tabular.ACTUALS, tabular.CV, tabular.RMSE, TABLE]
        )
    )
    axes = []
    for key in schema.keys:
        if key.parse is None:
            axes.append(draw(unique_texts(3)))
        else:
            first = key.origin
            if first is None:
                first = draw(st.dates(max_value=dt.date(9000, 1, 1))).toordinal()
            axes.append(range(first, first + draw(st.integers(1, 3))))
    shape = tuple(len(axis) for axis in axes)
    if schema is tabular.RUNS and draw(st.booleans()):
        column = hnp.arrays(np.int64, shape, elements=st.integers(0, 2**63 - 1))
    else:
        column = hnp.arrays(np.float64, shape, elements=st.floats())
    return schema, tuple(axes), tuple(draw(column) for _ in schema.values)


@settings(max_examples=150, deadline=None)
@given(grids(), st.sampled_from([1, 2, 5, tabular.BLOCK_ROWS]))
def test_writer_bytes_equal_the_row_writer(drawn, block_rows):
    schema, axes, columns = drawn
    expected = reference_csv_text(schema, axes, columns)
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        patch.setattr(tabular, "BLOCK_ROWS", block_rows)
        assert tabular.csv_text(schema, axes, columns) == expected
        path = Path(tmp) / "grid.csv"
        tabular.write_csv(path, schema, axes, columns)
        assert path.read_bytes() == expected.encode("utf-8")


def from_bits(*patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64)


NUL = "\0" if _csv_reads_nul() else ""


@pytest.mark.parametrize("block_rows", [1, 7, tabular.BLOCK_ROWS])
@pytest.mark.parametrize(
    "schema, axes, column",
    [
        pytest.param(
            tabular.RUNS,
            (["m2", "m0", "m1"], range(2), ["b", "c", "a", "d"], range(1, 4)),
            np.arange(3 * 2 * 4 * 3, dtype=np.int64).reshape(3, 2, 4, 3),
            id="unsorted-labels",
        ),
        pytest.param(
            tabular.CV,
            (["y", "x"], ["q", "r", "p"], range(1, 5)),
            np.arange(4 * 3 * 2, dtype=np.float64).reshape(4, 3, 2).T / 8,
            id="transposed-column",
        ),
        # The writer formats each distinct bit pattern of a block's values once.
        pytest.param(
            tabular.DATASET,
            (["b", "a"], range(738000, 738004)),
            np.array([[0.0, -0.0, 1.0, -0.0], [-1.0, 0.0, -0.0, 0.5]]),
            id="signed-zeros-dataset",
        ),
        pytest.param(
            tabular.CV,
            (["m"], ["a", "b"], range(1, 4)),
            np.array([[[-0.0, 0.0, 0.0], [0.0, -0.0, 2.5]]]),
            id="signed-zeros-cv",
        ),
        pytest.param(
            tabular.CV,
            (["m"], ["a"], range(1, 6)),
            from_bits(
                0x7FF8000000000000,
                0xFFF8000000000000,
                0x7FF8000000000001,
                0x7FF0000000000001,
                0x7FF8000000000000,
            ).reshape(1, 1, 5),
            id="nan-payloads",
        ),
        pytest.param(
            tabular.RUNS,
            (["m"], range(2), ["a", "b"], range(1, 3)),
            np.array([0, 2**63 - 1, 2**63 - 1, 0] * 2, dtype=np.int64).reshape(1, 2, 2, 2),
            id="int64-extremes",
        ),
        pytest.param(
            tabular.RMSE,
            (["m", "n", "o"], range(5)),
            np.full((3, 5), 1 / 3),
            id="all-equal",
        ),
        pytest.param(
            tabular.CV,
            ([f"n{NUL}ul", "caf\u00e9", "c\rr"], [f"{NUL}", "\u65e5\u672c", "x\r"], range(1, 3)),
            np.arange(18, dtype=np.float64).reshape(3, 3, 2) / 4,
            id="odd-labels",
        ),
    ],
)
def test_writer_gathers_cells_from_any_layout(monkeypatch, schema, axes, column, block_rows):
    monkeypatch.setattr(tabular, "BLOCK_ROWS", block_rows)
    columns = (column,) * len(schema.values)
    assert tabular.csv_text(schema, axes, columns) == reference_csv_text(schema, axes, columns)


# The block reader against the csv.reader loop.


class SchemaFault(Exception):
    pass


class ValueFault(Exception):
    pass


class EmptyFault(Exception):
    pass


class DuplicateFault(Exception):
    pass


class MissingFault(Exception):
    pass


ERRORS = tabular.Errors(SchemaFault, ValueFault, EmptyFault, DuplicateFault, MissingFault)
PAIRS = tabular.Schema((tabular.MODEL, tabular.RUN), ("a", "b"))
DAYS = ["2021-01-01", "2021-01-02", "2021-01-03"]

# Texts float() reads, ASCII and not: padded, grouped, signed, exponents,
# 15 to 19 digits, and Arabic-Indic digits.
ODD_NUMBERS = [
    " 1", "2 ", "\t3", "1_000", "+4", "-0", "-0.0", "1e5", "2.5E-3", ".5", "5.",
    "123456789012345", "1234567890123456", "12345678901234567", "0000000000000000007",
    "9007199254740993", "١٢",
]
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(0, 10**20).map(str),
    st.sampled_from(ODD_NUMBERS),
)
# Anything, mostly texts that float() rejects or reads as non-finite.
ANY_NUMBERS = (
    NUMBERS
    | st.sampled_from(["", "x", "nan", "-inf", "1__0", "1e", "\u00a01"])
    | st.text(st.sampled_from("0123456789._+-eEinf \t\x0b\x1c"), max_size=6)
)
LABELS = st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters=',"\r\n\0'), max_size=5
)
ANY_KEYS = st.sampled_from(
    ["a", "b", "é", " a", "0", "1", "01", "+1", "2", "-1", "1_0"]
) | st.text(st.characters(exclude_categories=("Cs",)), max_size=3)


@st.composite
def complete_files(draw):
    """A PAIRS file holding every cell once, in any order, with blank lines."""
    labels = draw(st.lists(LABELS, min_size=1, max_size=3, unique=True))
    cells = draw(st.permutations(list(itertools.product(labels, range(draw(st.integers(1, 3)))))))
    lines = [",".join(PAIRS.header)]
    for label, run in cells:
        lines += [""] * draw(st.integers(0, 1))
        run = draw(st.sampled_from([str(run), f"0{run}", f" {run}", f"+{run}"]))
        lines.append(",".join((label, run, draw(NUMBERS), draw(NUMBERS))))
    text = "\n".join(lines) + draw(st.sampled_from(["\n", "\n\n", ""]))
    return PAIRS, text.encode("utf-8")


@st.composite
def arbitrary_files(draw):
    """A PAIRS or dataset file of arbitrary rows."""
    schema = draw(st.sampled_from([PAIRS, tabular.DATASET]))
    header = ",".join(schema.header)
    lines = [draw(st.sampled_from([header] * 8 + ["", header + ",x", "\ufeff" + header]))]
    for _ in range(draw(st.integers(0, 10))):
        keys = [
            draw(st.sampled_from(DAYS + ["2021-1-4", "x"]) if key is tabular.DATE else ANY_KEYS)
            for key in schema.keys
        ]
        fields = keys + [draw(ANY_NUMBERS) for _ in schema.values]
        lines.append(",".join(fields[: len(fields) - draw(st.sampled_from([0] * 8 + [1, -1]))]))
    return schema, ("\n".join(lines) + draw(st.sampled_from(["\n", ""]))).encode("utf-8")


@st.composite
def files(draw):
    """A complete or an arbitrary file, perhaps with one odd byte added."""
    schema, data = draw(complete_files() | arbitrary_files())
    if draw(st.integers(0, 2)) == 0:
        at = draw(st.integers(0, len(data)))
        # "\xa0" alone is not UTF-8, but float() reads it as a space in latin-1.
        odd = draw(st.sampled_from([b"\xff", b"\xa0", b"\0", b"\r", b'"', b"\r\n", b",", b"\n"]))
        data = data[:at] + odd + data[at:]
    return schema, data


def read_result(path, schema, blocks=True, fill_missing=False):
    """What read_csv returns, or the class and text of what it raises."""
    with pytest.MonkeyPatch.context() as patch:
        if not blocks:
            patch.setattr(tabular, "_read_blocks", lambda path, schema: None)
        try:
            return tabular.read_csv(path, schema, ERRORS, fill_missing)
        except Exception as exc:  # compared, class and text, across the two paths
            return type(exc), str(exc)


def assert_same_result(got, expected):
    if isinstance(expected[0], type):
        assert got == expected
        return
    (axes, columns), (expected_axes, expected_columns) = got, expected
    assert axes == expected_axes
    for column, expected_column in zip(columns, expected_columns, strict=True):
        assert column.shape == expected_column.shape
        assert np.array_equal(bits(column), bits(expected_column))


def assert_blocks_match_rows(path, schema):
    """Both paths agree on ``path``; returns whether the block reader read it."""
    assert_same_result(read_result(path, schema), read_result(path, schema, blocks=False))
    parsed = tabular._read_blocks(path, schema)
    if parsed is not None:
        texts, codes, values = parsed
        want_texts, want_codes, want_values = tabular._read_rows(path, schema, ERRORS)
        assert texts == want_texts
        for got, want in zip(codes, want_codes, strict=True):
            assert np.array_equal(got, want)
        for got, want in zip(values, want_values, strict=True):
            assert np.array_equal(bits(got), bits(want))
    return parsed is not None


def block_readable(path, schema):
    """Whether the block reader must read ``path``: csv.reader parses it,
    and it holds no quote, carriage return, NUL or non-ASCII number."""
    data = path.read_bytes()
    if any(byte in data for byte in (b'"', b"\r", b"\0")):
        return False
    try:
        tabular._read_rows(path, schema, ERRORS)
    except Exception:
        return False
    rows = filter(None, csv.reader(io.StringIO(data.decode("utf-8"))))
    return all(field.isascii() for row in rows for field in row[len(schema.keys) :])


@settings(max_examples=300, deadline=None)
@given(files(), st.sampled_from([1, 3, 8, 64, tabular.BLOCK_BYTES]))
def test_block_reader_matches_the_csv_reader(drawn, block_bytes):
    schema, data = drawn
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        patch.setattr(tabular, "BLOCK_BYTES", block_bytes)
        path = Path(tmp) / "grid.csv"
        path.write_bytes(data)
        read_by_blocks = assert_blocks_match_rows(path, schema)
        assert read_by_blocks == block_readable(path, schema)


# Cell checks against a dict of cells: duplicates and gaps on both paths.

GRID = tabular.Schema((tabular.MODEL, tabular.RUN, tabular.DATE, tabular.STEP), ("a", "b"))


def reference_read(path, schema, rows, fill_missing):
    """What read_csv must return for ``rows``, one per line after the
    header, or the class and text of what it must raise."""
    n_keys = len(schema.keys)
    if not rows:
        return EmptyFault, f"{path}: no data rows"
    cells = {}
    for line, row in enumerate(rows, start=2):
        cell = tuple(row[:n_keys])
        if cell in cells:
            return DuplicateFault, f"{path}:{line}: duplicate cell {','.join(cell)}"
        cells[cell] = [float(text) for text in row[n_keys:]]
    axes, shown = [], []
    for k, key in enumerate(schema.keys):
        texts = {cell[k] for cell in cells}
        if key.parse is None:
            axes.append(tuple(sorted(texts)))
            shown.append(axes[-1])
        else:
            values = [key.parse(text) for text in texts]
            origin = min(values) if key.origin is None else key.origin
            axes.append(range(origin, max(values) + 1))
            shown.append([key.show(value) for value in axes[-1]])
    grids = [np.zeros(tuple(map(len, axes))) for _ in schema.values]
    for index in itertools.product(*(range(len(axis)) for axis in axes)):
        cell = tuple(texts[i] for texts, i in zip(shown, index))
        if cell not in cells:
            if not fill_missing:
                return MissingFault, f"{path}: no row for cell {','.join(cell)}"
            continue
        for grid, value in zip(grids, cells[cell]):
            grid[index] = value
    return tuple(axes), tuple(grids)


@st.composite
def faulty_grid_rows(draw):
    """GRID rows of every cell but some, in any order, with some repeated."""
    labels = draw(st.lists(LABELS, min_size=1, max_size=3, unique=True))
    first = draw(st.dates(max_value=dt.date(9000, 1, 1)))
    days = [(first + dt.timedelta(days)).isoformat() for days in range(draw(st.integers(1, 3)))]
    runs = [str(run) for run in range(draw(st.integers(1, 3)))]
    steps = [str(step) for step in range(1, draw(st.integers(1, 3)) + 1)]
    cells = list(itertools.product(labels, runs, days, steps))
    kept = [cell for cell in draw(st.permutations(cells)) if draw(st.integers(0, 5))]
    for _ in range(draw(st.integers(0, 2))):
        kept.insert(draw(st.integers(0, len(kept))), draw(st.sampled_from(cells)))
    return [list(cell) + [draw(NUMBERS) for _ in GRID.values] for cell in kept]


@settings(max_examples=150, deadline=None)
@given(faulty_grid_rows(), st.booleans())
def test_cell_checks_match_a_dict_of_cells(rows, fill_missing):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.csv"
        lines = [",".join(GRID.header)] + [",".join(row) for row in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = reference_read(path, GRID, rows, fill_missing)
        for blocks in (True, False):
            assert_same_result(read_result(path, GRID, blocks, fill_missing), expected)


HEAD = "model,run_id,a,b\n"


@pytest.mark.parametrize(
    "text, block_bytes, by_blocks",
    [
        pytest.param(HEAD + "\na,0,1,2\n\n\nb,0,3,4\n\n", None, True, id="blank-lines"),
        pytest.param(HEAD + "a,0,1,2\nb,0,3,4", None, True, id="no-final-newline"),
        pytest.param(
            HEAD + "é,0,1,2\nß,0,3,4\n日本,0,5,6\n", None, True, id="non-ascii-labels"
        ),
        pytest.param(
            HEAD + "a,0, 1 ,1_000\na,1,+5,-0\na,2,1e5,2.5E-3\n"
            "a,3,12345678901234567,0000000000000000001\n",
            None,
            True,
            id="odd-numbers",
        ),
        pytest.param(HEAD + "a,01,1,1\na,1,2,2\n", None, True, id="01-and-1"),
        pytest.param(HEAD + "a,0,1,2\nb,0,3,4\nc,0,5,6\n", 5, True, id="row-across-blocks"),
        pytest.param(
            HEAD + "".join(f"a,{run},1,2\n" for run in range(9)) + '"b,c",0,3,4\n',
            32,
            False,
            id="quote-after-first-block",
        ),
        pytest.param(HEAD + "a,0,١,2\n", None, False, id="non-ascii-number"),
    ],
)
def test_block_reader_cases(tmp_path, monkeypatch, text, block_bytes, by_blocks):
    if block_bytes is not None:
        monkeypatch.setattr(tabular, "BLOCK_BYTES", block_bytes)
    path = tmp_path / "pairs.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert assert_blocks_match_rows(path, PAIRS) == by_blocks


def test_block_reader_values_and_faults(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text(
        HEAD + "a,0, 1 ,1_000\na,1,+5,-0\na,2,1e5,2.5E-3\n"
        "a,3,12345678901234567,0000000000000000001\n",
        encoding="utf-8",
    )
    (labels, runs), (a, b) = tabular.read_csv(path, PAIRS, ERRORS)
    assert labels == ("a",) and runs == range(4)
    texts = [" 1 ", "+5", "1e5", "12345678901234567"]
    texts += ["1_000", "-0", "2.5E-3", "0000000000000000001"]
    assert bits(np.concatenate([a[0], b[0]])).tolist() == bits([float(t) for t in texts]).tolist()
    path.write_text(HEAD + "a,01,1,1\na,1,2,2\n", encoding="utf-8")
    with pytest.raises(DuplicateFault, match=r"pairs.csv:3: duplicate cell a,1$"):
        tabular.read_csv(path, PAIRS, ERRORS)


@pytest.mark.parametrize(
    "rows, error, message",
    [
        ("a,-1,1,2\n", ValueFault, r"pairs.csv:2: run_id '-1' is below 0$"),
        (
            f"a,0,1,2\na,{2**63 - 1},3,4\n",
            MissingFault,
            rf"pairs.csv: {2**63} cells are too many for one grid$",
        ),
        # Three fields and five: eight, two lines' worth, with a comma where
        # the first line's newline should be.
        ("a,0,1\nb,0,3,4,5\n", SchemaFault, r"pairs.csv:2: expected 4 fields, got 3$"),
    ],
    ids=["run-below-origin", "grid-past-int64", "field-counts-that-sum-right"],
)
def test_reader_names_the_faults_of_a_parsed_file(tmp_path, rows, error, message):
    path = tmp_path / "pairs.csv"
    path.write_text(HEAD + rows, encoding="utf-8")
    with pytest.raises(error, match=message):
        tabular.read_csv(path, PAIRS, ERRORS)
    if error is SchemaFault:
        assert tabular._read_blocks(path, PAIRS) is None


# Sign, exponent and fraction bits of finite floats whose repr has no
# exponent, so that most read through the decimal kernel, not the cast.
POSITIONAL_BITS = st.builds(
    lambda sign, exponent, fraction: sign << 63 | exponent << 52 | fraction,
    st.integers(0, 1),
    st.integers(1023 - 14, 1023 + 53),
    st.integers(0, 2**52 - 1),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1) | POSITIONAL_BITS, min_size=1, max_size=40))
def test_block_reader_reads_every_float_back(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    values = values[np.isfinite(values)]
    lines = [
        f"a,{run},{value!r},{tabular.format_demand(value)}"
        for run, value in enumerate(values.tolist())
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.csv"
        path.write_text(HEAD + "".join(line + "\n" for line in lines), encoding="utf-8")
        parsed = tabular._read_blocks(path, PAIRS)
    assert parsed is not None
    _, _, (a, b) = parsed
    assert bits(a).tolist() == bits(values).tolist()
    assert bits(b).tolist() == bits(values).tolist()


@pytest.mark.parametrize(
    "text",
    [
        "9007199254740993",  # 2**53 + 1, a tie that rounds to even
        "123456789012345678",
        "1.23456789012345678",
        "1234567890123456789",
        "9999999999999999999",
        "0.12345678901234567890123",
        "-0", "-0.0", ".5", "5.", "1e5", "1_0", "+1", "inf", "nan",
    ],
)
def test_block_reader_reads_numbers_as_float_does(tmp_path, text):
    path = tmp_path / "pairs.csv"
    path.write_text(HEAD + f"a,0,{text},-{text.lstrip('+-')}\n", encoding="utf-8")
    want = [float(text), float("-" + text.lstrip("+-"))]
    for parsed in tabular._read_blocks(path, PAIRS), tabular._read_rows(path, PAIRS, ERRORS):
        assert parsed is not None
        assert bits(np.concatenate(parsed[2])).tolist() == bits(want).tolist()


# Two 16-byte labels whose words fold to one integer: the key table must tell
# them apart in full.
FOLD_ALIKE = ("0lOMiOfqivaKNrK6", "JH8y2fpz7Vof8JZM")


@pytest.mark.parametrize("block_bytes", [16, 64, None])
def test_block_reader_codes_labels_that_fold_alike(tmp_path, monkeypatch, block_bytes):
    folds = [tabular._fold(np.frombuffer(label.encode(), "<u8")[:, None]) for label in FOLD_ALIKE]
    assert folds[0] == folds[1]
    if block_bytes is not None:
        monkeypatch.setattr(tabular, "BLOCK_BYTES", block_bytes)
    labels = [FOLD_ALIKE[0], "b", FOLD_ALIKE[1], FOLD_ALIKE[0], "c", FOLD_ALIKE[1]]
    lines = [f"{label},{run},{run},1\n" for run in range(3) for label in dict.fromkeys(labels)]
    path = tmp_path / "pairs.csv"
    path.write_text(HEAD + "".join(lines), encoding="utf-8")
    assert assert_blocks_match_rows(path, PAIRS)
    (read_labels, runs), _ = tabular.read_csv(path, PAIRS, ERRORS)
    assert read_labels == tuple(sorted(set(labels))) and runs == range(3)


def test_block_reader_leaves_long_fields_to_the_csv_reader(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text(HEAD + "abcde,0,1,2\n", encoding="utf-8")
    limit = csv.field_size_limit(4)
    try:
        assert not assert_blocks_match_rows(path, PAIRS)
        with pytest.raises(csv.Error, match="field larger than field limit"):
            tabular.read_csv(path, PAIRS, ERRORS)
    finally:
        csv.field_size_limit(limit)


# The block reader split over two processes against one process. The
# reader forks only from a process with one thread, so each check runs in
# a child interpreter with one BLAS thread.

TESTS = Path(__file__).resolve().parent

two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="the split reader needs at least 2 CPUs",
)

# Imports this module, lowers the split to sys.argv[2] bytes, and reads
# each file named after the schema name sys.argv[3] in the mode sys.argv[1]:
# "split", "child-exits" (a forked child ends at once with status 1) or
# "thread" (with a second thread alive). Prints per file how many children
# _read_blocks forked, whether it parsed the file, and read_csv's error;
# both must give what one process gives, and reap every child.
# "hypothesis" checks arbitrary files and prints the forks.
SPLIT_READ = """\
import json, os, sys, tempfile, threading
from pathlib import Path
import numpy as np
from hypothesis import example, given, settings, strategies as st
import test_csv_files as cases
from forecast_stability import tabular
mode, split_bytes, schema, paths = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4:]
forks = 0
real_fork = os.fork
def fork():
    global forks
    pid = real_fork()
    if pid == 0 and mode == "child-exits":
        os._exit(1)
    forks += pid > 0
    return pid
os.fork = fork

def one_process(call, *args):
    split, tabular.SPLIT_BYTES = tabular.SPLIT_BYTES, 2**62
    try:
        return call(*args)
    finally:
        tabular.SPLIT_BYTES = split

def same_parse(got, want):
    if got is None or want is None:
        return got is want
    return got[0] == want[0] and all(
        a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8))
        for a, b in zip(got[1] + got[2], want[1] + want[2], strict=True)
    )

def compare(path, schema):
    before = forks
    parsed = tabular._read_blocks(path, schema)
    forked = forks - before
    assert same_parse(parsed, one_process(tabular._read_blocks, path, schema))
    got = cases.read_result(path, schema)
    cases.assert_same_result(got, one_process(cases.read_result, path, schema))
    error = [got[0].__name__, got[1]] if isinstance(got[0], type) else None
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # every child forked so far is reaped
        return {"forks": forked, "parsed": parsed is not None, "error": error}
    raise AssertionError("a child is left unreaped")

if mode == "hypothesis":
    @settings(max_examples=200, deadline=None, database=None)
    @given(cases.files(), st.sampled_from([1, 3, 8, 64]), st.sampled_from([0, 16, 64]))
    @example((cases.PAIRS, b"model,run_id,a,b"), 1, 0)
    @example((cases.PAIRS, b"model,run_id,a,b\\n\\na,0,1,2"), 8, 0)
    def check(drawn, block_bytes, split_bytes):
        schema, data = drawn
        tabular.BLOCK_BYTES, tabular.SPLIT_BYTES = block_bytes, split_bytes
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "grid.csv"
            path.write_bytes(data)
            forked = compare(path, schema)["forks"]
        head, _, rest = data.partition(b"\\n")
        assert forked == (head == ",".join(schema.header).encode() and len(rest) >= split_bytes)
    check()
    print(json.dumps(forks))
else:
    tabular.SPLIT_BYTES = split_bytes
    waiting = threading.Event()
    thread = threading.Thread(target=waiting.wait)
    if mode == "thread":
        thread.start()
    print(json.dumps([compare(Path(path), getattr(cases, schema)) for path in paths]))
    waiting.set()
    if mode == "thread":
        thread.join()
"""


def split_read(cwd: Path, mode: str, *paths: Path, split_bytes: int = 256):
    """What SPLIT_READ prints, run in ``cwd`` with one BLAS thread."""
    where = [str(TESTS.parent / "src"), str(TESTS), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(where), "OPENBLAS_NUM_THREADS": "1"}
    args = [sys.executable, "-c", SPLIT_READ, mode, str(split_bytes), "PAIRS", *map(str, paths)]
    done = subprocess.run(args, cwd=cwd, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def second_half_start(data: bytes) -> int:
    """How many lines after the header the split reader's first half holds."""
    start = data.index(b"\n") + 1
    middle = data.index(b"\n", start + (len(data) - start) // 2) + 1
    return data[start:middle].count(b"\n")


# Every PAIRS cell of labels a to d and runs 0 to 9, in order: 40 rows.
GRID_ROWS = [f"{label},{run},{run}.5,-{run}" for label in "abcd" for run in range(10)]


@two_cpus
def test_split_reader_matches_one_process_on_arbitrary_files(tmp_path):
    assert split_read(tmp_path, "hypothesis") > 0


@two_cpus
def test_split_reader_reads_a_blank_line_at_either_side_of_the_split(tmp_path):
    paths = {}
    for at in range(1, len(GRID_ROWS)):
        rows = GRID_ROWS[:at] + [""] + GRID_ROWS[at:]
        data = (HEAD + "\n".join(rows) + "\n").encode()
        # The blank line opens the second half, or ends the first.
        side = {at: "opens", at + 1: "ends"}.get(second_half_start(data))
        if side:
            paths[side] = tmp_path / f"{side}.csv"
            paths[side].write_bytes(data)
    assert sorted(paths) == ["ends", "opens"]
    out = split_read(tmp_path, "split", *paths.values())
    assert out == [{"forks": 1, "parsed": True, "error": None}] * 2


@two_cpus
def test_split_reader_codes_texts_first_seen_in_the_second_half(tmp_path):
    # The first half holds labels b and a and runs 4 to 0; the second half
    # adds label c, then é, and runs 5 to 9, then lists a and b's rows for
    # those runs out of order.
    first = [f"{label},{run},{run}.{'0' * 16}25,1" for label in "ba" for run in range(4, -1, -1)]
    second = [f"{label},{run},1,2" for label in ("c", "é") for run in range(10)]
    second += [f"{label},{run},3,4" for label in "ab" for run in (7, 9, 5, 6, 8)]
    data = (HEAD + "\n".join(first + second) + "\n").encode()
    assert second_half_start(data) == len(first)
    path = tmp_path / "pairs.csv"
    path.write_bytes(data)
    assert split_read(tmp_path, "split", path) == [{"forks": 1, "parsed": True, "error": None}]


@two_cpus
@pytest.mark.parametrize(
    "at, row, error",
    [
        (-1, '"d",9,9.5,-9', None),
        (-1, "d,9,9.5\r,-9", ["SchemaFault", "pairs.csv:41: expected 4 fields, got 3"]),
        (-1, "d,9,9.5", ["SchemaFault", "pairs.csv:41: expected 4 fields, got 3"]),
        (-2, "d,8,9.5,-9,0", ["SchemaFault", "pairs.csv:40: expected 4 fields, got 5"]),
        (0, '"a",0,0.5,-0', None),
    ],
    ids=["quote", "carriage-return", "three-fields", "five-fields", "quote-in-first-half"],
)
def test_split_reader_leaves_a_half_it_cannot_parse_to_the_csv_reader(tmp_path, at, row, error):
    rows = list(GRID_ROWS)
    rows[at] = row
    path = tmp_path / "pairs.csv"
    path.write_text(HEAD + "\n".join(rows) + "\n", encoding="utf-8", newline="")
    (out,) = split_read(tmp_path, "split", path)
    assert out["forks"] == 1 and not out["parsed"]
    if error is None:
        assert out["error"] is None
    else:
        assert out["error"][0] == error[0] and out["error"][1].endswith(error[1])


@two_cpus
def test_split_reader_parses_the_half_of_a_child_that_exits_without_a_result(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text(HEAD + "\n".join(GRID_ROWS) + "\n", encoding="utf-8")
    assert split_read(tmp_path, "child-exits", path) == [
        {"forks": 1, "parsed": True, "error": None}
    ]


@two_cpus
def test_split_reader_does_not_fork_beside_a_second_thread(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text(HEAD + "\n".join(GRID_ROWS) + "\n", encoding="utf-8")
    assert split_read(tmp_path, "thread", path) == [{"forks": 0, "parsed": True, "error": None}]


# The writer's number kernel against the formatters it stands in for.

# One row per value: the value fields are each line's last.
ONE_ROW_PER_VALUE = {
    tabular.DATASET: lambda n: (["a"], range(738000, 738000 + n)),
    tabular.CV: lambda n: (["m"], ["a"], range(1, n + 1)),
    tabular.RUNS: lambda n: (["m"], range(1), ["a"], range(1, n + 1)),
}


def written(schema, values):
    """Each value's text as the writer writes a grid of one row per value."""
    axes = ONE_ROW_PER_VALUE[schema](len(values))
    column = values.reshape(tuple(map(len, axes)))
    text = tabular.csv_text(schema, axes, (column,) * len(schema.values))
    return [line.rsplit(",", 1)[1] for line in text.splitlines()[1:]]


def neighbours(value):
    return [np.nextafter(value, -np.inf), value, np.nextafter(value, np.inf)]


# Whole numbers around and past 2**53, where the kernel gives way.
WHOLE_BITS = st.integers(-(2**60), 2**60).map(lambda i: int(np.float64(i).view(np.uint64)))
FIXED_FLOATS = [
    2**-3, 2**-20, 2**-14, 3 * 2**-20,  # powers of two with a fraction, and thrice one
    *neighbours(1e-4), *neighbours(2.0**51), *neighbours(2.0**52), *neighbours(2.0**53),
    1e16 - 2, 1e16, 0.5, 0.1, 0.3, 2 / 3, 1e15 + 0.5, 123.456,
    # Just below a power of ten: rounded to 15 digits they carry to 10**15.
    *(np.nextafter(10.0**k, 0) for k in (-3, 0, 1, 7, 15)),
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, sys.float_info.max,
    np.inf, -np.inf, np.nan,
]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.integers(0, 2**64 - 1) | POSITIONAL_BITS | WHOLE_BITS, min_size=1, max_size=300
    )
)
@example(np.array(FIXED_FLOATS, dtype=np.float64).view(np.uint64).tolist())
@example((-np.array(FIXED_FLOATS, dtype=np.float64)).view(np.uint64).tolist())
def test_writer_formats_floats_as_the_schema_does(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert written(tabular.DATASET, values) == list(map(tabular.format_demand, values.tolist()))
    assert written(tabular.CV, values) == list(map(str, values.tolist()))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=300))
@example([0, -1, 1, 2**63 - 1, -(2**63), 10**16, 10**18, -(10**18), 99_999_999, 10**8])
def test_writer_formats_int64_as_str_does(numbers):
    values = np.array(numbers, dtype=np.int64)
    assert written(tabular.RUNS, values) == list(map(str, numbers))
