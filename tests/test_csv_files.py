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
from forecast_stability import tabular
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


# The block writer against a row-by-row csv.writer.


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
            axes.append(range(first, first + draw(st.integers(0, 3))))
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


def read_result(path, schema, blocks=True):
    """What read_csv returns, or the class and text of what it raises."""
    with pytest.MonkeyPatch.context() as patch:
        if not blocks:
            patch.setattr(tabular, "_read_blocks", lambda path, schema: None)
        try:
            return tabular.read_csv(path, schema, ERRORS)
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
