"""The CSV format of every file the pipeline writes and reads.

Each file is one dense grid: key columns, whose values name a cell, then
float value columns, one row per cell in key order. A key is a text label
(sorted) or an integer laid out from an origin, such as a horizon step
counted from 1 or a date counted from the earliest one. ``csv.writer``
quotes a field holding ``,``, ``"`` or a newline, RFC 4180 style, and
writes every other field as is.

Reading streams each row's key texts into integer codes and its numbers
into flat arrays, then scatters them into the dense grid. A wrong header
or field count, a bad or non-finite number, a duplicate cell and a missing
cell each raise the error class the caller names for it, with the file
and, where one row is at fault, its line.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import itertools
import math
from array import array
from pathlib import Path
from typing import Callable, NamedTuple, Sequence, TextIO

import numpy as np


class Key(NamedTuple):
    """A key column: a text label unless ``parse`` turns it into an integer.

    An integer key's cells are laid out from ``origin``, or from the
    smallest value read when it is None; ``show`` gives an integer's text.
    """

    name: str
    parse: Callable[[str], int] | None = None
    origin: int | None = None
    show: Callable[[int], str] = str


class Schema(NamedTuple):
    """Key columns, value columns and the text of a value, when not ``str``."""

    keys: tuple[Key, ...]
    values: tuple[str, ...]
    fmt: Callable[[float], str] | None = None

    @property
    def header(self) -> tuple[str, ...]:
        return tuple(key.name for key in self.keys) + self.values


class Errors(NamedTuple):
    """The exception class a reader raises for each kind of fault."""

    schema: type[Exception]  # wrong header or field count
    value: type[Exception]  # bad or non-finite field
    empty: type[Exception]  # no header or no data rows
    duplicate: type[Exception]  # two rows for one cell
    missing: type[Exception]  # a cell with no row


def format_demand(value: float) -> str:
    """Decimal literal for a demand value: integer form when integral.

    Both forms read back exactly; the integer form keeps the sign of -0.0.
    """
    value = float(value)
    if value.is_integer():
        return f"{value:.0f}"
    return repr(value)


MODEL = Key("model")
ITEM = Key("item_id")
RUN = Key("run_id", parse=int, origin=0)
STEP = Key("h", parse=int, origin=1)
DATE = Key(
    "date",
    parse=lambda text: dt.date.fromisoformat(text).toordinal(),
    show=lambda day: dt.date.fromordinal(day).isoformat(),
)
DATASET = Schema((ITEM, DATE), ("demand",), format_demand)
RUNS = Schema((MODEL, RUN, ITEM, STEP), ("value",))
ACTUALS = Schema((ITEM, STEP), ("value",), format_demand)
CV = Schema((MODEL, ITEM, STEP), ("cv", "mean", "std"))
RMSE = Schema((MODEL, RUN), ("rmse",))


def write_csv(path: str | Path, schema: Schema, axes, columns) -> None:
    """Write a dense grid to ``path``; see :func:`csv_text`."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        _write(fh, schema, axes, columns)


def csv_text(schema: Schema, axes, columns) -> str:
    """The CSV text of a dense grid.

    ``axes`` gives each key's labels or integers; labels may come in any
    order and are written sorted. Each array in ``columns`` is shaped by
    the axis lengths.
    """
    out = io.StringIO()
    _write(out, schema, axes, columns)
    return out.getvalue()


def _write(out: TextIO, schema: Schema, axes, columns) -> None:
    shape = tuple(len(axis) for axis in axes)
    if any(column.shape != shape for column in columns):
        raise ValueError(f"columns must have the axis lengths {shape}")
    fields = []
    labels = []
    for k, (key, axis) in enumerate(zip(schema.keys, axes)):
        if key.parse is None:
            if len(set(axis)) != len(axis):
                raise ValueError(f"duplicate {key.name} labels")
            order = sorted(range(len(axis)), key=axis.__getitem__)
            columns = [np.take(column, order, axis=k) for column in columns]
            fields.append([axis[i] for i in order])
            labels.extend(axis)
        else:
            fields.append([key.show(v) for v in axis])
    values = [column.reshape(-1).tolist() for column in columns]
    if schema.fmt is not None:
        values = [map(schema.fmt, column) for column in values]
    # csv.writer quotes a field only for the characters of its line
    # terminator, so a lone "\r" in a label is quoted only under "\r\n".
    terminator = "\r\n" if any("\r" in label for label in labels) else "\n"
    writer = csv.writer(out, lineterminator=terminator)
    writer.writerow(schema.header)
    writer.writerows(map(tuple.__add__, itertools.product(*fields), zip(*values)))


def read_csv(
    path: str | Path, schema: Schema, errors: Errors, fill_missing: bool = False
) -> tuple[tuple[Sequence, ...], tuple[np.ndarray, ...]]:
    """Read a file written by :func:`write_csv` back into its dense grid.

    Returns the axes, per key its sorted labels or its integer range, and
    per value column a float64 grid shaped by them. Blank rows are skipped.
    A cell with no row raises ``errors.missing`` unless ``fill_missing`` is
    true, in which case it reads as 0.0.
    """
    path = Path(path)
    keys, header = schema.keys, schema.header
    # A new text's code is the next number of its column's counter: codes
    # rise with first appearance but skip numbers.
    lookups: list[dict[str, int]] = [{} for _ in keys]
    counters = [itertools.count() for _ in keys]
    codes = [array("q") for _ in keys]
    numbers = [array("d") for _ in schema.values]
    with path.open(newline="", encoding="utf-8") as fh:
        reader = _reader(fh)
        first = next(reader, None)
        if first is None:
            raise errors.empty(f"{path}: file is empty")
        if tuple(first) != header:
            expected, got = ",".join(header), ",".join(first)
            raise errors.schema(f"{path}:1: expected {expected}, got {got}")
        # A chunk of rows at a time, column by column, keeps the per-row
        # work inside map() rather than in a Python loop.
        data = filter(None, reader)
        while rows := list(itertools.islice(data, 1024)):
            done = len(codes[0])
            if set(map(len, rows)) != {len(header)}:
                row = next(i for i, r in enumerate(rows) if len(r) != len(header))
                what = f"expected {len(header)} fields, got {len(rows[row])}"
                raise _fault(errors.schema, path, done + row, what)
            fields = list(zip(*rows))
            for lookup, counter, column, texts in zip(lookups, counters, codes, fields):
                column.extend(map(lookup.setdefault, texts, counter))
            for name, column, texts in zip(schema.values, numbers, fields[len(keys) :]):
                try:
                    column.extend(map(float, texts))
                except ValueError:
                    row = _first_rejected(float, texts)
                    what = f"bad {name} {texts[row]!r}"
                    raise _fault(errors.value, path, done + row, what) from None
    n_rows = len(codes[0])
    if n_rows == 0:
        raise errors.empty(f"{path}: no data rows")
    values = [np.frombuffer(column, dtype=np.float64) for column in numbers]
    for name, column in zip(schema.values, values):
        bad = np.flatnonzero(~np.isfinite(column))
        if bad.size:
            what = f"non-finite {name} {float(column[bad[0]])!r}"
            raise _fault(errors.value, path, int(bad[0]), what)

    axes = []
    positions = []
    for key, lookup, column in zip(keys, lookups, codes):
        texts = list(lookup)
        column = np.searchsorted(
            np.fromiter(lookup.values(), dtype=np.int64, count=len(texts)),
            np.frombuffer(column, dtype=np.int64),
        )
        if key.parse is None:
            order = sorted(range(len(texts)), key=texts.__getitem__)
            rank = np.empty(len(texts), dtype=np.int64)
            rank[order] = np.arange(len(texts))
            axes.append(tuple(texts[i] for i in order))
        else:
            try:
                parsed = [key.parse(text) for text in texts]
            except ValueError:
                bad = _first_rejected(key.parse, texts)
                row = int(np.argmax(column == bad))
                what = f"bad {key.name} {texts[bad]!r}"
                raise _fault(errors.value, path, row, what) from None
            origin = min(parsed) if key.origin is None else key.origin
            rank = np.array(parsed, dtype=np.int64) - origin
            low = int(np.argmin(rank))
            if rank[low] < 0:
                what = f"{key.name} {texts[low]!r} is below {origin}"
                raise _fault(errors.value, path, int(np.argmax(column == low)), what)
            axes.append(range(origin, origin + int(rank.max()) + 1))
        positions.append(rank[column])

    def cell(index) -> str:
        return ",".join(
            axis[i] if key.parse is None else key.show(axis[i])
            for key, axis, i in zip(keys, axes, index)
        )

    shape = tuple(len(axis) for axis in axes)
    flat = np.ravel_multi_index(positions, shape)
    order = np.argsort(flat, kind="stable")
    ranked = flat[order]
    repeats = np.flatnonzero(ranked[1:] == ranked[:-1])
    if repeats.size:
        row = int(order[repeats + 1].min())
        what = f"duplicate cell {cell([p[row] for p in positions])}"
        raise _fault(errors.duplicate, path, row, what)
    if n_rows < math.prod(shape) and not fill_missing:
        gaps = np.flatnonzero(ranked != np.arange(n_rows))
        index = np.unravel_index(int(gaps[0]) if gaps.size else n_rows, shape)
        raise errors.missing(f"{path}: no row for cell {cell(index)}")
    columns = []
    for column in values:
        grid = np.zeros(shape, dtype=np.float64)
        grid.reshape(-1)[flat] = column
        columns.append(grid)
    return tuple(axes), tuple(columns)


def _reader(fh: TextIO):
    return csv.reader(fh)


def _first_rejected(parse: Callable[[str], object], texts: Sequence[str]) -> int:
    """Index of the first text that ``parse`` rejects with ValueError."""
    for index, text in enumerate(texts):
        try:
            parse(text)
        except ValueError:
            return index
    raise AssertionError("every text parses")


def _fault(error: type[Exception], path: Path, row: int, what: str) -> Exception:
    """``error`` naming the line of data row ``row``, counted from 0."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = _reader(fh)
        # The header is the first non-blank row, so data row ``row`` is at row + 1.
        next(itertools.islice(filter(None, reader), row + 1, None))
        return error(f"{path}:{reader.line_num}: {what}")
