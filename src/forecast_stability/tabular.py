"""The CSV format of every file the pipeline writes and reads.

Each file is one dense grid: key columns, whose values name a cell, then
float value columns, one row per cell in key order. A key is a text label
(sorted) or an integer laid out from an origin, such as a horizon step
counted from 1 or a date counted from the earliest one. ``csv.writer``
quotes a field holding ``,``, ``"`` or a newline, RFC 4180 style, and
writes every other field as is.

The writer quotes each distinct key text once and writes the rows a block
at a time. The reader parses a file block by block with numpy: it splits
lines and fields at byte positions, maps each key column's distinct texts
to integer codes and parses the numbers column-wise. A file that holds a
``"``, a ``\\r`` or a NUL byte, or a block that fails any check (field
count, UTF-8, a number), is read again row by row with ``csv.reader``,
which is the reference for the block reader and the only one that raises
for a malformed row. Both then scatter codes and numbers into the dense
grid. A wrong header or field count, a bad or non-finite number, a
duplicate cell and a missing cell each raise the error class the caller
names for it, with the file and, where one row is at fault, its line.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import itertools
import math
from array import array
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

# The block reader parses at most this many bytes at once, unless one line
# is longer; the writer formats and joins this many rows at once.
BLOCK_BYTES = 256 * 1024
BLOCK_ROWS = 8192


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
    # csv.writer quotes a field only for the characters of its line
    # terminator, so a lone "\r" in a label is quoted only under "\r\n".
    terminator = "\r\n" if any("\r" in label for label in labels) else "\n"
    csv.writer(out, lineterminator=terminator).writerow(schema.header)
    # Every row is its key texts, each followed by a comma, then its value
    # texts joined by commas; values never need quoting.
    *outer, inner = (_quoted(texts, terminator) for texts in fields)
    prefixes = map("".join, itertools.product(*outer))
    keys = itertools.starmap(str.__add__, itertools.product(prefixes, inner))
    fmt = schema.fmt or str
    flat = [column.reshape(-1) for column in columns]
    for first in range(0, math.prod(shape), BLOCK_ROWS):
        texts = [map(fmt, column[first : first + BLOCK_ROWS].tolist()) for column in flat]
        values = texts[0] if len(texts) == 1 else map(",".join, zip(*texts))
        lines = map(str.__add__, itertools.islice(keys, BLOCK_ROWS), values)
        out.write(terminator.join(lines) + terminator)


def _quoted(texts: Sequence[str], terminator: str) -> list[str]:
    """Each text as ``csv.writer`` writes a field, followed by a comma."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=terminator)
    quoted = []
    for text in texts:
        # A second, empty field: a row of one empty field is quoted whole.
        writer.writerow((text, ""))
        quoted.append(buffer.getvalue()[: -len(terminator)])
        buffer.seek(0)
        buffer.truncate()
    return quoted


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
    keys = schema.keys
    # Per key, its distinct texts in order of first appearance and each
    # row's index into them; per value column, each row's number.
    key_texts, codes, values = _read_blocks(path, schema) or _read_rows(
        path, schema, errors
    )
    n_rows = len(codes[0])
    if n_rows == 0:
        raise errors.empty(f"{path}: no data rows")
    for name, column in zip(schema.values, values):
        bad = np.flatnonzero(~np.isfinite(column))
        if bad.size:
            what = f"non-finite {name} {float(column[bad[0]])!r}"
            raise _fault(errors.value, path, int(bad[0]), what)

    axes = []
    positions = []
    for key, texts, column in zip(keys, key_texts, codes):
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


def _read_rows(path: Path, schema: Schema, errors: Errors):
    """Parse ``path`` row by row with ``csv.reader``; see :func:`read_csv`.

    This is the reference for :func:`_read_blocks`, and raises the typed
    error, with its line, for a wrong header, field count or number.
    """
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
    dense = [
        np.searchsorted(
            np.fromiter(lookup.values(), dtype=np.int64, count=len(lookup)),
            np.frombuffer(column, dtype=np.int64),
        )
        for lookup, column in zip(lookups, codes)
    ]
    values = [np.frombuffer(column, dtype=np.float64) for column in numbers]
    return [list(lookup) for lookup in lookups], dense, values


def _read_blocks(path: Path, schema: Schema):
    """Parse ``path`` block by block with numpy, as :func:`_read_rows` does.

    Returns None where only ``csv.reader`` may read the file: a header
    other than the schema's, a ``"``, ``\\r`` or NUL byte, a wrong field
    count, a field longer than ``csv.field_size_limit()``, a key that is
    not UTF-8 or a number that ``float()`` may not read as the cast does.
    """
    header = ",".join(schema.header).encode()
    lookups: list[dict[str, int]] = [{} for _ in schema.keys]
    # Growing arrays, as in _read_rows, hold the parsed blocks compactly.
    columns = [array("i") for _ in schema.keys] + [array("d") for _ in schema.values]
    with path.open("rb") as fh:
        if fh.readline().removesuffix(b"\n") != header:
            return None
        for block in _blocks(fh):
            split = _split_block(block, len(columns))
            if split is None:
                return None
            data, lefts, widths = split
            fields = list(zip(lefts.T, widths.T))
            parts = [
                _key_codes(block, data, left, width, lookup)
                for lookup, (left, width) in zip(lookups, fields)
            ]
            parts += [_numbers(data, left, width) for left, width in fields[len(lookups) :]]
            if any(part is None for part in parts):
                return None
            for column, part in zip(columns, parts):
                column.frombytes(part.tobytes())
    codes = [np.frombuffer(column, dtype=np.intc) for column in columns[: len(lookups)]]
    values = [np.frombuffer(column, dtype=np.float64) for column in columns[len(lookups) :]]
    return [list(lookup) for lookup in lookups], codes, values


def _blocks(fh: BinaryIO) -> Iterator[bytes]:
    """The rest of ``fh`` in blocks of whole lines, each ending with a newline.

    A block holds at most ``BLOCK_BYTES``, unless one line is longer.
    """
    rest = b""
    # A line longer than a block doubles the read until it ends.
    while chunk := fh.read(BLOCK_BYTES - len(rest) if len(rest) < BLOCK_BYTES else len(rest)):
        block = rest + chunk
        end = block.rfind(b"\n") + 1
        if end:
            yield block[:end]
        rest = block[end:]
    if rest:
        # The last line may lack its newline.
        yield rest + b"\n"


def _split_block(block: bytes, n_fields: int):
    """Where each field of each non-blank line of ``block`` starts, and its width.

    Returns ``block`` as uint8 with zeros after it, and the (lines, fields)
    offsets and widths; None when csv.reader must read the block. ``block``
    ends with a newline.
    """
    if b'"' in block or b"\r" in block or b"\0" in block:
        return None
    data = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    commas = np.flatnonzero(data == ord(","))
    starts = np.concatenate(([0], ends[:-1] + 1))
    filled = ends > starts
    # Commas in each line: every non-blank line needs one per field but one.
    per_line = np.diff(np.searchsorted(commas, ends), prepend=0)
    if not np.array_equal(per_line, filled * (n_fields - 1)):
        return None
    inner = commas.reshape(-1, n_fields - 1)
    lefts = np.column_stack((starts[filled], inner + 1))
    widths = np.column_stack((inner, ends[filled])) - lefts
    widest = int(widths.max(initial=0))
    if widest > csv.field_size_limit():
        return None
    # The zeros let every field be read in whole 8-byte words.
    return np.frombuffer(block + bytes(widest + 8), dtype=np.uint8), lefts, widths


def _key_codes(
    block: bytes, data: np.ndarray, left: np.ndarray, width: np.ndarray, lookup: dict[str, int]
) -> np.ndarray | None:
    """Each field's code in ``lookup``, adding new texts in order of appearance.

    None when a text is not UTF-8.
    """
    first, inverse = _distinct(_words(data, left, width))
    codes = np.empty(len(first), dtype=np.intc)
    try:
        for index in np.argsort(first):
            start = int(left[first[index]])
            text = block[start : start + int(width[first[index]])].decode("utf-8")
            codes[index] = lookup.setdefault(text, len(lookup))
    except UnicodeDecodeError:
        return None
    return codes[inverse]


# _MASKS[n] keeps the first n bytes of a little-endian 8-byte word.
_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)
# Odd multiplier that folds the 8-byte words of a field into one integer.
_FOLD = np.uint64(0x9E3779B97F4A7C15)


def _words(data: np.ndarray, left: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Each field's bytes as (fields, words) little-endian uint64, zero-filled."""
    unaligned = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
    n_words = max(-(-int(width.max(initial=0)) // 8), 1)
    words = np.empty((len(left), n_words), dtype=np.uint64)
    for k in range(n_words):
        words[:, k] = unaligned[left + 8 * k] & _MASKS[np.clip(width - 8 * k, 0, 8)]
    return words


def _distinct(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each distinct row of ``words``, and each row's index into them.

    A field holds no NUL, so zero-filled words differ exactly when texts
    do. A field of up to 8 bytes is one word; longer ones are folded into
    one and compared in full where two fold alike.
    """
    folded = words[:, 0].copy()
    for k in range(1, words.shape[1]):
        folded *= _FOLD
        folded += words[:, k]
    _, first, inverse = np.unique(folded, return_index=True, return_inverse=True)
    if words.shape[1] > 1 and (words != words[first[inverse.reshape(-1)]]).any():
        _, first, inverse = np.unique(words, return_index=True, return_inverse=True, axis=0)
    return first, inverse.reshape(-1)


def _numbers(data: np.ndarray, left: np.ndarray, width: np.ndarray) -> np.ndarray | None:
    """Each field's number as ``float()`` reads its text, or None.

    A field of at most 15 digits is summed exactly in integers. Any other
    ASCII field goes through numpy's bytes-to-float64 cast, which accepts
    the texts ``float()`` accepts and rounds correctly; None when the cast
    rejects one or a field is not ASCII, which the cast may read otherwise.
    """
    span = max(int(width.max(initial=0)), 1)
    rows = np.lib.stride_tricks.sliding_window_view(data, span)[left]
    rows *= np.arange(span) < width[:, None]
    digits = (rows >= ord("0")) & (rows <= ord("9"))
    whole = (digits.sum(axis=1) == width) & (width > 0) & (width <= 15)
    numbers = np.empty(len(rows))
    if whole.any():
        integers = np.zeros(int(whole.sum()), dtype=np.int64)
        places = rows[whole, :15].astype(np.int64) - ord("0")
        widths = width[whole]
        for k in range(places.shape[1]):
            integers = np.where(k < widths, integers * 10 + places[:, k], integers)
        numbers[whole] = integers
    if not whole.all():
        other = rows[~whole]
        if (other >= 0x80).any():
            return None
        try:
            numbers[~whole] = other.view(f"S{span}").reshape(-1).astype(np.float64)
        except ValueError:
            return None
    return numbers


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
