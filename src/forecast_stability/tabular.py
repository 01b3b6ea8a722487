"""The CSV format of every file the pipeline writes and reads.

Each file is one dense grid: key columns, whose values name a cell, then
float value columns, one row per cell in key order. A key is a text label
(sorted) or an integer laid out from an origin, such as a horizon step
counted from 1 or a date counted from the earliest one. ``csv.writer``
quotes a field holding ``,``, ``"`` or a newline, RFC 4180 style, and
writes every other field as is.

The writer builds each block of rows as bytes in numpy. It encodes each
distinct key text once per file and each distinct bit pattern of a block's
values once (so ``0.0`` and ``-0.0`` differ), gathers each row's fields
from tables padded with 0xFF, which no UTF-8 text holds, and drops the
padding. A value column written by :func:`format_demand` or ``str`` is
formatted in numpy: int64 values, whole float64 values below 2**53, and
other float64 values from 1e-4 up to 2**51 take their shortest round-trip
digits from an exact integer kernel, as ``repr`` picks them. A block whose
distinct values include any other value (an exponent form, ``inf``,
``nan``, a subnormal) or one the kernel leaves unproved (an exact tie or a
carry to a new power of ten) is written whole by the schema's formatter,
as is every block of a schema with any other formatter, so the bytes are
those the formatter would write.

The reader parses a file block by block with numpy. One pass finds a
block's commas and newlines. Each key column codes its texts
through a table of the texts read so far, so each distinct text is decoded
once per file. A number written ``[-]digits[.digits]`` in at most 19 bytes
is read exactly as integers: its digits ``m`` and the count ``k`` after
its dot give ``m / 10**k``, which float64 division rounds correctly while
``m <= 2**53``; a larger ``m`` is divided in integers before one rounding.
Any other ASCII number (an exponent, ``+``, ``_``, ``inf``, ``nan``, a
longer text) goes through numpy's bytes-to-float64 cast. A file that holds a
``"``, a ``\\r`` or a NUL byte, or a block that fails any check (field
count, UTF-8, a number), is read again row by row with ``csv.reader``,
which is the reference for the block reader and the only one that raises
for a malformed row. A file holding at least ``SPLIT_BYTES`` (8 MiB) after
its header is parsed in two halves at once where :func:`workers.cpus`
allows a fork: a forked child parses the lines from the first line start
past the midpoint, with its own table of texts, and sends back only its
row count and its texts; coding those through this process's table gives
the codes, texts and numbers of a one-process parse. A half that fails a
check fails the file, and a child that sends nothing leaves its half to
this process. Either reader then scatters codes and numbers into the
dense grid. A wrong header or field count, a bad or non-finite number, bytes
that are not UTF-8, a duplicate cell and a missing cell each raise the
error class the caller names for it, with the file and, where one row is
at fault, its line.

Memory: the writer holds the grid, each key's padded texts and, per block,
its cells, a few words per distinct value to format them, and a record of
its rows, padded to their fields' longest texts;
it copies no grid, and long key texts shorten a block to about
``BLOCK_BYTES``. The reader holds per row each key's code (4 bytes), each
number and the row's cell index (8 bytes each), per cell one flag and the
float64 grids, and per distinct key text its words and fold. Parsing a
block, ``BLOCK_BYTES`` plus the rest of its last line, holds a few times
its bytes. A file read in two halves holds each column in one shared
anonymous ``mmap``, sized for the most rows its bytes could hold, of which
only the pages written take memory. The child writes its rows past any
row of the first half; moving them to follow the first half's holds one
column's second half twice at most, and the pages past the rows are given
back column by column. No column is copied whole and the file is read
once.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import io
import itertools
import math
import mmap
import os
from array import array
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import workers

# The block reader parses this many bytes plus the rest of a line at once,
# and a block the writer builds holds about as many key bytes;
# the writer builds, and the reader indexes, at most this many rows at once.
BLOCK_BYTES = 256 * 1024
BLOCK_ROWS = 8192
# The block reader parses a file holding at least this many bytes after its
# header in two processes at once, where it may fork: below it, the fork
# costs more than the second half takes to parse.
SPLIT_BYTES = 32 * BLOCK_BYTES


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
    This is the reference for the writer's number kernel, which writes the
    same text. A block holding a value the kernel does not prove is written
    whole by this function.
    """
    value = float(value)
    if value.is_integer():
        return f"{value:.0f}"
    return repr(value)


def _day(text: str) -> int:
    """Day number of a date written ``YYYY-MM-DD``, the one form every supported Python reads."""
    day = dt.date.fromisoformat(text)
    if day.isoformat() != text:  # From Python 3.11, also 20200102 or 2020-W01-5.
        raise ValueError(text)
    return day.toordinal()


MODEL = Key("model")
ITEM = Key("item_id")
RUN = Key("run_id", parse=int, origin=0)
STEP = Key("h", parse=int, origin=1)
DATE = Key("date", parse=_day, show=lambda day: dt.date.fromordinal(day).isoformat())
DATASET = Schema((ITEM, DATE), ("demand",), format_demand)
RUNS = Schema((MODEL, RUN, ITEM, STEP), ("value",))
ACTUALS = Schema((ITEM, STEP), ("value",), format_demand)
CV = Schema((MODEL, ITEM, STEP), ("cv", "mean", "std"))
RMSE = Schema((MODEL, RUN), ("rmse",))


def write_csv(path: str | Path, schema: Schema, axes, columns) -> None:
    """Write a dense grid to ``path``; see :func:`csv_text`.

    A grid that fails its checks raises before the file is opened.
    """
    chunks = _chunks(schema, axes, columns)
    with Path(path).open("wb") as fh:
        fh.writelines(chunks)


def csv_text(schema: Schema, axes, columns) -> str:
    """The CSV text of a dense grid.

    ``axes`` gives each key's labels, in any order and written sorted, or
    integers counting up by one from the key's origin. Each array in
    ``columns`` is shaped by the axis lengths, none of them 0.
    """
    return b"".join(_chunks(schema, axes, columns)).decode("utf-8")


def _chunks(schema: Schema, axes, columns) -> Iterator[bytes]:
    """Check a grid, then return its file's bytes: the header, then a block of rows at a time."""
    if not schema.values:
        raise ValueError("a schema needs at least one value column")
    shape = tuple(len(axis) for axis in axes)
    if any(column.shape != shape for column in columns):
        raise ValueError(f"columns must have the axis lengths {shape}")
    # The reader refuses these: no data rows, or integers that skip or start off their origin.
    if 0 in shape:
        raise ValueError(f"no data rows: the axis lengths are {shape}")
    fields, labels, orders = [], [], []
    for key, axis in zip(schema.keys, axes):
        if key.parse is None:
            if len(set(axis)) != len(axis):
                raise ValueError(f"duplicate {key.name} labels")
            order = sorted(range(len(axis)), key=axis.__getitem__)
            fields.append([axis[i] for i in order])
            labels.extend(axis)
        else:
            origin = axis[0] if key.origin is None else key.origin
            if list(axis) != list(range(origin, origin + len(axis))):
                raise ValueError(f"{key.name} values must count up by one from {origin}")
            order = range(len(axis))
            fields.append([key.show(v) for v in axis])
        orders.append(np.array(order, dtype=np.intp))
    # csv.writer quotes a field only for the characters of its line
    # terminator, so a lone "\r" in a label is quoted only under "\r\n".
    terminator = "\r\n" if any("\r" in label for label in labels) else "\n"
    header = io.StringIO()
    csv.writer(header, lineterminator=terminator).writerow(schema.header)
    # A row is its key texts, each followed by a comma, then its value texts,
    # each followed by a comma or, last, the terminator; values need no quotes.
    tables = [_padded(_quoted(texts, terminator)) for texts in fields]
    ends = [b","] * (len(columns) - 1) + [terminator.encode()]
    ends = [np.frombuffer(end, np.uint8) for end in ends]
    n_rows = math.prod(shape)
    step = min(BLOCK_ROWS, max(BLOCK_BYTES // (sum(t.shape[1] for t in tables) or 1), 1))

    def blocks() -> Iterator[bytes]:
        yield header.getvalue().encode("utf-8")
        for first in range(0, n_rows, step):
            index = np.unravel_index(np.arange(first, min(first + step, n_rows)), shape)
            cell = tuple(map(np.take, orders, index))
            parts = [np.take(table, i, axis=0) for table, i in zip(tables, index)]
            for column, end in zip(columns, ends):
                values = column[cell]
                bits, inverse = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
                table = _formatted(bits.view(values.dtype), schema.fmt)
                parts.append(np.take(table, inverse, axis=0))
                parts.append(np.broadcast_to(end, (len(values), len(end))))
            record = np.concatenate(parts, axis=1)
            yield record[record != 0xFF].tobytes()

    return blocks()


_ONE, _TEN = np.uint64(1), np.uint64(10)
_FRACTION = np.uint64(2**52 - 1)
_MAGNITUDE = np.uint64(2**63 - 1)
# The bits of 1e-4, 2**51 and 2**53: positive floats order as their bits.
_TINY, _WIDE, _EXACT = np.array([1e-4, 2.0**51, 2.0**53]).view(np.uint64)
# 10**k for k in -4..15, each a float at or just above it, so that a value's
# decimal exponent is the count of them at or below it, minus 5.
_DECADES = np.array([float(f"1e{k}") for k in range(-4, 16)])


def _formatted(values: np.ndarray, fmt: Callable[[float], str] | None) -> np.ndarray:
    """Each value's text, as ``fmt`` or else ``str`` writes it, in a 0xFF-padded table.

    Integers of an int64 column and, in a float64 column written by
    :func:`format_demand` or ``str``, whole numbers below 2**53 and other
    numbers from 1e-4 to 2**51 are laid out by :func:`_shortest` and
    :func:`_layout`. If any value is outside that domain, or has shortest
    digits :func:`_shortest` does not prove, the formatter writes them all.
    """
    n = len(values)
    if values.dtype == np.int64 and fmt is None:
        raw = values.view(np.uint64)
        neg = values < 0
        return _layout(neg, np.where(neg, -raw, raw), np.zeros(n, np.uint64), np.zeros(n, np.intp))
    if values.dtype == np.float64 and fmt in (None, format_demand):
        raw = values.view(np.uint64)
        magnitude = raw & _MAGNITUDE
        # Below 2**53 and whole, or else 0.5: no NaN reaches np.floor.
        size = np.where(magnitude < _EXACT, np.abs(values), 0.5)
        whole = np.floor(size) == size
        other = ~whole & (magnitude >= _TINY) & (magnitude < _WIDE) & (raw & _FRACTION != 0)
        integer = np.where(whole, size, 0).astype(np.uint64)
        fraction = np.zeros(n, np.uint64)
        # str writes a whole number with ".0", format_demand without.
        places = whole.astype(np.intp) * (fmt is None)
        rest = ~(whole | other)
        at = np.flatnonzero(other)
        if at.size:
            mantissa = magnitude[at] & _FRACTION | np.uint64(2**52)
            exponent = (magnitude[at] >> np.uint64(52)).astype(np.int64) - 1075
            digits, places[at], unproved = _shortest(size[at], mantissa, exponent)
            integer[at], fraction[at] = np.divmod(digits, _POW10[np.minimum(places[at], 19)])
            rest[at[unproved]] = True
        if not rest.any():
            return _layout(np.signbit(values), integer, fraction, places)
    return _padded(list(map(fmt or str, values.tolist())))


def _shortest(size: np.ndarray, mantissa: np.ndarray, exponent: np.ndarray):
    """The shortest digits that read back as each ``size = mantissa * 2**exponent``,
    nearest it among those, as Python's ``repr`` picks them; for 1e-4 <=
    ``size`` < 2**51, not a power of two and not whole.

    Returns the digits as an integer, the count of them after the dot, and
    where a tie or a carry to a new power of ten leaves them unproved. As
    in Ryu (Adams, PLDI 2018), ``size`` times ``10**p`` is an exact integer
    product of at most 100 bits, split into its 17 leading digits
    (``scaled``) and a remainder (``rest``) of ``s`` bits.
    """
    p = 16 - (np.searchsorted(_DECADES, size, side="right") - 5)
    s = (-(p + exponent)).astype(np.uint64)  # from 1 to 46
    five = _POW5[p]
    # mantissa * five from 32-bit limbs, as hi * 2**64 + lo; no product overflows.
    low, m_high, f_high = np.uint64(2**32 - 1), mantissa >> 32, five >> 32
    middle = (mantissa & low) * f_high + m_high * (five & low)
    lo = (mantissa & low) * (five & low)
    hi = m_high * f_high + (middle >> 32)
    lo += (middle & low) << 32
    hi += lo < (middle & low) << 32
    scaled = hi << (64 - s) | lo >> s
    rest = lo & ((_ONE << s) - _ONE)
    sticky = rest != 0
    # 16 digits read back when less than half an ulp from size. No 16 digits
    # lie exactly half an ulp away: that is an odd multiple of 2**(exponent-1)
    # and takes at least 18 digits.
    sixteen, tie = _rounded(scaled, sticky, 1)
    miss = (sixteen * _TEN - scaled).view(np.int64) * (2 << s.view(np.int64))
    miss = np.abs(miss - (rest << _ONE).view(np.int64))
    cut = (miss < five.view(np.int64)).astype(np.intp)
    # 17 digits round by the remainder's bits, and always read back.
    half = _ONE << (s - _ONE)
    digits = np.where(cut, sixteen, scaled + (rest >= half))
    unproved = np.where(cut, tie, rest == half) | (digits == _POW10[17 - cut])
    # 15 digits, and the powers of ten they are divided by, are exact in
    # float64, so the division reads them back as float() does. Any 15 digits
    # or fewer that read back as size are what 15 digits round it to
    # (DBL_DIG), so the shortest are those 15 less their trailing zeros.
    at = np.flatnonzero(cut & (p > 2))
    fifteen, tie = _rounded(scaled[at], sticky[at], 2)
    fits = fifteen.astype(np.float64) / _POW10_FLOAT[p[at] - 2] == size[at]
    at, fifteen = at[fits], fifteen[fits]
    unproved[at] = tie[fits] | (fifteen == _POW10[15])
    cut[at] = 2
    for k in (8, 4, 2, 1):
        shorter = fifteen // _POW10[k]
        gone = shorter * _POW10[k] == fifteen
        fifteen = np.where(gone, shorter, fifteen)
        cut[at] += k * gone
    digits[at] = fifteen
    return digits, p - cut, unproved


def _rounded(scaled: np.ndarray, sticky: np.ndarray, cut: int) -> tuple[np.ndarray, np.ndarray]:
    """``scaled`` over ``10**cut``, ``cut`` >= 1, rounded to nearest, and
    where that is an exact tie: half of ``10**cut`` left over and no bits
    below ``scaled`` (``sticky`` false). A tie rounds up; it is unproved."""
    power = _POW10[cut]
    head = scaled // power
    last = scaled - head * power
    half = power >> _ONE
    return head + (last >= half), (last == half) & ~sticky


def _layout(neg: np.ndarray, whole: np.ndarray, fraction: np.ndarray, places: np.ndarray):
    """Rows of a sign, the digits of ``whole``, then a dot and ``places``
    digits of ``fraction`` where ``places`` > 0, in a 0xFF-padded uint8 table.

    The digits are built 8 to a word and blanked by byte masks per word.
    """
    n = len(whole)
    sizes = np.searchsorted(_POW10[1:], whole, side="right") + 1
    wide, deep = int(sizes.max(initial=1)), int(places.max(initial=0))
    n_whole, n_fraction = -(-wide // 8), -(-deep // 8)
    # Per word and row, the blank bytes before the digits of whole, and the
    # digits of fraction after the word; words lie along the first axis.
    before = np.arange(8 * n_whole, 0, -8)[:, None] - sizes
    after = places - np.arange(8, 8 * n_fraction + 1, 8)[:, None]
    chunks = np.concatenate(
        (
            whole // _POW10[8 * np.arange(n_whole - 1, -1, -1), None] % _POW10[8],
            fraction // _POW10.take(after, mode="clip")
            % _POW10[:9].take(after + 8, mode="clip")
            * _POW10.take(-after, mode="clip"),
        )
    )
    words = _ascii8(chunks)
    words |= np.concatenate((_MASKS.take(before, mode="clip"), _TOPS.take(-after, mode="clip")))
    text = words.T.copy().view(np.uint8)
    signed = int(neg.any())
    table = np.empty((n, signed + wide + (deep > 0) + deep), np.uint8)
    if signed:
        table[:, 0] = np.where(neg, ord("-"), 0xFF)
    table[:, signed : signed + wide] = text[:, 8 * n_whole - wide : 8 * n_whole]
    if deep:
        table[:, signed + wide] = np.where(places > 0, ord("."), 0xFF)
        table[:, signed + wide + 1 :] = text[:, 8 * n_whole : 8 * n_whole + deep]
    return table


def _ascii8(x: np.ndarray) -> np.ndarray:
    """The 8 digits of each integer below 10**8 as a word of ASCII, its
    leading digit first: the inverse of :func:`_parse8`."""
    # Split into 4-digit halves, 2-digit quarters, then digits, one per
    # lane; a multiply and a shift divide every lane at once.
    high = x // np.uint64(10**4)
    x = high | (x - high * np.uint64(10**4)) << np.uint64(32)
    high = (x * np.uint64(10486) >> np.uint64(20)) & np.uint64(0x0000007F0000007F)
    x = high | (x - high * np.uint64(100)) << np.uint64(16)
    high = (x * np.uint64(103) >> np.uint64(10)) & np.uint64(0x000F000F000F000F)
    return high | (x - high * _TEN) << np.uint64(8) | _ZERO_DIGITS


def _padded(texts: Sequence[str]) -> np.ndarray:
    """Each text's UTF-8 bytes as a row of a uint8 table, padded with 0xFF."""
    joined = "".join(texts)
    data = np.frombuffer(joined.encode("utf-8"), np.uint8)
    # Each text's length is its byte count, unless some text is not ASCII.
    sized = texts if len(data) == len(joined) else [text.encode("utf-8") for text in texts]
    lengths = np.fromiter(map(len, sized), np.intp, len(texts))
    table = np.full((len(texts), lengths.max(initial=0)), 0xFF, np.uint8)
    table[np.arange(table.shape[1]) < lengths[:, None]] = data
    return table


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

    # Per key, its axis and the position along it of each code.
    axes = []
    ranks = []
    cells = 1
    for key, texts, column in zip(keys, key_texts, codes):
        if key.parse is None:
            order = sorted(range(len(texts)), key=texts.__getitem__)
            rank = np.empty(len(texts), dtype=np.int64)
            rank[order] = np.arange(len(texts))
            axes.append(tuple(texts[i] for i in order))
            cells *= len(texts)
        else:
            try:
                parsed = [key.parse(text) for text in texts]
            except ValueError:
                bad = _first_rejected(key.parse, texts)
                row = int(np.argmax(column == bad))
                what = f"bad {key.name} {texts[bad]!r}"
                raise _fault(errors.value, path, row, what) from None
            origin = min(parsed) if key.origin is None else key.origin
            rank = [value - origin for value in parsed]
            low = min(range(len(rank)), key=rank.__getitem__)
            if rank[low] < 0:
                what = f"{key.name} {texts[low]!r} is below {origin}"
                raise _fault(errors.value, path, int(np.argmax(column == low)), what)
            size = max(rank) + 1
            axes.append(range(origin, origin + size))
            cells *= size
        # A larger grid would overflow the int64 cell index.
        if cells > np.iinfo(np.int64).max:
            raise errors.missing(f"{path}: {cells} cells are too many for one grid")
        ranks.append(np.asarray(rank, dtype=np.int64))

    def cell(index) -> str:
        return ",".join(
            axis[i] if key.parse is None else key.show(axis[i])
            for key, axis, i in zip(keys, axes, index)
        )

    shape = tuple(len(axis) for axis in axes)
    # Each row's row-major cell index, built in place a block at a time.
    flat = np.zeros(n_rows, dtype=np.int64)
    for first in range(0, n_rows, BLOCK_ROWS):
        part = flat[first : first + BLOCK_ROWS]
        for length, rank, column in zip(shape, ranks, codes):
            part *= length
            part += rank[column[first : first + BLOCK_ROWS]]
    # The codes are done with; the grids need not sit beside them.
    del codes, column
    # The row count, or else one flag per cell, shows a duplicate or missing
    # cell; only then are the rows sorted, to name the first one.
    sound = n_rows == cells
    if sound or n_rows < cells and fill_missing:
        seen = np.zeros(cells, dtype=bool)
        seen[flat] = True
        sound = np.count_nonzero(seen) == n_rows
        del seen
    if not sound:
        order = np.argsort(flat, kind="stable")
        ranked = flat[order]
        repeats = np.flatnonzero(ranked[1:] == ranked[:-1])
        if repeats.size:
            row = int(order[repeats + 1].min())
            what = f"duplicate cell {cell(np.unravel_index(flat[row], shape))}"
            raise _fault(errors.duplicate, path, row, what)
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
    error, with its line, for a wrong header, field count, number or bytes
    that are not UTF-8.
    """
    keys, header = schema.keys, schema.header
    # A new text's code is the number of texts seen before it in its column.
    lookups: list[dict[str, int]] = [{} for _ in keys]
    codes = [array("i") for _ in keys]
    numbers = [array("d") for _ in schema.values]
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
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
                for lookup, column, texts in zip(lookups, codes, fields):
                    sizes = map(len, itertools.repeat(lookup))
                    column.extend(map(lookup.setdefault, texts, sizes))
                for name, column, texts in zip(schema.values, numbers, fields[len(keys) :]):
                    try:
                        column.extend(map(float, texts))
                    except ValueError:
                        row = _first_rejected(float, texts)
                        what = f"bad {name} {texts[row]!r}"
                        raise _fault(errors.value, path, done + row, what) from None
    except UnicodeDecodeError:
        raise _not_utf8(errors.value, path) from None
    dense = [np.frombuffer(column, dtype=np.intc) for column in codes]
    values = [np.frombuffer(column, dtype=np.float64) for column in numbers]
    return [list(lookup) for lookup in lookups], dense, values


def _read_blocks(path: Path, schema: Schema):
    """Parse ``path`` block by block with numpy, as :func:`_read_rows` does.

    Returns None where only ``csv.reader`` may read the file: a header
    other than the schema's, a ``"``, ``\\r`` or NUL byte, a wrong field
    count, a field longer than ``csv.field_size_limit()``, a key that is
    not UTF-8 or a number that ``float()`` may not read as the cast does.
    A file of at least ``SPLIT_BYTES`` after its header is parsed in two
    halves at once when :func:`workers.cpus` allows a fork; see
    :func:`_read_halves`.
    """
    header = ",".join(schema.header).encode()
    keys = [_KeyTexts() for _ in schema.keys]
    with path.open("rb") as fh:
        if fh.readline().removesuffix(b"\n") != header:
            return None
        start, size = fh.tell(), os.fstat(fh.fileno()).st_size
        if size - start >= SPLIT_BYTES and (cpus := workers.cpus()):
            return _read_halves(path, fh, keys, len(schema.values), size, cpus)
        # Growing arrays, as in _read_rows, hold the parsed blocks compactly.
        columns = [array("i") for _ in schema.keys] + [array("d") for _ in schema.values]
        for parts in _parsed(fh, keys, len(schema.values)):
            if parts is None:
                return None
            for column, part in zip(columns, parts):
                column.frombytes(part.view(np.uint8))
    codes = [np.frombuffer(column, dtype=np.intc) for column in columns[: len(keys)]]
    values = [np.frombuffer(column, dtype=np.float64) for column in columns[len(keys) :]]
    return [list(key.lookup) for key in keys], codes, values


def _read_halves(
    path: Path, fh: BinaryIO, keys: list[_KeyTexts], n_values: int, size: int, cpus: set[int]
):
    """:func:`_read_blocks`' result for the ``size``-byte file ``fh``, its
    header read, parsed in two halves at once.

    This process parses the lines before the first line start past the
    midpoint of the rest, and a child forked onto ``cpus`` the lines from
    it on, with its own key texts. Both write into one shared anonymous
    ``mmap`` per column, the child from a row past any of the first half.
    The child sends back its row count and each key's texts in order of
    first appearance; coding them through this process's key texts keeps
    that order, and its codes are rewritten a block at a time as its rows
    move up to follow the first half's. If the child exits without a
    result, this process parses the second half itself.
    """
    start = fh.tell()
    fh.seek(start + (size - start) // 2)
    fh.readline()
    middle = fh.tell()
    fh.seek(start)
    # A row holds a comma per field but one, then a newline or, last, the
    # file's end: these bound each half's rows.
    n_fields = len(keys) + n_values
    second = (middle - start) // n_fields
    rows = second + (size - middle) // n_fields + 1
    kinds = [np.dtype(np.intc)] * len(keys) + [np.dtype(np.float64)] * n_values
    buffers = [mmap.mmap(-1, rows * kind.itemsize) for kind in kinds]
    columns = [np.frombuffer(buffer, kind) for buffer, kind in zip(buffers, kinds)]

    def second_half():
        own_keys = [_KeyTexts() for _ in keys]
        with path.open("rb") as own:
            own.seek(middle)
            end = _fill(own, own_keys, columns, second, size - middle)
        if end is None:
            return None, []
        return end - second, [list(key.lookup) for key in own_keys]

    child = workers.fork(second_half, cpus)
    try:
        end = _fill(fh, keys, columns, 0, middle - start)
        if end is None:
            return None
        sent = None
        if child is not None:
            with contextlib.suppress(workers.NoResult):
                sent = child.join()
    finally:
        if child is not None:
            child.close()
    if sent is None:
        # No result came back: this process parses the second half too.
        end = _fill(fh, keys, columns, end, size - middle)
        if end is None:
            return None
        sent = 0, [[]] * len(keys)
    n_rows, texts = sent
    if n_rows is None:
        return None
    for index, (buffer, column) in enumerate(zip(buffers, columns)):
        width = column.itemsize
        if index < len(keys):
            lookup = keys[index].lookup
            codes = [lookup.setdefault(text, len(lookup)) for text in texts[index]]
            codes = np.array(codes, dtype=np.intc)
            for first in range(0, n_rows, BLOCK_ROWS):
                count = min(BLOCK_ROWS, n_rows - first)
                source = column[second + first : second + first + count]
                column[end + first : end + first + count] = codes[source]
        else:
            buffer.move(end * width, second * width, n_rows * width)
        # Give back the pages past the rows, which the child's rows may have held.
        used = -(-(end + n_rows) * width // mmap.PAGESIZE) * mmap.PAGESIZE
        if used < len(buffer) and hasattr(mmap, "MADV_REMOVE"):
            buffer.madvise(mmap.MADV_REMOVE, used, len(buffer) - used)
    end += n_rows
    columns = [column[:end] for column in columns]
    return [list(key.lookup) for key in keys], columns[: len(keys)], columns[len(keys) :]


def _fill(fh: BinaryIO, keys: list[_KeyTexts], columns: list[np.ndarray], row: int, size: int):
    """Parse the next ``size`` bytes of ``fh`` into ``columns`` from ``row``
    on; returns the row past the last, or None as :func:`_parsed`."""
    for parts in _parsed(fh, keys, len(columns) - len(keys), size):
        if parts is None:
            return None
        count = len(parts[0])
        for column, part in zip(columns, parts):
            column[row : row + count] = part
        row += count
    return row


def _parsed(fh: BinaryIO, keys: list[_KeyTexts], n_values: int, size: int | None = None):
    """Each block's columns, per key its codes then per value column its
    numbers, from the next ``size`` bytes of ``fh`` or the rest of it;
    None, and no more, for a block that only ``csv.reader`` may read."""
    for block in _blocks(fh, size):
        split = _split_block(block, len(keys) + n_values)
        if split is None:
            yield None
            return
        text, data, lefts, widths = split
        fields = list(zip(lefts.T, widths.T))
        parts = [key.codes_of(text, data, left, width) for key, (left, width) in zip(keys, fields)]
        parts += [_numbers(data, left, width) for left, width in fields[len(keys) :]]
        if any(part is None for part in parts):
            yield None
            return
        yield parts


def _blocks(fh: BinaryIO, size: int | None = None) -> Iterator[bytes]:
    """The next ``size`` bytes of ``fh``, or the rest of it, in blocks of
    whole lines, each ending with a newline; ``size`` ends at a line start.

    A block is ``BLOCK_BYTES`` plus the rest of its last line.
    """
    left = math.inf if size is None else size
    while left > 0 and (block := fh.read(min(BLOCK_BYTES, left))):
        if len(block) < left:
            block += fh.readline()
        left -= len(block)
        # Only the last line of the file may lack its newline.
        yield block if block.endswith(b"\n") else block + b"\n"


# Zeros before a block let the last 24 bytes of any field be read as three
# 8-byte words; zeros after it, the first bytes of any field.
_FRONT = 24


def _split_block(block: bytes, n_fields: int):
    """Where each field of each non-blank line of ``block`` starts, and its width.

    Returns ``block`` with zeros around it, as bytes and as uint8, and the
    (lines, fields) offsets into it and widths; None when csv.reader must
    read the block. ``block`` ends with a newline.
    """
    if b'"' in block or b"\r" in block or b"\0" in block:
        return None
    data = np.frombuffer(block, dtype=np.uint8)
    # Every comma and newline, and the field that each one ends.
    seps = data == ord(",")
    seps |= data == ord("\n")
    seps = np.flatnonzero(seps)
    ends = data[seps] == ord("\n")
    lefts = np.empty_like(seps)
    lefts[0] = 0
    lefts[1:] = seps[:-1] + 1
    widths = seps - lefts
    # A newline right after another, or at the start, ends a blank line.
    blank = ends & (widths == 0)
    blank[1:] &= ends[:-1]
    if blank.any():
        lefts, widths, ends = lefts[~blank], widths[~blank], ends[~blank]
    # Every line but a blank one needs one comma per field but one.
    if len(ends) % n_fields or np.count_nonzero(ends) * n_fields != len(ends):
        return None
    if not ends[n_fields - 1 :: n_fields].all():
        return None
    widest = int(widths.max(initial=0))
    if widest > csv.field_size_limit():
        return None
    text = b"".join((bytes(_FRONT), block, bytes(widest + 8)))
    lefts += _FRONT
    shape = (-1, n_fields)
    return text, np.frombuffer(text, np.uint8), lefts.reshape(shape), widths.reshape(shape)


class _KeyTexts:
    """A key column's distinct texts, coded in order of first appearance.

    Beside the dict of texts, a table of their folded words, sorted, codes
    a block's texts in a few array operations. A run of rows that repeat a
    text is looked up once, and a text is decoded only when the table
    misses it: once per file, unless two texts fold alike.
    """

    def __init__(self) -> None:
        self.lookup: dict[str, int] = {}
        self.folds = np.empty(0, dtype=np.uint64)
        self.codes = np.empty(0, dtype=np.intc)  # the code of each fold
        self.words = np.empty((1, 0), dtype=np.uint64)  # each code's words

    def codes_of(
        self, text: bytes, data: np.ndarray, left: np.ndarray, width: np.ndarray
    ) -> np.ndarray | None:
        """Each field's code, adding new texts in order of appearance.

        None when a text is not UTF-8.
        """
        words = _words(data, left, width)
        # The first row of each run of equal texts.
        changed = np.ones(len(left), dtype=bool)
        changed[1:] = (words[:, 1:] != words[:, :-1]).any(axis=0)
        heads = np.flatnonzero(changed)
        n_words = max(len(words), len(self.words))
        words = _widen(np.take(words, heads, axis=1), n_words)
        self.words = _widen(self.words, n_words)
        folded = _fold(words)
        if len(self.folds):
            at = np.minimum(np.searchsorted(self.folds, folded), len(self.folds) - 1)
            codes = self.codes[at]
            hit = self.folds[at] == folded
            hit &= (np.take(self.words, codes, axis=1) == words).all(axis=0)
        else:
            codes = np.empty(len(heads), dtype=np.intc)
            hit = np.zeros(len(heads), dtype=bool)
        missed = np.flatnonzero(~hit)
        if missed.size:
            first, inverse = _distinct(np.take(words, missed, axis=1), folded[missed])
            size = len(self.lookup)
            found = np.empty(len(first), dtype=np.intc)
            try:
                for index in np.argsort(first):
                    start = int(left[heads[missed[first[index]]]])
                    key = text[start : start + int(width[heads[missed[first[index]]]])]
                    found[index] = self.lookup.setdefault(key.decode("utf-8"), len(self.lookup))
            except UnicodeDecodeError:
                return None
            codes[missed] = found[inverse]
            # Distinct texts new to the file, in order of appearance.
            new = missed[first[found >= size]]
            new = new[np.argsort(codes[new])]
            self.words = np.concatenate((self.words, np.take(words, new, axis=1)), axis=1)
            new = new[np.argsort(folded[new], kind="stable")]
            at = np.searchsorted(self.folds, folded[new], side="right")
            self.folds = np.insert(self.folds, at, folded[new])
            self.codes = np.insert(self.codes, at, codes[new])
        return np.repeat(codes, np.diff(heads, append=len(left)))


# _MASKS[n] keeps the first n bytes of a little-endian 8-byte word, and
# _TOPS[n] its last n bytes.
_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)
_TOPS = ~_MASKS[::-1]
# Odd multiplier that folds the 8-byte words of a field into one integer.
_FOLD = np.uint64(0x9E3779B97F4A7C15)


def _words(data: np.ndarray, left: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Each field's bytes as (words, fields) little-endian uint64, zero-filled."""
    unaligned = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
    n_words = max(-(-int(width.max(initial=0)) // 8), 1)
    words = np.empty((n_words, len(left)), dtype=np.uint64)
    for k in range(n_words):
        words[k] = unaligned[left + 8 * k] & _MASKS.take(width - 8 * k, mode="clip")
    return words


def _widen(words: np.ndarray, n_words: int) -> np.ndarray:
    """``words`` with zero words added up to ``n_words``."""
    return np.pad(words, ((0, n_words - len(words)), (0, 0))) if len(words) < n_words else words


def _fold(words: np.ndarray) -> np.ndarray:
    """Each field's words folded into one; trailing zero words change nothing."""
    folded = words[-1].copy()
    for k in range(len(words) - 2, -1, -1):
        folded *= _FOLD
        folded += words[k]
    return folded


def _distinct(words: np.ndarray, folded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first field of each distinct field of ``words``, and each field's index into them.

    A field holds no NUL, so zero-filled words differ exactly when texts
    do. A field of up to 8 bytes is one word, its own fold; longer ones
    are compared in full where two fold alike.
    """
    _, first, inverse = np.unique(folded, return_index=True, return_inverse=True)
    if len(words) > 1 and (words != np.take(words, first[inverse], axis=1)).any():
        _, first, inverse = np.unique(words.T, return_index=True, return_inverse=True, axis=0)
    return first, inverse.reshape(-1)


_ZERO_DIGITS = np.uint64(0x3030303030303030)
_LOW_BITS = np.uint64(0x7F7F7F7F7F7F7F7F)
_PAST_NINE = np.uint64(0x7676767676767676)  # 0x80 - 10 in each byte
_HIGH_BITS = np.uint64(0x8080808080808080)
# Times a word of small byte counts, its top byte is their sum.
_ONES = np.uint64(0x0101010101010101)
_DOTS = np.uint64(0x1E1E1E1E1E1E1E1E)  # "." ^ "0" in each byte
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_POW5 = 5 ** np.arange(21, dtype=np.uint64)
_POW10_FLOAT = 10.0 ** np.arange(20)


def _numbers(data: np.ndarray, left: np.ndarray, width: np.ndarray) -> np.ndarray | None:
    """Each field's number as ``float()`` reads its text, or None.

    :func:`_decimals` reads every ``[-]digits[.digits]`` field of at most
    19 bytes exactly. Any other ASCII field goes through numpy's
    bytes-to-float64 cast, which accepts the texts ``float()`` accepts and
    rounds correctly; None when the cast rejects one or a field is not
    ASCII, which the cast may read otherwise.
    """
    read, numbers = _decimals(data, left, width)
    if not read.all():
        other = np.flatnonzero(~read)
        span = max(int(width[other].max()), 1)
        rows = np.lib.stride_tricks.sliding_window_view(data, span)[left[other]]
        rows *= np.arange(span) < width[other, None]
        if (rows >= 0x80).any():
            return None
        try:
            numbers[other] = rows.view(f"S{span}").reshape(-1).astype(np.float64)
        except ValueError:
            return None
    return numbers


def _parse8(x: np.ndarray) -> np.ndarray:
    """The 8 digits of each word, its first byte the leading one, as an integer."""
    x = x * np.uint64(10) + (x >> np.uint64(8))
    pairs = (x & np.uint64(0x000000FF000000FF)) * np.uint64(100 + (1000000 << 32))
    pairs += ((x >> np.uint64(16)) & np.uint64(0x000000FF000000FF)) * np.uint64(1 + (10000 << 32))
    return pairs >> np.uint64(32)


def _decimals(data: np.ndarray, left: np.ndarray, width: np.ndarray):
    """Which fields read as ``[-]digits[.digits]`` in at most 19 bytes, and
    their numbers, correctly rounded; ``data`` holds 24 bytes before them.
    Either side of the dot may be empty, not both.

    Each field's last 24 bytes are read as three words, its digits as the
    integer ``m`` and the digits after its dot as ``k``: the number is
    ``m / 10**k``. Both are exact in float64 when ``m <= 2**53``, and the
    division rounds correctly; otherwise :func:`_divide` rounds it.
    """
    unaligned = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
    end = left + width
    sign = data[left] == ord("-")
    chars = width - sign
    digits = np.zeros(len(left), dtype=np.uint64)  # the digits, the dot a 0
    # Per byte lane, words of 0s and 1s summed: the non-digits, and the
    # dot's byte with those after it.
    odd = np.zeros(len(left), dtype=np.uint64)
    tail = np.zeros(len(left), dtype=np.uint64)
    junk = np.zeros(len(left), dtype=np.uint64)  # non-digits other than a dot
    seen = np.zeros(len(left), dtype=np.uint64)  # all ones once a dot is read
    n_words = -(-min(int(chars.max(initial=0)), 19) // 8)
    for k in range(n_words):
        after = 8 * (n_words - 1 - k)  # bytes of the field after this word
        keep = _TOPS.take(chars - after, mode="clip")
        x = (unaligned[end - 8 - after] ^ _ZERO_DIGITS) & keep
        # A byte of x above 9 gets its top bit set: it is no digit.
        flags = ((((x & _LOW_BITS) + _PAST_NINE) | x) & _HIGH_BITS) >> np.uint64(7)
        odd += flags
        marked = flags * np.uint64(0xFF)
        x ^= marked & _DOTS
        junk |= x & marked
        from_dot = -flags | seen
        seen = -(from_dot >> np.uint64(63))
        tail += from_dot & _ONES
        digits *= np.uint64(10**8)
        digits += _parse8(x)
    odd = (odd * _ONES) >> np.uint64(56)
    dot = odd == 1
    read = (odd <= 1) & (junk == 0) & (chars > odd) & (width <= 19)
    # Past 19 only in a field not read.
    places = np.minimum(((tail * _ONES) >> np.uint64(56)) - dot, 19).astype(np.intp)
    fraction = digits % _POW10[places]
    whole = np.where(dot, (digits - fraction) // np.uint64(10) + fraction, digits)
    numbers = whole.astype(np.float64) / _POW10_FLOAT[places]
    wide = np.flatnonzero(read & (whole > 2**53))
    if wide.size:
        numbers[wide] = _divide(whole[wide], places[wide])
    np.negative(numbers, out=numbers, where=sign)
    return read, numbers


def _divide(whole: np.ndarray, places: np.ndarray) -> np.ndarray:
    """``whole / 10**places``, correctly rounded, for ``whole`` above
    ``2**53`` and ``places`` up to 18.

    That is ``whole / 5**places`` times ``2**-places``. The quotient is
    taken exactly in integers to 60-62 bits, a few bits per step, and its
    last bit set if a remainder is left, so that converting it to float64
    rounds as the exact quotient would.
    """
    divisor = _POW5[places]
    shift = 61 - np.frexp(whole.astype(np.float64))[1] + np.frexp(divisor.astype(np.float64))[1]
    divisor <<= np.maximum(-shift, 0).astype(np.uint64)
    todo = np.maximum(shift, 0).astype(np.uint64)
    quotient, rest = np.divmod(whole, divisor)
    # rest < divisor < 2**42 while bits are left to add, so 21 more fit.
    while todo.any():
        step = np.minimum(todo, np.uint64(21))
        todo -= step
        rest <<= step
        quotient <<= step
        quotient += rest // divisor
        rest %= divisor
    quotient |= rest != 0
    return np.ldexp(quotient.view(np.int64).astype(np.float64), -(places + shift))


def _first_rejected(parse: Callable[[str], object], texts: Sequence[str]) -> int:
    """Index of the first text that ``parse`` rejects with ValueError."""
    for index, text in enumerate(texts):
        try:
            parse(text)
        except ValueError:
            return index
    raise AssertionError("every text parses")


def _not_utf8(error: type[Exception], path: Path) -> Exception:
    """``error`` naming the first line of ``path`` that is not UTF-8.

    A newline is one byte in UTF-8, so no character spans two lines.
    """
    with path.open("rb") as fh:
        for number, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                what = f"byte 0x{line[exc.start]:02x} at column {exc.start + 1}"
                return error(f"{path}:{number}: not UTF-8: {what}")
    raise AssertionError("every line is UTF-8")


def _fault(error: type[Exception], path: Path, row: int, what: str) -> Exception:
    """``error`` naming the line of data row ``row``, counted from 0."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        # The header is the first non-blank row, so data row ``row`` is at row + 1.
        next(itertools.islice(filter(None, reader), row + 1, None))
        return error(f"{path}:{reader.line_num}: {what}")
