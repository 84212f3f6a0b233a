"""Transaction ingestion: CSV parsing, minute-grid dejitter, conversion to
delivery-relative hours and slicing of inter-arrival samples.

Times are measured in hours relative to the start of delivery of the traded
product, so they are negative while trading is open.  For hourly product
``s`` delivering on day ``d`` at hour ``s-1`` local time, trading in the
German market opens at ``-8 - s`` hours and closes half an hour before
delivery; both boundaries are configuration here, not constants.

A raw CSV or a normalized store whose text is plain (ASCII, without a
quote, NUL or blank line) is read in one ``np.loadtxt`` pass; any other
file is read record by record with ``csv.reader``, a batch of rows at a
time.  Both give the same columns, warnings and errors.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import logging
import re
from collections.abc import Collection, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, fields
from datetime import date, datetime, time as dtime, timedelta, timezone
from functools import cached_property
from pathlib import Path
from zoneinfo import ZoneInfo

import numpy as np

from .errors import DomainError, ParameterError, RowError, SchemaError

__all__ = [
    "Transactions",
    "CsvSchema",
    "parse_csv",
    "dejitter_us",
    "delivery_start",
    "ArrivalSeries",
    "InterArrivalSample",
    "build_series",
    "slice_window",
    "merge_samples",
    "trading_bounds",
    "DEFAULT_TRADING_END",
    "write_store",
    "load_store",
    "is_store",
]

logger = logging.getLogger(__name__)

DEFAULT_TRADING_END = -0.5

_US = timedelta(microseconds=1)
_EPOCH = datetime(1970, 1, 1)
_BLOCK = 1 << 16  # bytes a scan of a file's bytes reads at a time


def trading_bounds(
    product: int,
    trading_begin: dict[int, float] | None = None,
    trading_end: dict[int, float] | None = None,
) -> tuple[float, float]:
    """(begin, end) of hourly product ``s``'s trading period in hours to
    delivery: the configured per-product values, else ``-8 - s`` and -0.5."""
    begin = trading_begin[product] if trading_begin is not None else -8.0 - product
    end = trading_end[product] if trading_end is not None else DEFAULT_TRADING_END
    return begin, end


@dataclass(frozen=True)
class Transactions:
    """The rows a raw CSV keeps, as columns in file order.

    ``timestamp`` is the wall clock of a naive timestamp and UTC for one
    that carried a UTC offset, which ``aware`` marks; ``line`` is each
    row's 1-based file line.
    """

    day: np.ndarray  # datetime64[D], delivery date
    product: np.ndarray  # int64
    timestamp: np.ndarray  # datetime64[us]
    aware: np.ndarray  # bool
    line: np.ndarray  # int64

    def __len__(self) -> int:
        return int(self.day.size)

    def select(self, mask: np.ndarray) -> Transactions:
        """The rows where ``mask`` is true."""
        return Transactions(*(getattr(self, f.name)[mask] for f in fields(self)))


@dataclass(frozen=True)
class CsvSchema:
    """Column names and formats of a raw transaction CSV."""

    delimiter: str = ","
    delivery_date: str = "delivery_date"
    product: str = "product"
    timestamp: str = "timestamp"
    # None means ISO 8601 (e.g. "2017-09-30 16:01:00" / "2017-09-30")
    timestamp_format: str | None = None
    date_format: str | None = None


def _parse_timestamp(raw: str, fmt: str | None) -> datetime:
    if fmt is None:
        return datetime.fromisoformat(raw.strip())
    return datetime.strptime(raw.strip(), fmt)


def _parse_date(raw: str, fmt: str | None) -> date:
    if fmt is None:
        return date.fromisoformat(raw.strip())
    return datetime.strptime(raw.strip(), fmt).date()


def _micros(ts: datetime) -> int:
    """Microseconds since 1970-01-01 00:00, of the wall clock for a naive
    datetime and of UTC for an aware one."""
    us = (ts.replace(tzinfo=None) - _EPOCH) // _US
    offset = ts.utcoffset()
    return us if offset is None else us - offset // _US


# Plain ISO 8601: a digit wherever the template has 0, and ' ' or 'T'
# between date and time, in one of these lengths.  numpy parses such a
# string as fromisoformat does, on every supported Python; it also accepts
# shapes fromisoformat reads otherwise or not at all ("2017-09", "NaT",
# "today", UTC offsets), so only plain strings go to numpy.
_ISO = "0000-00-00 00:00:00.000000"
_TIMESTAMP_SIZES = (10, 16, 19, 23, 26)
_ISO_LOW = np.frombuffer(_ISO.encode(), np.uint8)  # the lowest byte at each position
_ISO_SPAN = np.frombuffer(bytes(9 * (c == "0") for c in _ISO), np.uint8)  # its range
_ISO_T = _ISO.index(" ")
_ROWS = 1 << 12  # rows a column pass takes at a time, which bounds its temporaries
_BATCH = 1 << 8  # rows a per-row reader gathers at a time, which bounds its lists


def _fits_iso(chars: np.ndarray) -> bool:
    """Whether each row of ``chars`` (uint8, a row per NUL-padded string, as
    wide as the template) fits the plain ISO 8601 template, with a year
    above 0; NUL bytes fit anywhere."""
    # uint8 wraps, so a byte below the lowest reads as above it
    fits = (chars - _ISO_LOW) <= _ISO_SPAN
    fits[:, _ISO_T] |= chars[:, _ISO_T] == ord("T")
    fits |= chars == 0
    return bool(fits.all() and not (chars[:, :4] == ord("0")).all(axis=1).any())


def _plain_iso_column(column: np.ndarray, sizes: tuple[int, ...]) -> bool:
    """Whether each string of the byte-string ``column``, wider than the
    template and holding no NUL but its padding, is plain ISO 8601 of a
    length in ``sizes``, with a year above 0.  The lengths may differ."""
    ends = np.array(sizes)
    for lo in range(0, column.size, _ROWS):
        part = np.ascontiguousarray(column[lo:lo + _ROWS])  # a field of np.loadtxt's rows is strided
        chars = part.view(np.uint8).reshape(part.size, part.itemsize)
        # each string ends at one of the sizes: the byte before is not NUL, the byte there is
        ended = np.count_nonzero((chars[:, ends] == 0) & (chars[:, ends - 1] != 0))
        if ended < part.size or not _fits_iso(chars[:, :len(_ISO)]):
            return False
    return True


def _ints(strings: Sequence[str]) -> np.ndarray:
    """``int`` of each string, taken once per distinct string."""
    value = {s: int(s) for s in set(strings)}
    return np.fromiter(map(value.__getitem__, strings), np.int64, len(strings))


def _dates(strings: Sequence[str]) -> np.ndarray:
    """The ISO 8601 dates ``strings``, as :func:`_raw_row` reads one."""
    return np.array([_parse_date(s, None) for s in strings], dtype="datetime64[D]")


# csv.reader refuses NUL before Python 3.11, so _csv_rows hands it each NUL
# as _ESC + _ESC_NUL and each _ESC as _ESC + _ESC: two private-use
# characters, neither a delimiter, quote nor line end, which it reads as
# any other character.  Each counts twice against csv.field_size_limit().
_ESC, _ESC_NUL = "\ue000", "\ue001"
_ESCAPED = re.compile(f"{_ESC}(.)")


def _csv_rows(handle, delimiter: str, line: int = 0) -> Iterator[tuple[int, list[str]]]:
    """Each record ``csv.reader`` reads from ``handle``, after line ``line``
    of its file, with its 1-based file line (for a quoted field that spans
    lines, the last one, as ``csv.reader.line_num`` counts); an empty record
    is a blank line.  A NUL is read as any other character, on every
    supported Python.  A ``csv.Error`` is a :class:`RowError`."""
    escaped = False

    def lines():
        nonlocal escaped
        for text in handle:
            if "\0" in text or _ESC in text:
                escaped = True
                text = text.replace(_ESC, _ESC * 2).replace("\0", _ESC + _ESC_NUL)
            yield text

    reader = csv.reader(lines(), delimiter=delimiter)
    try:
        for record in reader:
            if escaped:
                escaped = False
                record = [_ESCAPED.sub(_unescaped, field) for field in record]
            yield line + reader.line_num, record
    except csv.Error as exc:
        raise RowError(line + reader.line_num, str(exc)) from exc


def _unescaped(match: re.Match) -> str:
    return "\0" if match[1] == _ESC_NUL else match[1]


def _raw_row(line: int, record: list[str], index: tuple[int, ...], schema: CsvSchema,
             n_products: int) -> tuple:
    """(delivery day, product, timestamp in microseconds (:func:`_micros`),
    whether it had a UTC offset, file line) of a raw record; raises the
    :class:`RowError` of one that does not parse."""
    i_date, i_product, i_timestamp = index
    try:
        product = int(record[i_product])
        if not 1 <= product <= n_products:
            raise ValueError(f"product {product} outside 1..{n_products}")
        day = _parse_date(record[i_date], schema.date_format)
        ts = _parse_timestamp(record[i_timestamp], schema.timestamp_format)
    except (ValueError, IndexError) as exc:
        raise RowError(line, str(exc)) from exc
    return day, product, _micros(ts), ts.utcoffset() is not None, line


_RAW_TYPES = ("datetime64[D]", "int64", "datetime64[us]", "bool", "int64")


def _digests(keys: list) -> np.ndarray:
    """One 64-bit digest per row key, equal for equal keys: its ``hash``."""
    return np.fromiter(map(hash, keys), np.int64, len(keys))


def _joined(blocks: list) -> list[np.ndarray]:
    """The columns of a list of column blocks, each joined by
    ``np.concatenate``.  The list is emptied, and each column's blocks are
    dropped once it is joined, so the peak holds one column twice rather
    than every column."""
    parts = [list(column) for column in zip(*blocks)]
    blocks.clear()
    joined = []
    for column in parts:
        joined.append(np.concatenate(column))
        column.clear()
    return joined


def _repeated(digests: np.ndarray) -> np.ndarray:
    """Indices, ascending, of the digests that occur more than once."""
    ordered = np.sort(digests)  # a plain sort: argsort takes 3 to 14 times as long
    return np.flatnonzero(np.isin(digests, ordered[1:][ordered[1:] == ordered[:-1]]))


@contextmanager
def _body(path: Path, delimiter: str = ","):
    """Open a CSV as (its header's fields, the handle after the header, the
    header's last file line)."""
    with path.open(newline="") as handle:
        line, header = next(_csv_rows(handle, delimiter), (0, []))
        yield header, handle, line


def _raw_index(header: list[str], schema: CsvSchema, path: Path) -> tuple[int, ...]:
    """Index of the read columns in a raw CSV's header."""
    names = (schema.delivery_date, schema.product, schema.timestamp)
    missing = [c for c in names if c not in header]
    if missing:
        raise SchemaError(f"missing required columns {missing} in {path}")
    return tuple(map(header.index, names))


@contextmanager
def _raw_records(path: Path, schema: CsvSchema):
    """Open a raw CSV as (index of the read columns in its header, its
    non-blank records after the header, each with its file line)."""
    with _body(path, schema.delimiter) as (header, handle, skip):
        index = _raw_index(header, schema, path)
        rows = _csv_rows(handle, schema.delimiter, skip)
        yield index, ((line, record) for line, record in rows if record)


def _later_twins(path: Path, schema: CsvSchema, candidates: np.ndarray) -> list[int]:
    """Indices of the rows among ``candidates`` (ascending indices of
    non-blank rows) whose record equals an earlier row's, from a second read
    of ``path`` that keeps only the candidates' records."""
    seen: set[tuple[str, ...]] = set()
    twins = []
    with _raw_records(path, schema) as (_, rows):
        at = 0
        for i in candidates.tolist():
            _, record = next(itertools.islice(rows, i - at, None))
            at = i + 1
            key = tuple(record)
            if key in seen:
                twins.append(i)
            else:
                seen.add(key)
    return twins


def _plain_text(path: Path) -> bool:
    """Whether the bytes of ``path`` are ASCII and hold no quote, NUL or
    blank line.  ``np.loadtxt`` then splits its text into the rows and
    fields that ``csv.reader`` gives, and skips no line: both end a line at
    LF, CR and CRLF (:func:`write_store` ends rows with CRLF).  ASCII bytes
    are the same text in every encoding ``open`` may use; text in one that
    is not ASCII-compatible, such as UTF-16, holds NUL bytes."""
    last = b""
    with path.open("rb") as handle:
        while block := handle.read(_BLOCK):
            if b'"' in block or b"\0" in block or not block.isascii():
                return False
            chars = np.frombuffer(last + block, np.uint8)
            lf, cr = chars == ord("\n"), chars == ord("\r")
            # a blank line: a line end, then another one that is not a CR's LF
            if (lf[:-1] & (lf[1:] | cr[1:]) | cr[:-1] & cr[1:]).any():
                return False
            last = block[-1:]
    return True


def _runs(column: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The strings of the runs of equal adjacent byte strings in
    ``column``, decoded as ASCII, and the runs' lengths.  Raises
    ``ValueError`` for a string that is not ASCII or fills the column's
    width."""
    heads = np.flatnonzero(np.concatenate(([True], column[1:] != column[:-1])))
    strings = [s.decode("ascii") for s in column[heads].tolist()]
    if max(map(len, strings)) >= column.itemsize:
        raise ValueError("a field fills its width")
    return strings, np.diff(heads, append=column.size)


def _loadtxt(path: Path, dtype: np.dtype, delimiter: str, skip: int, index: tuple[int, ...]):
    """The fields ``index`` of each line after the first ``skip`` of a plain
    text (:func:`_plain_text`), parsed by ``np.loadtxt`` into ``dtype``, a
    row per line.  Given a path, numpy reads the file in blocks, with
    universal newlines; given an open file, it would take a line at a time,
    which measured 15-20% slower."""
    return np.loadtxt(path, dtype, comments=None, delimiter=delimiter, skiprows=skip,
                      usecols=index, ndmin=1)


def _line_digests(path: Path, skip: int) -> np.ndarray | None:
    """Digests (:func:`_digests`) of the bytes of each line of ``path``
    after the first ``skip``, read about ``_BLOCK`` bytes at a time; ``None``
    for a file with a line longer than ``csv.field_size_limit()``, which
    ``csv.reader`` may refuse.  A line's end is no part of it, so equal rows
    get equal digests whether they end in LF, CR or CRLF."""
    limit = csv.field_size_limit()
    digests = [np.empty(0, np.int64)]
    rest = b""
    with path.open("rb") as handle:
        while True:
            block = handle.read(_BLOCK)
            text = rest + block
            # whole lines: up to the last LF, or the last CR whose LF cannot follow
            end = max(text.rfind(b"\n"), text.rfind(b"\r", 0, -1)) + 1 if block else len(text)
            lines, rest = text[:end].splitlines(), text[end:]
            if len(rest) > limit or end > limit and max(map(len, lines), default=0) > limit:
                return None
            if skip:
                lines, skip = lines[skip:], max(skip - len(lines), 0)
            digests.append(_digests(lines))
            if not block:
                return np.concatenate(digests)


# A raw row's read columns as np.loadtxt reads them: bytes one wider than a
# plain ISO date, a two-digit product and the longest plain ISO timestamp,
# so that a longer field, which np.loadtxt cuts to the width, fills it.
_RAW_ROW = np.dtype([("day", "S11"), ("product", "S3"), ("timestamp", f"S{len(_ISO) + 1}")])


def _loadtxt_raw(path: Path, delimiter: str, index: tuple[int, ...], skip: int, n_products: int):
    """Columns and row digests of a plain raw CSV (:func:`_plain_text`)
    with ISO dates and timestamps, its columns parsed in one ``np.loadtxt``
    pass, each run of equal dates and of equal products converted once, as
    :func:`_raw_row` converts a field, and each row's line digested
    (:func:`_line_digests`).  ``None`` where they could differ from the
    per-row reader's (:func:`_read_raw_rows`): a row ``np.loadtxt`` refuses
    (such as a short one), a field that fills its width, a date or product
    that does not convert, a product outside 1..``n_products``, a timestamp
    that is not plain ISO 8601 (such as one with a UTC offset), or a line
    over the csv module's field size limit."""
    try:
        rows = _loadtxt(path, _RAW_ROW, delimiter, skip, index)
        dates, day_runs = _runs(rows["day"])
        day = np.repeat(_dates(dates), day_runs)
        products, product_runs = _runs(rows["product"])
        product = _ints(products)
        if (product.min() < 1 or product.max() > n_products
                or not _plain_iso_column(rows["timestamp"], _TIMESTAMP_SIZES)):
            return None
        product = np.repeat(product, product_runs)
        timestamp = rows["timestamp"].astype("datetime64[us]")
    except (ValueError, OverflowError):
        return None
    del rows
    digests = _line_digests(path, skip)
    if digests is None or digests.size != day.size:
        return None
    lines = np.arange(skip + 1, skip + 1 + day.size, dtype=np.int64)
    return (day, product, timestamp, np.zeros(day.size, bool), lines), digests


def _read_raw_rows(path: Path, schema: CsvSchema, n_products: int):
    """Columns and row digests of a raw CSV read row by row with
    ``csv.reader``, ``_BATCH`` rows at a time: each non-blank record is
    parsed (:func:`_raw_row`) and digested (:func:`_digests`) as the tuple
    of its fields."""
    columns = [tuple(np.empty(0, dtype) for dtype in _RAW_TYPES)]
    digests = [np.empty(0, np.int64)]
    with _raw_records(path, schema) as (index, rows):
        while batch := list(itertools.islice(rows, _BATCH)):
            digests.append(_digests([tuple(record) for _, record in batch]))
            parsed = [_raw_row(line, record, index, schema, n_products) for line, record in batch]
            columns.append(tuple(map(np.array, zip(*parsed), _RAW_TYPES)))
    return _joined(columns), np.concatenate(digests)


def parse_csv(
    path: str | Path,
    schema: CsvSchema = CsvSchema(),
    n_products: int = 24,
) -> Transactions:
    """Read raw transactions as columns, preserving row order.

    Only the delivery date, product and timestamp columns are read.  A row
    identical, field for field, to an earlier one is an exact duplicate and
    is dropped with a warning; rows that differ in any column are kept
    (separate fills share a timestamp).  Raises :class:`SchemaError` for a
    bad header and :class:`RowError` (with the 1-based file line) for the
    first unparseable row.

    A file whose bytes are ASCII and hold no quote, NUL or blank line, read
    with ISO dates and timestamps, is parsed by one ``np.loadtxt`` call
    (:func:`_loadtxt_raw`); any other file, or one that call cannot read as
    the per-row reader would, is parsed record by record with
    ``csv.reader`` (:func:`_read_raw_rows`), so the columns, warnings and
    errors are the same either way.  Each row leaves only its columns and
    a 64-bit digest of its text (:func:`_digests`).  Rows whose digests
    repeat are candidate duplicates: only when there are any is the file
    read a second time, to compare the candidates' records exactly
    (:func:`_later_twins`), so the rows kept depend on neither the hash
    salt nor a digest collision.  Duplicates are dropped
    one column at a time, so that step holds one column twice rather than
    every column.
    """
    path = Path(path)
    with _body(path, schema.delimiter) as (header, handle, skip):
        index = _raw_index(header, schema, path)
        plain = (schema.timestamp_format is None and schema.date_format is None
                 and handle.read(1) != "" and _plain_text(path))  # a row follows the header
    read = _loadtxt_raw(path, schema.delimiter, index, skip, n_products) if plain else None
    columns, digests = read or _read_raw_rows(path, schema, n_products)
    columns = list(columns)
    del read
    candidates = _repeated(digests)
    del digests
    twins = _later_twins(path, schema, candidates) if candidates.size else []
    if twins:
        logger.warning("dropped %d exact duplicate rows from %s", len(twins), path)
        keep = np.ones(columns[0].size, bool)
        keep[twins] = False
        for k, column in enumerate(columns):  # each old column is freed as the next is copied
            columns[k] = column[keep]
    return Transactions(*columns)


def _spread(us: np.ndarray, heads: np.ndarray) -> tuple[np.ndarray, int | None]:
    """Dejitter (:func:`dejitter_us`) the sorted times of consecutive cells
    at once.  ``heads`` marks each cell's first row, so that no tie runs
    across a cell's edge.  Returns the spread times and the index of the
    first one that is not before the next in its cell, if any."""
    first = np.flatnonzero(heads | (np.diff(us, prepend=us[:1] - 1) != 0))
    sizes = np.diff(first, append=us.size)
    rank = np.arange(us.size) - np.repeat(first, sizes)
    frac, whole = np.modf(60.0 / np.repeat(sizes, sizes) * rank)
    out = us + whole.astype(np.int64) * 1_000_000 + np.rint(frac * 1e6).astype(np.int64)
    stalls = np.flatnonzero((np.diff(out) <= 0) & ~heads[1:])
    return out, int(stalls[0]) if stalls.size else None


def dejitter_us(us: np.ndarray) -> np.ndarray:
    """Spread minute-grid ties uniformly over their minute.

    ``us`` holds sorted integer microseconds.  ``k`` entries equal to ``T``
    become ``T + 60/k*m`` seconds for ``m = 0..k-1``, rounded to the
    microsecond as ``timedelta(seconds=60/k*m)`` rounds (half to even).
    Output is strictly increasing.  Already-distinct times pass through, so
    the operation is idempotent.  This is one cell of :func:`_spread`.
    """
    us = np.asarray(us, dtype=np.int64)
    out, stall = _spread(us, np.arange(us.size) == 0)
    if stall is not None:
        raise DomainError(f"dejitter produced non-increasing times near {int(out[stall])} us")
    return out


def delivery_start(
    delivery_date: date, product: int, tz: ZoneInfo | None = None
) -> datetime | None:
    """Wall-clock start of delivery: day ``d`` at hour ``product - 1``.

    With a timezone, returns an aware datetime, or ``None`` when that local
    hour is skipped or duplicated by a DST transition (those products are
    dropped from a study).
    """
    naive = datetime.combine(delivery_date, dtime(hour=product - 1))
    if tz is None:
        return naive
    fold0 = naive.replace(tzinfo=tz, fold=0)
    fold1 = naive.replace(tzinfo=tz, fold=1)
    if fold0.utcoffset() != fold1.utcoffset():
        return None  # duplicated hour
    roundtrip = fold0.astimezone(timezone.utc).astimezone(tz).replace(tzinfo=None)
    if roundtrip != naive:
        return None  # skipped hour
    return fold0


def _utc_us(transactions: Transactions, tz: ZoneInfo | None) -> np.ndarray:
    """Integer microseconds since 1970-01-01 UTC of each timestamp, or of its
    wall clock when there is no ``tz``.

    Naive timestamps are read in ``tz``, at one offset per distinct local
    minute: exact while the zone's offsets change on whole minutes, as
    every zone's do in current use.  Raises :class:`RowError` for a
    timestamp with a UTC offset when there is no ``tz``, since the
    delivery start is then wall clock.
    """
    us = transactions.timestamp.view(np.int64)
    aware = transactions.aware
    if tz is None:
        if aware.any():
            raise RowError(int(transactions.line[aware.argmax()]),
                           "timestamp has a UTC offset, so the timezone must be configured")
        return us
    naive = ~aware
    minutes, local = np.unique(us[naive] // 60_000_000, return_inverse=True)
    offsets = np.array(
        [dt.replace(tzinfo=tz).utcoffset() // _US
         for dt in minutes.astype("datetime64[m]").tolist()],
        dtype=np.int64,
    )
    utc = us.copy()
    utc[naive] -= offsets[local]
    return utc


def _in_cell_order(day: np.ndarray, product: np.ndarray, values: np.ndarray) -> bool:
    """Whether the rows are in the order ``np.lexsort`` puts them: by day,
    then product, then value, NaN last.  Its sort is stable, so it would
    leave them as they are."""
    same_day = day[1:] == day[:-1]
    same_cell = same_day & (product[1:] == product[:-1])
    value_order = (values[1:] >= values[:-1]) | (values[1:] != values[1:])  # x != x: NaN
    return bool(((day[1:] > day[:-1]) | same_day & (product[1:] > product[:-1])
                 | same_cell & value_order).all())


def _cell_order(day: np.ndarray, product: np.ndarray, values: np.ndarray):
    """The rows in cell order, by day, then product, then value, and the
    index of each cell's first row."""
    if not _in_cell_order(day.view(np.int64), product, values):
        order = np.lexsort((values, product, day.view(np.int64)))
        day, product, values = day[order], product[order], values[order]
    heads = np.ones(values.size, bool)
    heads[1:] = (day[1:] != day[:-1]) | (product[1:] != product[:-1])
    return day, product, values, np.flatnonzero(heads)


def _cells(
    day: np.ndarray, product: np.ndarray, values: np.ndarray
) -> Iterator[tuple[tuple[date, int], np.ndarray]]:
    """Each (day, product) cell's sorted values, in cell order."""
    day, product, values, first = _cell_order(day, product, values)
    bounds = [*first.tolist(), values.size]
    for lo, hi in zip(bounds, bounds[1:]):
        yield (day[lo].item(), int(product[lo])), values[lo:hi]


@dataclass(frozen=True)
class ArrivalSeries:
    """Dejittered transaction times of one (delivery day, product) cell."""

    day: date
    product: int
    arrivals: np.ndarray  # hours to delivery, strictly increasing
    trading_begin: float
    trading_end: float

    def __post_init__(self):
        arr = np.asarray(self.arrivals, dtype=float)
        object.__setattr__(self, "arrivals", arr)
        if not self.trading_begin < self.trading_end:
            raise ParameterError("trading_begin must precede trading_end")
        if arr.size:
            if arr[0] <= self.trading_begin or arr[-1] >= self.trading_end:
                raise ParameterError(
                    f"arrivals must lie strictly inside "
                    f"({self.trading_begin}, {self.trading_end})"
                )
            stalls = np.flatnonzero(np.diff(arr) <= 0.0)
            if stalls.size:
                before, after = arr[stalls[0]:stalls[0] + 2].tolist()
                raise ParameterError(
                    f"arrival times must be strictly increasing, but {after!r} follows {before!r}"
                )

    @property
    def n(self) -> int:
        return int(self.arrivals.size)


@dataclass(frozen=True)
class InterArrivalSample:
    """Pairs (inter-arrival ``x``, spell start ``t``) retained for a window.

    ``t`` is the previous arrival time and may precede ``window_start``
    (down to the trading begin for a day's first retained spell).
    """

    x: np.ndarray
    t: np.ndarray
    window_start: float
    window_end: float
    days: int = 1

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        t = np.asarray(self.t, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "t", t)
        if x.shape != t.shape or x.ndim != 1:
            raise ParameterError("x and t must be 1-d arrays of equal length")
        if x.size and (np.any(x <= 0.0) or not np.all(np.isfinite(x))):
            raise ParameterError("inter-arrival times must be positive and finite")

    @property
    def n(self) -> int:
        return int(self.x.size)

    @property
    def empty(self) -> bool:
        return self.n == 0

    @cached_property
    def t_clamped(self) -> np.ndarray:
        """Spell starts clamped into the window, where models evaluate their
        parameter functions."""
        return np.clip(self.t, self.window_start, self.window_end)

    @cached_property
    def log_x(self) -> np.ndarray:
        """Logs of the inter-arrivals."""
        return np.log(self.x)


def slice_window(series: ArrivalSeries, a: float) -> InterArrivalSample:
    """Inter-arrival pairs of all arrivals after ``a``.

    The spell preceding the first retained arrival starts at the last
    arrival before ``a`` (or at the trading begin when there is none).
    An empty result is returned, and logged, when no arrival exceeds ``a``.
    """
    if not series.trading_begin < a < series.trading_end:
        raise DomainError(
            f"window start {a} outside trading period "
            f"({series.trading_begin}, {series.trading_end})"
        )
    z = series.arrivals
    first = int(np.searchsorted(z, a, side="right"))
    if first == z.size:
        logger.warning(
            "no arrivals after %s for day %s product %d", a, series.day, series.product
        )
        return InterArrivalSample(
            np.empty(0), np.empty(0), window_start=a, window_end=series.trading_end
        )
    starts = np.concatenate(([series.trading_begin], z[:-1]))
    return InterArrivalSample(
        x=(z - starts)[first:],
        t=starts[first:],
        window_start=a,
        window_end=series.trading_end,
    )


def merge_samples(samples: list[InterArrivalSample]) -> InterArrivalSample:
    """Pool per-day samples that share one modeling window."""
    if not samples:
        raise ParameterError("nothing to merge")
    windows = {(s.window_start, s.window_end) for s in samples}
    if len(windows) != 1:
        raise ParameterError(f"samples span different windows: {sorted(windows)}")
    (a, e), = windows
    return InterArrivalSample(
        x=np.concatenate([s.x for s in samples]),
        t=np.concatenate([s.t for s in samples]),
        window_start=a,
        window_end=e,
        days=sum(s.days for s in samples),
    )


def _series(
    hours: dict[tuple[date, int], np.ndarray],
    trading_begin: dict[int, float] | None,
    trading_end: dict[int, float] | None,
) -> dict[tuple[date, int], ArrivalSeries]:
    """Keep each cell's sorted arrivals inside its trading period.

    Arrivals at or before the trading begin, or at or after the trading
    end, are dropped with one warning per cell.
    """
    out: dict[tuple[date, int], ArrivalSeries] = {}
    for (day, product), rel in sorted(hours.items()):
        begin, end = trading_bounds(product, trading_begin, trading_end)
        keep = (rel > begin) & (rel < end)
        dropped = int(rel.size - keep.sum())
        if dropped:
            logger.warning(
                "day %s product %d: excluded %d transactions outside (%s, %s)",
                day,
                product,
                dropped,
                begin,
                end,
            )
        try:
            out[(day, product)] = ArrivalSeries(day, product, rel[keep], begin, end)
        except ParameterError as exc:  # such as a store cell that repeats a time
            raise ParameterError(f"day {day} product {product}: {exc}") from None
    return out


def build_series(
    transactions: Transactions,
    trading_begin: dict[int, float] | None = None,
    trading_end: dict[int, float] | None = None,
    tz: ZoneInfo | None = None,
) -> dict[tuple[date, int], ArrivalSeries]:
    """Group, dejitter and convert raw transactions into per-cell series.

    Cells whose delivery hour is broken by a DST transition are dropped
    with a warning, as are individual transactions falling at or after the
    trading end (or at/before the trading begin).  Raises
    :class:`RowError` for a timestamp with a UTC offset when there is no
    ``tz``, and :class:`DomainError` naming the cell and its wall-clock
    times for ties whose spread passes the next time.  The cells are
    dejittered in one pass over the rows in cell order, a group of cells
    of about ``_ROWS`` rows at a time (:func:`_dejitter_cells`).
    """
    day, product, utc, first = _cell_order(transactions.day, transactions.product,
                                           _utc_us(transactions, tz))
    cells = list(zip(day[first].tolist(), product[first].tolist()))
    bounds = [*first.tolist(), utc.size]
    hours: dict[tuple[date, int], np.ndarray] = {}
    lo = 0
    while lo < len(cells):  # the whole cells of about _ROWS rows at a time
        hi = bisect.bisect_left(bounds, bounds[lo] + _ROWS, lo + 1, len(cells))
        hours.update(_dejitter_cells(cells[lo:hi], utc[bounds[lo]:bounds[hi]],
                                     np.subtract(bounds[lo:hi + 1], bounds[lo]), tz))
        lo = hi
    return _series(hours, trading_begin, trading_end)


def _dejitter_cells(cells: list[tuple[date, int]], utc: np.ndarray, bounds: np.ndarray,
                    tz: ZoneInfo | None) -> dict[tuple[date, int], np.ndarray]:
    """Delivery-relative hours of consecutive ``cells``, whose sorted times
    ``utc`` hold cell ``k`` at rows ``bounds[k]:bounds[k + 1]``, dejittered in
    one pass (:func:`_spread`).  As a pass over one cell at a time would,
    a cell whose delivery hour a DST transition breaks is dropped with a
    warning, up to the first cell whose ties spread past its next time,
    which raises :class:`DomainError` naming the cell and both wall-clock
    times."""
    sizes = np.diff(bounds)
    starts = [delivery_start(d, p, tz) for d, p in cells]
    kept = np.array([start is not None for start in starts], bool)
    rows = np.repeat(kept, sizes)
    offsets = np.array([_micros(start) for start in starts if start is not None], np.int64)
    heads = np.zeros(utc.size, bool)
    heads[bounds[:-1]] = True
    us, stall = _spread(utc[rows] - np.repeat(offsets, sizes[kept]), heads[rows])
    failed = len(cells)
    if stall is not None:
        failed = int(np.flatnonzero(kept)[np.searchsorted(np.cumsum(sizes[kept]), stall, "right")])
    for (day, product), start in zip(cells[:failed], starts):
        if start is None:
            logger.warning("dropping day %s product %d: delivery hour hit by DST transition",
                           day, product)
    if stall is not None:
        def wall(at: int) -> datetime:
            if tz is None:
                return _EPOCH + int(utc[at]) * _US
            return (_EPOCH.replace(tzinfo=timezone.utc) + int(utc[at]) * _US).astimezone(tz)

        tie, after = np.flatnonzero(rows)[stall:stall + 2]
        ties = np.count_nonzero(utc[bounds[failed]:bounds[failed + 1]] == utc[tie])
        raise DomainError(f"day {cells[failed][0]} product {cells[failed][1]}: dejitter spreads "
                          f"the {ties} transactions at {wall(tie)} past the next one at {wall(after)}")
    kept_cells = [cell for cell, start in zip(cells, starts) if start is not None]
    return dict(zip(kept_cells, np.split(us / 1e6 / 3600.0, np.cumsum(sizes[kept])[:-1])))


# ---------------------------------------------------------------------------
# normalized arrival store (output of the `ingest` CLI step)
# ---------------------------------------------------------------------------

def write_store(series: dict[tuple[date, int], ArrivalSeries], path: str | Path) -> None:
    """Persist series as a normalized CSV of delivery-relative hours."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["delivery_date", "product", "time_hours"])
        for (day, product) in sorted(series):
            hours = series[(day, product)].arrivals.tolist()
            writer.writerows(zip(itertools.repeat(day.isoformat()), itertools.repeat(product),
                                 map(repr, hours)))


def _store_row(line: int, record: list[str], index: tuple[int, ...]) -> tuple:
    """(delivery day, product, time in hours) of a store record; raises
    the :class:`RowError` of one that does not parse."""
    i_date, i_product, i_hours = index
    try:
        return (date.fromisoformat(record[i_date]), np.int64(int(record[i_product])),
                float(record[i_hours]))
    except (ValueError, IndexError, OverflowError) as exc:
        raise RowError(line, str(exc)) from exc


_STORE_TYPES = ("datetime64[D]", "int64", "float64")
_STORE_COLUMNS = ("delivery_date", "product", "time_hours")
# A store row as np.loadtxt reads it: the date and the product as bytes one
# wider than a plain ISO date and a two-digit product, so that a longer
# field, which np.loadtxt cuts to the width, fills it.
_STORE_ROW = np.dtype([("day", "S11"), ("product", "S3"), ("hours", float)])


def is_store(path: str | Path) -> bool:
    """Whether the header of ``path`` holds a normalized arrival store's columns."""
    with _body(Path(path)) as (header, _, _):
        return set(_STORE_COLUMNS).issubset(header)


@contextmanager
def _store_body(path: Path):
    """Open a store as (index of its columns in the header, the handle
    after the header, the header's last file line)."""
    with _body(path) as (header, handle, line):
        if not set(_STORE_COLUMNS).issubset(header):
            raise SchemaError(f"{path} is not a normalized arrival store")
        yield tuple(map(header.index, _STORE_COLUMNS)), handle, line


def _loadtxt_store(path: Path, index: tuple[int, ...], skip: int):
    """Columns of a plain store body (:func:`_plain_text`) parsed in one
    ``np.loadtxt`` pass, with each run of equal dates and of equal products
    converted once, as :func:`_store_row` converts a field; ``None`` where
    they could differ from the per-row reader's (:func:`_read_store_rows`):
    a row ``np.loadtxt`` refuses (it takes no ``_`` in a number, which
    ``float`` does), a field that fills its width, or a date or product
    that does not convert."""
    try:
        rows = _loadtxt(path, _STORE_ROW, ",", skip, index)
        dates, day_runs = _runs(rows["day"])
        day = np.repeat(np.array(list(map(date.fromisoformat, dates)), "datetime64[D]"), day_runs)
        products, product_runs = _runs(rows["product"])
        product = np.repeat(_ints(products), product_runs)
    except ValueError:
        return None
    return day, product, rows["hours"].copy()


def _read_store_rows(path: Path):
    """Columns of a store read row by row with ``csv.reader``, ``_BATCH``
    rows at a time, each record parsed as :func:`_store_row` parses it."""
    columns = [tuple(np.empty(0, dtype) for dtype in _STORE_TYPES)]
    with _store_body(path) as (index, handle, skip):
        rows = _csv_rows(handle, ",", skip)
        while batch := list(itertools.islice(rows, _BATCH)):
            parsed = [_store_row(line, record, index) for line, record in batch]
            columns.append(tuple(map(np.array, zip(*parsed), _STORE_TYPES)))
    return _joined(columns)


def load_store(
    path: str | Path,
    trading_begin: dict[int, float] | None = None,
    trading_end: dict[int, float] | None = None,
    products: Collection[int] | None = None,
) -> dict[tuple[date, int], ArrivalSeries]:
    """Load a normalized arrival store written by :func:`write_store`.

    Only the cells of ``products`` (every product when ``None``) are kept.
    Arrivals outside their trading periods are dropped, as
    :func:`build_series` drops them.  Raises :class:`RowError` (with the
    1-based file line) for the first unparseable row, and
    :class:`ParameterError` naming the cell for a repeated time.

    An ASCII body without a quote, NUL or blank line is parsed by one
    ``np.loadtxt`` call (:func:`_loadtxt_store`); any other body, or one
    that call cannot read as the per-row reader would, is parsed record by
    record with ``csv.reader`` (:func:`_read_store_rows`), so the series,
    warnings and errors are the same either way.
    """
    path = Path(path)
    with _store_body(path) as (index, handle, skip):
        plain = handle.read(1) != "" and _plain_text(path)  # a row follows the header
    columns = _loadtxt_store(path, index, skip) if plain else None
    day, product, hours = columns or _read_store_rows(path)
    if products is not None:
        keep = np.isin(product, list(products))
        day, product, hours = day[keep], product[keep], hours[keep]
    return _series(dict(_cells(day, product, hours)), trading_begin, trading_end)
