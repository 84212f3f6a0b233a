"""Transaction ingestion: CSV parsing, minute-grid dejitter, conversion to
delivery-relative hours and slicing of inter-arrival samples.

Times are measured in hours relative to the start of delivery of the traded
product, so they are negative while trading is open.  For hourly product
``s`` delivering on day ``d`` at hour ``s-1`` local time, trading in the
German market opens at ``-8 - s`` hours and closes half an hour before
delivery; both boundaries are configuration here, not constants.
"""

from __future__ import annotations

import csv
import logging
from collections.abc import Collection
from dataclasses import dataclass
from datetime import date, datetime, time as dtime, timedelta, timezone
from functools import cached_property
from pathlib import Path
from typing import NamedTuple
from zoneinfo import ZoneInfo

import numpy as np

from .errors import DomainError, ParameterError, RowError, SchemaError

__all__ = [
    "RawTransaction",
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
]

logger = logging.getLogger(__name__)

DEFAULT_TRADING_END = -0.5

_US = timedelta(microseconds=1)


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


class RawTransaction(NamedTuple):
    delivery_date: date
    product: int
    timestamp: datetime


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


def parse_csv(
    path: str | Path,
    schema: CsvSchema = CsvSchema(),
    n_products: int = 24,
) -> list[RawTransaction]:
    """Read raw transactions, preserving row order.

    Only the delivery date, product and timestamp columns are read.  A row
    identical, field for field, to an earlier one is an exact duplicate and
    is dropped with a warning; rows that differ in any column are kept
    (separate fills share a timestamp).  Raises :class:`SchemaError` for a
    bad header and :class:`RowError` (with the 1-based file line) for the
    first unparseable row.
    """
    path = Path(path)
    rows: list[RawTransaction] = []
    seen: set[str | tuple[str, ...]] = set()
    dupes = 0
    with path.open(newline="") as handle:
        reader = csv.reader(handle, delimiter=schema.delimiter)
        header = next(reader, [])
        columns = (schema.delivery_date, schema.product, schema.timestamp)
        missing = [c for c in columns if c not in header]
        if missing:
            raise SchemaError(f"missing required columns {missing} in {path}")
        i_date, i_product, i_timestamp = (header.index(c) for c in columns)
        for record in reader:
            if not record:
                continue  # blank line
            # one string per row holds far less memory than the tuple of its
            # fields; it identifies the row unless a field contains NUL
            key = "\0".join(record)
            if key.count("\0") >= len(record):
                key = tuple(record)
            if key in seen:
                dupes += 1
                continue
            seen.add(key)
            try:
                product = int(record[i_product])
                if not 1 <= product <= n_products:
                    raise ValueError(f"product {product} outside 1..{n_products}")
                rows.append(RawTransaction(
                    _parse_date(record[i_date], schema.date_format),
                    product,
                    _parse_timestamp(record[i_timestamp], schema.timestamp_format),
                ))
            except (ValueError, IndexError) as exc:
                raise RowError(reader.line_num, str(exc)) from exc
    if dupes:
        logger.warning("dropped %d exact duplicate rows from %s", dupes, path)
    return rows


def dejitter_us(us: np.ndarray) -> np.ndarray:
    """Spread minute-grid ties uniformly over their minute.

    ``us`` holds sorted integer microseconds.  ``k`` entries equal to ``T``
    become ``T + 60/k*m`` seconds for ``m = 0..k-1``, rounded to the
    microsecond as ``timedelta(seconds=60/k*m)`` rounds (half to even).
    Output is strictly increasing.  Already-distinct times pass through, so
    the operation is idempotent.
    """
    us = np.asarray(us, dtype=np.int64)
    first = np.flatnonzero(np.diff(us, prepend=us[:1] - 1))
    sizes = np.diff(first, append=us.size)
    rank = np.arange(us.size) - np.repeat(first, sizes)
    frac, whole = np.modf(60.0 / np.repeat(sizes, sizes) * rank)
    out = us + whole.astype(np.int64) * 1_000_000 + np.rint(frac * 1e6).astype(np.int64)
    bad = np.flatnonzero(np.diff(out) <= 0)
    if bad.size:
        raise DomainError(f"dejitter produced non-increasing times near {int(out[bad[0]])} us")
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


def _offsets_us(times: list[datetime], start: datetime, tz: ZoneInfo | None) -> np.ndarray:
    """Integer microseconds from ``start`` to each timestamp.

    Naive timestamps are read in ``tz`` when one is given.  Aware ones are
    compared in UTC: same-zone datetime subtraction is wall-clock
    arithmetic, and elapsed time across a DST switch needs both sides in UTC.
    """
    if tz is not None:
        times = [ts if ts.tzinfo is not None else ts.replace(tzinfo=tz) for ts in times]
    start_utc = start.astimezone(timezone.utc)
    return np.array(
        [
            (ts - start if ts.tzinfo is None else ts.astimezone(timezone.utc) - start_utc) // _US
            for ts in times
        ],
        dtype=np.int64,
    )


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
            if np.any(np.diff(arr) <= 0.0):
                raise ParameterError("arrival times must be strictly increasing")

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
        out[(day, product)] = ArrivalSeries(day, product, rel[keep], begin, end)
    return out


def build_series(
    transactions: list[RawTransaction],
    trading_begin: dict[int, float] | None = None,
    trading_end: dict[int, float] | None = None,
    tz: ZoneInfo | None = None,
) -> dict[tuple[date, int], ArrivalSeries]:
    """Group, dejitter and convert raw transactions into per-cell series.

    Cells whose delivery hour is broken by a DST transition are dropped
    with a warning, as are individual transactions falling at or after the
    trading end (or at/before the trading begin).
    """
    groups: dict[tuple[date, int], list[datetime]] = {}
    for day, product, timestamp in transactions:
        groups.setdefault((day, product), []).append(timestamp)

    hours: dict[tuple[date, int], np.ndarray] = {}
    for (day, product), times in sorted(groups.items()):
        start = delivery_start(day, product, tz)
        if start is None:
            logger.warning(
                "dropping day %s product %d: delivery hour hit by DST transition",
                day,
                product,
            )
            continue
        us = dejitter_us(np.sort(_offsets_us(times, start, tz)))
        hours[(day, product)] = us / 1e6 / 3600.0
    return _series(hours, trading_begin, trading_end)


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
            for t in series[(day, product)].arrivals:
                writer.writerow([day.isoformat(), product, repr(float(t))])


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
    1-based file line) for the first unparseable row.
    """
    path = Path(path)
    cells: dict[tuple[date, int], list[float]] = {}
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        columns = ("delivery_date", "product", "time_hours")
        if not set(columns).issubset(header):
            raise SchemaError(f"{path} is not a normalized arrival store")
        i_date, i_product, i_hours = (header.index(c) for c in columns)
        for record in reader:
            try:
                key = (date.fromisoformat(record[i_date]), int(record[i_product]))
                t = float(record[i_hours])
            except (ValueError, IndexError) as exc:
                raise RowError(reader.line_num, str(exc)) from exc
            cells.setdefault(key, []).append(t)
    hours = {
        key: np.sort(np.array(values))
        for key, values in cells.items()
        if products is None or key[1] in products
    }
    return _series(hours, trading_begin, trading_end)
