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
from dataclasses import dataclass
from datetime import date, datetime, time as dtime, timedelta, timezone
from pathlib import Path
from zoneinfo import ZoneInfo

import numpy as np

from .errors import DomainError, ParameterError, RowError, SchemaError

__all__ = [
    "RawTransaction",
    "CsvSchema",
    "parse_csv",
    "dejitter_times",
    "to_delivery_relative",
    "delivery_start",
    "ArrivalSeries",
    "InterArrivalSample",
    "build_series",
    "slice_window",
    "merge_samples",
    "default_trading_begin",
    "DEFAULT_TRADING_END",
    "write_store",
    "load_store",
]

logger = logging.getLogger(__name__)

DEFAULT_TRADING_END = -0.5


def default_trading_begin(product: int) -> float:
    """Trading-period start in hours to delivery for hourly product s."""
    return -8.0 - product


@dataclass(frozen=True)
class RawTransaction:
    delivery_date: date
    product: int
    timestamp: datetime
    market_area: str | None = None
    volume: float | None = None
    price: float | None = None
    transaction_id: str | None = None


@dataclass(frozen=True)
class CsvSchema:
    """Column names and formats of a raw transaction CSV."""

    delimiter: str = ","
    delivery_date: str = "delivery_date"
    product: str = "product"
    timestamp: str = "timestamp"
    market_area: str | None = "market_area"
    volume: str | None = "volume"
    price: str | None = "price"
    transaction_id: str | None = "transaction_id"
    # None means ISO 8601 (e.g. "2017-09-30 16:01:00" / "2017-09-30")
    timestamp_format: str | None = None
    date_format: str | None = None

    def required(self) -> tuple[str, str, str]:
        return (self.delivery_date, self.product, self.timestamp)


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

    Exact duplicate rows are dropped with a warning; duplicate transaction
    ids on otherwise distinct rows are kept (separate fills share an id).
    Raises :class:`SchemaError` for a bad header and :class:`RowError`
    (with the 1-based file line) for the first unparseable row.
    """
    path = Path(path)
    rows: list[RawTransaction] = []
    seen: set[tuple] = set()
    dupes = 0
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle, delimiter=schema.delimiter)
        header = reader.fieldnames or []
        missing = [c for c in schema.required() if c not in header]
        if missing:
            raise SchemaError(f"missing required columns {missing} in {path}")
        optional = {
            "market_area": schema.market_area,
            "volume": schema.volume,
            "price": schema.price,
            "transaction_id": schema.transaction_id,
        }
        present = {k: c for k, c in optional.items() if c is not None and c in header}
        for record in reader:
            line = reader.line_num
            try:
                product = int(record[schema.product])
                if not 1 <= product <= n_products:
                    raise ValueError(f"product {product} outside 1..{n_products}")
                tx = RawTransaction(
                    delivery_date=_parse_date(record[schema.delivery_date], schema.date_format),
                    product=product,
                    timestamp=_parse_timestamp(record[schema.timestamp], schema.timestamp_format),
                    market_area=record.get(present.get("market_area", ""), None),
                    volume=float(record[present["volume"]]) if "volume" in present and record[present["volume"]] != "" else None,
                    price=float(record[present["price"]]) if "price" in present and record[present["price"]] != "" else None,
                    transaction_id=record.get(present.get("transaction_id", ""), None),
                )
            except RowError:
                raise
            except (ValueError, KeyError) as exc:
                raise RowError(line, str(exc)) from exc
            key = (
                tx.delivery_date,
                tx.product,
                tx.timestamp,
                tx.market_area,
                tx.volume,
                tx.price,
                tx.transaction_id,
            )
            if key in seen:
                dupes += 1
                continue
            seen.add(key)
            rows.append(tx)
    if dupes:
        logger.warning("dropped %d exact duplicate rows from %s", dupes, path)
    return rows


def dejitter_times(times: list[datetime]) -> list[datetime]:
    """Spread minute-grid ties uniformly over their minute.

    ``k`` transactions stamped at minute ``T`` become
    ``T + j*(60/k) seconds`` for ``j = 0..k-1``.  Input must be sorted;
    output is strictly increasing.  Already-distinct times pass through,
    so the operation is idempotent.
    """
    out: list[datetime] = []
    i = 0
    n = len(times)
    while i < n:
        j = i
        while j < n and times[j] == times[i]:
            j += 1
        k = j - i
        if k == 1:
            out.append(times[i])
        else:
            step = 60.0 / k
            out.extend(times[i] + timedelta(seconds=step * m) for m in range(k))
        i = j
    for a, b in zip(out, out[1:]):
        if not a < b:
            raise DomainError(f"dejitter produced non-increasing times near {a}")
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


def to_delivery_relative(
    timestamp: datetime,
    delivery_date: date,
    product: int,
    tz: ZoneInfo | None = None,
) -> float:
    """Hours between ``timestamp`` and the product's delivery start.

    Negative before delivery.  Naive timestamps are interpreted in ``tz``
    when one is given.
    """
    start = delivery_start(delivery_date, product, tz)
    if start is None:
        raise DomainError(
            f"delivery start of product {product} on {delivery_date} is "
            "undefined (DST transition)"
        )
    ts = timestamp
    if tz is not None and ts.tzinfo is None:
        ts = ts.replace(tzinfo=tz)
    if ts.tzinfo is not None:
        # same-zone datetime subtraction is wall-clock arithmetic; true
        # elapsed time needs both sides in UTC
        ts = ts.astimezone(timezone.utc)
        start = start.astimezone(timezone.utc)
    return (ts - start).total_seconds() / 3600.0


@dataclass(frozen=True)
class ArrivalSeries:
    """Dejittered transaction times of one (delivery day, product) cell."""

    day: date
    product: int
    arrivals: np.ndarray  # hours to delivery, strictly increasing
    trading_begin: float
    trading_end: float
    window_start: float | None = None

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
        if self.window_start is not None and not (
            self.trading_begin < self.window_start < self.trading_end
        ):
            raise ParameterError("window_start must lie inside the trading period")

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
    for tx in transactions:
        groups.setdefault((tx.delivery_date, tx.product), []).append(tx.timestamp)

    out: dict[tuple[date, int], ArrivalSeries] = {}
    for (day, product), times in sorted(groups.items()):
        begin = (
            trading_begin[product]
            if trading_begin is not None
            else default_trading_begin(product)
        )
        end = trading_end[product] if trading_end is not None else DEFAULT_TRADING_END
        start = delivery_start(day, product, tz)
        if start is None:
            logger.warning(
                "dropping day %s product %d: delivery hour hit by DST transition",
                day,
                product,
            )
            continue
        exact = dejitter_times(sorted(times))
        rel = np.array(
            [to_delivery_relative(ts, day, product, tz) for ts in exact], dtype=float
        )
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
        out[(day, product)] = ArrivalSeries(
            day=day,
            product=product,
            arrivals=rel[keep],
            trading_begin=begin,
            trading_end=end,
        )
    return out


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
) -> dict[tuple[date, int], ArrivalSeries]:
    """Load a normalized arrival store written by :func:`write_store`."""
    path = Path(path)
    cells: dict[tuple[date, int], list[float]] = {}
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        required = {"delivery_date", "product", "time_hours"}
        if not required.issubset(reader.fieldnames or []):
            raise SchemaError(f"{path} is not a normalized arrival store")
        for record in reader:
            key = (date.fromisoformat(record["delivery_date"]), int(record["product"]))
            cells.setdefault(key, []).append(float(record["time_hours"]))
    out = {}
    for (day, product), values in sorted(cells.items()):
        begin = (
            trading_begin[product]
            if trading_begin is not None
            else default_trading_begin(product)
        )
        end = trading_end[product] if trading_end is not None else DEFAULT_TRADING_END
        out[(day, product)] = ArrivalSeries(
            day=day,
            product=product,
            arrivals=np.sort(np.asarray(values, dtype=float)),
            trading_begin=begin,
            trading_end=end,
        )
    return out
