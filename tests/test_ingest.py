"""Ingestion checks: parsing, dejitter, delivery-relative time, slicing."""

import csv
import logging
import sys
import time
import tracemalloc
import warnings
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from zoneinfo import ZoneInfo

import numpy as np
import pytest

from arrivalsim.errors import DomainError, ParameterError, RowError, SchemaError
from arrivalsim import ingest
from arrivalsim.models import model_from_name
from arrivalsim.synth import synth_generate
from arrivalsim.ingest import (
    ArrivalSeries,
    CsvSchema,
    Transactions,
    build_series,
    dejitter_us,
    delivery_start,
    load_store,
    merge_samples,
    parse_csv,
    slice_window,
    trading_bounds,
    write_store,
)

BERLIN = ZoneInfo("Europe/Berlin")
SECOND = 1_000_000  # microseconds
EPOCH = datetime(1970, 1, 1)
US = timedelta(microseconds=1)


def micros(ts):
    """Microseconds since 1970: of UTC for an aware datetime, else of its wall clock."""
    if ts.utcoffset() is None:
        return (ts - EPOCH) // US
    return (ts - EPOCH.replace(tzinfo=timezone.utc)) // US


def transactions(rows):
    """``Transactions`` of (delivery date, product, datetime) rows, on lines 2, 3, ..."""
    rows = list(rows)
    return Transactions(
        np.array([d for d, _, _ in rows], dtype="datetime64[D]"),
        np.array([p for _, p, _ in rows], dtype=np.int64),
        np.array([micros(ts) for _, _, ts in rows], dtype=np.int64).view("datetime64[us]"),
        np.array([ts.utcoffset() is not None for _, _, ts in rows], dtype=bool),
        np.arange(2, 2 + len(rows)),
    )


def hours_to_delivery(timestamp, day, product, tz=None):
    """Delivery-relative hours of one transaction, with no trading bounds in the way."""
    cells = build_series(
        transactions([(day, product, timestamp)]), {product: -100.0}, {product: 100.0}, tz
    )
    return float(cells[(day, product)].arrivals[0])


def per_row_hours(times, day, product, tz):
    """Reference: dejitter sorted wall-clock datetimes, then convert each
    one on its own through UTC, as ``total_seconds() / 3600``."""
    start = delivery_start(day, product, tz).astimezone(timezone.utc)
    times = sorted(times)
    out = []
    i = 0
    while i < len(times):
        k = times.count(times[i])
        for m in range(k):
            ts = (times[i] + timedelta(seconds=60.0 / k * m)).replace(tzinfo=tz)
            out.append((ts.astimezone(timezone.utc) - start).total_seconds() / 3600.0)
        i += k
    return np.array(out)


def write_csv(path, rows, header="delivery_date,product,timestamp"):
    path.write_text("\n".join([header] + rows) + "\n")
    return path


class TestParseCsv:
    def test_single_valid_row(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", ["2017-09-30,12,2017-09-30 08:01:00"])
        rows = parse_csv(path)
        assert len(rows) == 1
        assert rows.product.tolist() == [12]
        assert rows.day.tolist() == [date(2017, 9, 30)]
        assert rows.timestamp.tolist() == [datetime(2017, 9, 30, 8, 1)]
        assert rows.aware.tolist() == [False] and rows.line.tolist() == [2]

    def test_product_out_of_bounds(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", ["2017-09-30,25,2017-09-30 08:01:00"])
        with pytest.raises(RowError) as err:
            parse_csv(path, n_products=24)
        assert err.value.line == 2

    def test_four_rows_share_a_minute_timestamp(self, tmp_path):
        stamp = "2017-09-30 16:01:00"
        path = write_csv(tmp_path / "a.csv", [f"2017-09-30,18,{stamp}"] * 4,
                         header="delivery_date,product,timestamp,transaction_id")
        # distinct ids keep the rows from being exact duplicates
        lines = path.read_text().splitlines()
        lines[1:] = [f"{line},id{i}" for i, line in enumerate(lines[1:])]
        path.write_text("\n".join(lines) + "\n")
        rows = parse_csv(path)
        assert len(rows) == 4
        assert rows.timestamp.tolist() == [datetime(2017, 9, 30, 16, 1)] * 4

    def test_missing_column_is_schema_error(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", ["2017-09-30,12"], header="delivery_date,product")
        with pytest.raises(SchemaError):
            parse_csv(path)

    def test_short_row_reports_line(self, tmp_path):
        path = write_csv(
            tmp_path / "a.csv",
            ["2017-09-30,12,2017-09-30 08:01:00", "2017-09-30,12"],
        )
        with pytest.raises(RowError) as err:
            parse_csv(path)
        assert err.value.line == 3

    def test_unparseable_timestamp_reports_line(self, tmp_path):
        path = write_csv(
            tmp_path / "a.csv",
            ["2017-09-30,12,2017-09-30 08:01:00", "2017-09-30,12,not-a-time"],
        )
        with pytest.raises(RowError) as err:
            parse_csv(path)
        assert err.value.line == 3

    def test_exact_duplicates_dropped(self, tmp_path, caplog):
        row = "2017-09-30,12,2017-09-30 08:01:00"
        path = write_csv(tmp_path / "a.csv", [row, row])
        with caplog.at_level("WARNING"):
            rows = parse_csv(path)
        assert len(rows) == 1
        assert "duplicate" in caplog.text

    def test_rows_differing_in_an_unread_column_kept(self, tmp_path):
        row = "2017-09-30,12,2017-09-30 08:01:00"
        path = write_csv(
            tmp_path / "a.csv",
            [f"{row},1.0,", f"{row},1.00,", f"{row},x\0,y", f"{row},x,\0y", f"{row},1.0,"],
            header="delivery_date,product,timestamp,volume,note",
        )
        assert len(parse_csv(path)) == 4

    @pytest.mark.parametrize("quote", ["", '"'])
    def test_a_field_over_the_csv_size_limit_is_a_row_error(self, tmp_path, quote):
        note = quote + "x" * (csv.field_size_limit() + 1) + quote
        path = write_csv(
            tmp_path / "a.csv",
            ["2017-09-30,12,2017-09-30 08:01:00,a", f"2017-09-30,12,2017-09-30 08:01:00,{note}"],
            header="delivery_date,product,timestamp,note",
        )
        with pytest.raises(RowError) as err:
            parse_csv(path)
        assert err.value.line == 3 and "field larger than field limit" in str(err.value)

    def test_custom_formats_and_delimiter(self, tmp_path):
        path = write_csv(
            tmp_path / "a.csv",
            ["30.09.2017;12;30.09.2017 16:01:00"],
            header="delivery_date;product;timestamp",
        )
        schema = CsvSchema(
            delimiter=";",
            timestamp_format="%d.%m.%Y %H:%M:%S",
            date_format="%d.%m.%Y",
        )
        rows = parse_csv(path, schema)
        assert rows.day.tolist() == [date(2017, 9, 30)]
        assert rows.timestamp.tolist() == [datetime(2017, 9, 30, 16, 1)]


class TestDejitter:
    base = 1_234 * 60 * SECOND

    def test_four_ties_spread_over_quarter_minutes(self):
        out = dejitter_us(np.full(4, self.base))
        np.testing.assert_array_equal(
            out, self.base + np.array([0, 15, 30, 45]) * SECOND
        )

    def test_single_transaction_unchanged(self):
        np.testing.assert_array_equal(dejitter_us([self.base]), [self.base])

    def test_three_ties(self):
        out = dejitter_us(np.full(3, self.base))
        np.testing.assert_array_equal(out, self.base + np.array([0, 20, 40]) * SECOND)

    def test_idempotent_and_order_preserving(self):
        us = self.base + np.array([0, 0, 60, 180]) * SECOND
        once = dejitter_us(us)
        np.testing.assert_array_equal(dejitter_us(once), once)
        assert np.all(np.diff(once) > 0)

    def test_spread_rounds_like_timedelta(self):
        for k in range(1, 400):
            expected = [timedelta(seconds=60.0 / k * m) // timedelta(microseconds=1)
                        for m in range(k)]
            np.testing.assert_array_equal(dejitter_us(np.zeros(k, np.int64)), expected)

    def test_spread_overrunning_next_time_rejected(self):
        # two ties at :00 spread to :00 and :30, past the :10 transaction
        with pytest.raises(DomainError):
            dejitter_us(np.array([0, 0, 10 * SECOND]))


class TestDeliveryRelative:
    def test_product_1_previous_afternoon(self):
        # product 1 delivers at 00:00, so 15:00 the day before is -9 h
        assert hours_to_delivery(
            datetime(2017, 9, 2, 15, 0), date(2017, 9, 3), 1
        ) == pytest.approx(-9.0)

    def test_product_24_previous_afternoon(self):
        assert hours_to_delivery(
            datetime(2017, 9, 2, 15, 0), date(2017, 9, 3), 24
        ) == pytest.approx(-32.0)

    def test_zero_at_delivery_start(self):
        assert hours_to_delivery(
            datetime(2017, 9, 3, 11, 0), date(2017, 9, 3), 12
        ) == pytest.approx(0.0)

    def test_affine_in_timestamp(self):
        rng = np.random.default_rng(3)
        base = datetime(2018, 5, 4, 9, 30)
        t0 = hours_to_delivery(base, date(2018, 5, 4), 18, BERLIN)
        for _ in range(10):
            shift = float(rng.uniform(-10.0, 10.0))
            shifted = hours_to_delivery(
                base + timedelta(hours=shift), date(2018, 5, 4), 18, BERLIN
            )
            assert shifted - t0 == pytest.approx(shift, abs=1e-9)

    def test_spring_forward_hour_undefined(self):
        # Europe/Berlin skipped 02:00-03:00 on 2018-03-25 -> product 3 has
        # no well-defined delivery start
        assert delivery_start(date(2018, 3, 25), 3, BERLIN) is None
        assert delivery_start(date(2018, 3, 25), 5, BERLIN) is not None
        tx = transactions([(date(2018, 3, 25), 3, datetime(2018, 3, 24, 15, 0))])
        assert build_series(tx, tz=BERLIN) == {}

    def test_fall_back_hour_undefined(self):
        # 02:00-03:00 happened twice on 2017-10-29
        assert delivery_start(date(2017, 10, 29), 3, BERLIN) is None
        assert delivery_start(date(2017, 10, 29), 6, BERLIN) is not None

    def test_dst_shifts_absolute_distance(self):
        # across the spring-forward gap, 23:00 the evening before is only
        # 5 wall-clock-independent hours from the 05:00 delivery (not 6)
        hours = hours_to_delivery(
            datetime(2018, 3, 24, 23, 0), date(2018, 3, 25), 6, BERLIN
        )
        assert hours == pytest.approx(-5.0)

    @pytest.mark.parametrize("day, stamps", [
        # spring forward: 02:00 -> 03:00
        (date(2018, 3, 25), ["2018-03-24 23:59"] * 3 + ["2018-03-25 01:59"] * 7
         + ["2018-03-25 03:00"] * 2 + ["2018-03-25 03:17", "2018-03-25 04:05"] * 5),
        # fall back: 03:00 -> 02:00, ties read at the first 02:xx
        (date(2017, 10, 29), ["2017-10-29 01:30"] * 3 + ["2017-10-29 02:30"] * 4
         + ["2017-10-29 03:30"] * 6 + ["2017-10-29 04:15"]),
    ])
    def test_ties_on_dst_day_match_per_row_formula(self, day, stamps):
        times = [datetime.fromisoformat(s) for s in stamps]
        cells = build_series(transactions((day, 6, ts) for ts in times), tz=BERLIN)
        expected = per_row_hours(times, day, 6, BERLIN)
        np.testing.assert_array_equal(cells[(day, 6)].arrivals, expected)


def series(arrivals, b=-9.0, e=-0.5, day=date(2017, 9, 3), product=1):
    return ArrivalSeries(day, product, np.asarray(arrivals, float), b, e)


class TestSliceWindow:
    def test_index_rule(self):
        sample = slice_window(series([-4.0, -3.0, -2.0, -1.0]), a=-3.25)
        np.testing.assert_allclose(sample.x, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(sample.t, [-4.0, -3.0, -2.0])

    def test_empty_window_flagged(self, caplog):
        with caplog.at_level("WARNING"):
            sample = slice_window(series([-5.0, -4.0]), a=-3.25)
        assert sample.empty
        assert "no arrivals" in caplog.text

    def test_first_spell_starts_at_trading_begin(self):
        sample = slice_window(series([-3.2, -1.0], b=-9.0), a=-3.25)
        np.testing.assert_allclose(sample.x, [5.8, 2.2])
        np.testing.assert_allclose(sample.t, [-9.0, -3.2])

    def test_window_start_must_lie_inside_trading(self):
        with pytest.raises(DomainError):
            slice_window(series([-1.0]), a=-9.5)

    def test_sum_of_gaps_covers_span(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            arr = np.sort(rng.uniform(-8.9, -0.6, size=rng.integers(1, 40)))
            arr = np.unique(arr)
            sample = slice_window(series(arr), a=-3.25)
            if sample.empty:
                continue
            span = arr[-1] - max(-3.25, sample.t[0])
            assert sample.x.sum() >= span - 1e-12

    def test_merge_pools_days(self):
        s1 = slice_window(series([-2.0, -1.0]), a=-3.25)
        s2 = slice_window(series([-3.0, -0.9], day=date(2017, 9, 4)), a=-3.25)
        merged = merge_samples([s1, s2])
        assert merged.days == 2
        assert merged.n == s1.n + s2.n

    def test_merge_rejects_mixed_windows(self):
        s1 = slice_window(series([-2.0]), a=-3.25)
        s2 = slice_window(series([-2.0]), a=-3.0)
        with pytest.raises(ParameterError):
            merge_samples([s1, s2])


class TestBuildSeries:
    def test_end_to_end(self, tmp_path):
        path = write_csv(
            tmp_path / "a.csv",
            [
                "2017-09-03,1,2017-09-02 21:00:00,x1",
                "2017-09-03,1,2017-09-02 21:00:00,x2",
                "2017-09-03,1,2017-09-02 22:30:00,x3",
                "2017-09-03,1,2017-09-03 00:10:00,x4",  # at/after trading end
            ],
            header="delivery_date,product,timestamp,transaction_id",
        )
        cells = build_series(parse_csv(path))
        s = cells[(date(2017, 9, 3), 1)]
        assert s.trading_begin == -9.0 and s.trading_end == -0.5
        # the 21:00 tie dejitters to -3h and -3h+30s; the 00:10 row is dropped
        np.testing.assert_allclose(s.arrivals, [-3.0, -3.0 + 30 / 3600, -1.5])

    def test_dst_cell_dropped(self, caplog):
        txs = transactions([
            (date(2018, 3, 25), 3, datetime(2018, 3, 25, 1, 0)),
            (date(2018, 3, 25), 6, datetime(2018, 3, 25, 1, 0)),
        ])
        with caplog.at_level("WARNING"):
            cells = build_series(txs, tz=BERLIN)
        assert (date(2018, 3, 25), 3) not in cells
        assert (date(2018, 3, 25), 6) in cells
        assert "DST" in caplog.text


class TestStore:
    def test_roundtrip(self, tmp_path):
        cells = {
            (date(2017, 9, 3), 1): series([-3.0, -2.5, -1.0]),
            (date(2017, 9, 4), 2): series([-2.2, -0.9], b=-10.0, product=2),
        }
        path = tmp_path / "store.csv"
        write_store(cells, path)
        loaded = load_store(path, {1: -9.0, 2: -10.0}, {1: -0.5, 2: -0.5})
        assert set(loaded) == set(cells)
        for key in cells:
            np.testing.assert_allclose(loaded[key].arrivals, cells[key].arrivals)

    def test_store_bytes_are_the_per_row_writers(self, tmp_path):
        cells = {
            (date(2017, 9, 4), 2): series([-9.5, -2.2, -0.75000000000001, -1 / 3], b=-10.0, e=0.0, product=2),
            (date(2017, 9, 3), 1): series([-3.0, -1 - 2**-52, -1e-5, 5e-324, 0.1], e=1.0),
            (date(2017, 9, 3), 12): series([], b=-20.0, product=12),
        }
        path = tmp_path / "store.csv"
        write_store(cells, path)
        expected = tmp_path / "per_row.csv"
        with expected.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["delivery_date", "product", "time_hours"])
            for (day, product) in sorted(cells):
                for t in cells[(day, product)].arrivals:
                    writer.writerow([day.isoformat(), product, repr(float(t))])
        assert path.read_bytes() == expected.read_bytes()

    def test_load_clips_to_trading_window(self, tmp_path, caplog):
        key = (date(2017, 9, 3), 1)
        path = tmp_path / "store.csv"
        write_store({key: series([-3.0, -0.9, -0.6])}, path)
        with caplog.at_level("WARNING"):
            loaded = load_store(path, {1: -9.0}, {1: -1.0})
        np.testing.assert_array_equal(loaded[key].arrivals, [-3.0])
        assert loaded[key].trading_end == -1.0
        assert "excluded 2 transactions" in caplog.text

    @pytest.mark.parametrize("row", [
        "2017-13-03,1,-2.0", "2017-09-03,x,-2.0", "2017-09-03,1,abc", "2017-09-03,1",
        "2017-09-03,99999999999999999999,-2.0",  # a product past int64
    ])
    def test_bad_row_is_a_row_error(self, tmp_path, row):
        path = tmp_path / "store.csv"
        path.write_text(f"delivery_date,product,time_hours\n2017-09-03,1,-3.0\n{row}\n")
        with pytest.raises(RowError) as info:
            load_store(path)
        assert info.value.line == 3

    def test_other_products_dropped_before_clipping(self, tmp_path):
        path = tmp_path / "store.csv"
        path.write_text(
            "delivery_date,product,time_hours\n2017-09-03,5,-2.0\n2017-09-03,6,-2.0\n"
        )
        loaded = load_store(path, trading_begin={5: -13.0}, products=(5,))
        assert list(loaded) == [(date(2017, 9, 3), 5)]
        assert loaded[(date(2017, 9, 3), 5)].trading_begin == -13.0

    def test_not_a_store(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(SchemaError):
            load_store(path)


# ---------------------------------------------------------------------------
# Per-row reference: it parses each row with csv.reader and builds a tuple
# of Python objects, as the readers' per-row fallback parses a record, but
# it keeps every row's key for the duplicate check and returns no columns.
# ---------------------------------------------------------------------------

reference_log = logging.getLogger("reference_ingest")


def reference_parse_csv(path, schema=CsvSchema(), n_products=24):
    def parse_timestamp(raw):
        fmt = schema.timestamp_format
        return datetime.fromisoformat(raw.strip()) if fmt is None else datetime.strptime(raw.strip(), fmt)

    def parse_date(raw):
        fmt = schema.date_format
        return date.fromisoformat(raw.strip()) if fmt is None else datetime.strptime(raw.strip(), fmt).date()

    rows, seen, dupes = [], set(), 0
    with Path(path).open(newline="") as handle:
        reader = csv.reader(handle, delimiter=schema.delimiter)
        header = next(reader, [])
        columns = (schema.delivery_date, schema.product, schema.timestamp)
        i_date, i_product, i_timestamp = (header.index(c) for c in columns)
        for record in reader:
            if not record:
                continue
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
                rows.append((parse_date(record[i_date]), product, parse_timestamp(record[i_timestamp])))
            except (ValueError, IndexError) as exc:
                raise RowError(reader.line_num, str(exc)) from exc
    if dupes:
        reference_log.warning("dropped %d exact duplicate rows from %s", dupes, path)
    return rows


def reference_series(hours, trading_begin, trading_end):
    out = {}
    for (day, product), rel in sorted(hours.items()):
        begin, end = trading_bounds(product, trading_begin, trading_end)
        keep = (rel > begin) & (rel < end)
        dropped = int(rel.size - keep.sum())
        if dropped:
            reference_log.warning(
                "day %s product %d: excluded %d transactions outside (%s, %s)",
                day, product, dropped, begin, end,
            )
        out[(day, product)] = ArrivalSeries(day, product, rel[keep], begin, end)
    return out


def reference_build_series(rows, trading_begin=None, trading_end=None, tz=None):
    groups = {}
    for day, product, timestamp in rows:
        groups.setdefault((day, product), []).append(timestamp)
    hours = {}
    for (day, product), times in sorted(groups.items()):
        start = delivery_start(day, product, tz)
        if start is None:
            reference_log.warning(
                "dropping day %s product %d: delivery hour hit by DST transition", day, product
            )
            continue
        if tz is not None:
            times = [ts if ts.tzinfo is not None else ts.replace(tzinfo=tz) for ts in times]
        start_utc = start.astimezone(timezone.utc)
        us = np.array([
            (ts - start if ts.tzinfo is None else ts.astimezone(timezone.utc) - start_utc) // US
            for ts in times
        ], dtype=np.int64)
        hours[(day, product)] = dejitter_us(np.sort(us)) / 1e6 / 3600.0
    return reference_series(hours, trading_begin, trading_end)


def reference_load_store(path, trading_begin=None, trading_end=None, products=None):
    cells = {}
    with Path(path).open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        i_date, i_product, i_hours = (header.index(c) for c in ("delivery_date", "product", "time_hours"))
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
    return reference_series(hours, trading_begin, trading_end)


def outcome(caplog, read, *args, **kwargs):
    """(result, log messages, (line, message) of a RowError or None)."""
    caplog.clear()
    with caplog.at_level("WARNING"):
        try:
            result, error = read(*args, **kwargs), None
        except RowError as exc:
            result, error = None, (exc.line, str(exc))
    return result, [m.replace(str(args[0]), "PATH") for m in caplog.messages], error


def assert_same_series(got, expected):
    assert list(got) == list(expected)
    for key, series in expected.items():
        assert got[key].arrivals.tobytes() == series.arrivals.tobytes(), key
        assert (got[key].trading_begin, got[key].trading_end) == (series.trading_begin, series.trading_end)


def assert_same_rows(got, expected):
    """``Transactions`` ``got`` hold the reference's (date, product, datetime) rows."""
    np.testing.assert_array_equal(got.day, [d for d, _, _ in expected])
    np.testing.assert_array_equal(got.product, [p for _, p, _ in expected])
    np.testing.assert_array_equal(got.timestamp.view(np.int64), [micros(ts) for _, _, ts in expected])
    np.testing.assert_array_equal(got.aware, [ts.tzinfo is not None for _, _, ts in expected])


MIXED = [
    # (line ending, row); ties on a minute grid, other columns tell fills apart
    ("\n", "2017-09-30,12,2017-09-30 08:01:00,1.0,a"),
    ("\n", "2017-09-30,12,2017-09-30 08:01:00,1.0,b"),
    ("\r\n", "2017-09-30,12,2017-09-30 08:01:00,1.0,a"),  # duplicate of the first row
    ("\r\n", ""),
    ("\n", '2017-09-30,12,2017-09-30 08:02:00,1.0,"x,y"'),  # quoted delimiter
    ("\n", "2017-09-30,12,2017-09-30 08:02:00,1.0,x"),
    ("\n", '"2017-09-30",12,"2017-09-30 08:02:00",1.0,x'),  # quoted twin: a duplicate
    ("\n", '2017-09-30,13,2017-09-30 09:10:00.250000,1.0,"two\nlines"'),
    ("\r", "2017-09-30,13,2017-09-30T09:10:00.250,1.0,c"),
    ("\n", "2017-09-30,13,2017-09-30 11:59:59,1.0,d"),  # after the trading end
    ("\n", ""),
    # shapes that go through fromisoformat, on Python 3.10 as on later ones
    ("\n", " 2017-10-01 ,13,2017-09-30 23,1.0,e"),
    ("\n", "2017-10-01,+13, 2017-09-30 23:00:00.500 ,1.0,f"),
    ("\n", "2017-10-01,13,2017-09-30_23:01,1.0,g"),
    ("\n", "2017-10-01,12,2017-09-30 20:00:00.123456,1.0,h"),
    ("\n", "2017-10-01,12,2017-09-30 20:00:00.123456,1.0,h"),  # duplicate
    ("\n", "2017-10-01,12,2017-09-30 20:00:00.123456,1.0,i"),
    ("\n", "2017-10-01,12,2017-10-01 01:00:00,1.0,j"),
    ("\n", "2018-03-25,3,2018-03-24 23:00:00,1.0,k"),  # DST: hour skipped
    ("\n", "2018-03-25,6,2018-03-25 01:59:00,1.0,l"),
    ("\n", "2018-03-25,6,2018-03-25 02:30:00,1.0,m"),  # inside the skipped hour
    ("\n", "2018-03-25,6,2018-03-25 03:00:00,1.0,n"),
    ("\n", "2018-03-25,6,2018-03-25 03:00:00,1.0,o"),
    ("\n", "2017-10-29,3,2017-10-28 23:00:00,1.0,p"),  # DST: hour doubled
    ("\n", "2017-10-29,6,2017-10-29 02:30:00,1.0,q"),
    ("\n", "2017-10-29,6,2017-10-29 02:30:00,1.0,r"),
    ("\n", "2017-10-29,6,2017-10-29 03:30:00,1.0,s"),
    ("\n", "2017-10-29,6,2017-10-29 01:30:00,1.0,t"),
]
AWARE = [
    ("\n", "2018-03-25,6,2018-03-25 01:30:00+01:00,1.0,u"),
    ("\n", "2018-03-25,6,2018-03-25 03:30:00+02:00,1.0,v"),
    ("\n", "2018-03-25,6,2018-03-25T03:30:00+02:00,1.0,v"),
    ("\n", "2017-10-29,6,2017-10-29 02:30:00+01:00,1.0,w"),
    ("\n", "2017-10-29,6,2017-10-29 02:30:00+02:00,1.0,x"),
    ("\n", "2017-10-29,6,2017-10-29 02:30:00,1.0,x"),
]
NUL = [
    ("\n", "2017-09-30,12,2017-09-30 08:01:00,1.0,x\0,y"),
    ("\n", "2017-09-30,12,2017-09-30 08:01:00,1.0,x,\0y"),
    ("\n", "2017-09-30,12,2017-09-30 08:01:00,1.0,x\0,y"),  # duplicate
    ("\n", "2017-09-30,12,2017-09-30 08:01:00,1.0\0,x,y"),
]
SEMICOLON = [
    ("\n", "30.09.2017;12;30.09.2017 08:01:00;1,0"),
    ("\n", "30.09.2017;12;30.09.2017 08:01:00;1,5"),
    ("\n", '"30.09.2017";12;30.09.2017 08:01:00;"1,0"'),  # quoted twin
    ("\n", "30.09.2017;13;30.09.2017 09:59:00;2,0"),
]
# No quote, NUL or blank line, only ASCII, and ISO dates and timestamps:
# np.loadtxt reads it, unless a bad row sends the whole file to the per-row
# reader.  Rows end in LF, CRLF and CR, which np.loadtxt and csv.reader
# split alike.
PLAIN = [
    ("\n", "2017-09-30,12,2017-09-30 08:01:00,1.0,a"),
    ("\r\n", "2017-09-30,12,2017-09-30 08:01:00,1.0,b"),
    ("\r", "2017-09-30,12,2017-09-30 08:01:00,1.0,a"),  # duplicate of the first row
    ("\r", "2017-09-30,12,2017-09-30T08:02:00,1.0,x,extra"),  # a longer row
    ("\n", "2017-09-30,13,2017-09-30 09:10:00.250000,1.0,c"),
    ("\n", "2017-09-30,13,2017-09-30 09:10:00.250,1.0,c"),  # the same time, another row
    ("\r\n", "2017-09-30,13,2017-09-30 11:59:59,1.0,d"),  # after the trading end
    # timestamps of every plain length, a signed product and spaces in an unread field
    ("\n", "2017-10-01,12,2017-09-30 20:00:00.123456,1.0,h"),
    ("\r\n", "2017-10-01,12,2017-09-30 20:00:00.123456,1.0,h"),  # duplicate
    ("\n", "2017-10-01,12,2017-09-30 21:01,1.0,i"),
    ("\n", "2017-10-01,12,2017-09-30, 1.0 ,j"),
    ("\n", "2017-10-01,+6,2017-09-30 23:00:00.500,1.0,f"),
    ("\n", "2018-03-25,3,2018-03-24 23:00:00,1.0,k"),  # DST: hour skipped
    ("\n", "2018-03-25,6,2018-03-25 01:59:00,1.0,l"),
    ("\n", "2018-03-25,6,2018-03-25 03:00:00,1.0,n"),
    ("\n", "2018-03-25,6,2018-03-25 03:00:00,1.0,o"),
    ("\n", "2017-10-29,3,2017-10-28 23:00:00,1.0,p"),  # DST: hour doubled
    ("\n", "2017-10-29,6,2017-10-29 02:30:00,1.0,q"),
    ("\n", "2017-10-29,6,2017-10-29 02:30:00,1.0,r"),
    ("\n", "2017-10-29,6,2017-10-29 01:30:00,1.0,t"),
]
CUSTOM = CsvSchema(delimiter=";", timestamp_format="%d.%m.%Y %H:%M:%S", date_format="%d.%m.%Y")
FIXTURES = {
    # name: (header, rows, schema, timezones)
    "mixed": ("delivery_date,product,timestamp,volume,note", MIXED, CsvSchema(), (None, BERLIN)),
    "aware": ("delivery_date,product,timestamp,volume,note", MIXED + AWARE, CsvSchema(), (BERLIN,)),
    "nul": ("delivery_date,product,timestamp,volume,note", MIXED[:3] + NUL, CsvSchema(), (None,)),
    "semicolon": ("delivery_date;product;timestamp;volume", SEMICOLON, CUSTOM, (None, BERLIN)),
    "plain": ("delivery_date,product,timestamp,volume,note", PLAIN, CsvSchema(), (None, BERLIN)),
    "plain aware": ("delivery_date,product,timestamp,volume,note", PLAIN + AWARE, CsvSchema(), (BERLIN,)),
}
BAD_ROWS = {
    "good": None,
    "first block": (0, "2017-09-30,25,2017-09-30 08:01:00,1.0,bad"),
    "last block": (-1, "2017-09-30,12,2017-09-31 08:01:00,1.0,bad"),
    "short": (-1, "2017-09-30,12"),
    "year 0": (-1, "2017-09-30,12,0000-09-30 08:01:00,1.0,bad"),
    "bad timestamp before a bad product": (5, "2017-09-30,12,2017-09-30 8h,1.0,bad\n2017-09-30,0,x,1.0,bad"),
    # where np.loadtxt and csv + int/fromisoformat could disagree
    "product ' 6'": (-1, "2018-03-25, 6,2018-03-25 04:10:00,1.0,bad"),  # int takes it
    "product 6.0": (-1, "2018-03-25,6.0,2018-03-25 04:10:00,1.0,bad"),  # int refuses it
    "product 006": (-1, "2018-03-25,006,2018-03-25 04:10:00,1.0,bad"),  # more characters than np.loadtxt keeps
    "padded date": (-1, " 2018-03-25,6,2018-03-25 04:10:00,1.0,bad"),  # fromisoformat strips it
    "12-character date": (-1, "2018-03-25 1,6,2018-03-25 04:10:00,1.0,bad"),  # np.loadtxt cuts it to a date
    "hour-only timestamp": (-1, "2018-03-25,6,2018-03-25 04,1.0,bad"),  # not plain ISO
    "7-digit fraction": (-1, "2018-03-25,6,2018-03-25 04:10:00.1234567,1.0,bad"),  # longer than kept
    "whitespace line": (-1, "  "),
    "non-ASCII": (-1, "2018-03-25,6,2018-03-25 04:10:00,1.0,\u00e9"),
    "final newline": (-1, ""),  # every other case ends without one
}
# the cases that keep the plain fixture on np.loadtxt's path
RAW_LOADTXT_CASES = {"good", "product ' 6'", "final newline"}


def write_fixture(path, header, rows, bad=None):
    """Write (line end, row) pairs under ``header``, the last row without its
    line end; ``bad`` is (index, row) of a row to insert, -1 appending it."""
    rows = list(rows)
    if bad is not None:
        at, row = bad
        rows.insert(len(rows) if at == -1 else at, ("\n", row))
    with path.open("w", newline="") as handle:
        handle.write(header + "\n" + "".join(row + end for end, row in rows[:-1]) + rows[-1][1])
    return path


def fixture_cases():
    for name, (header, rows, schema, zones) in FIXTURES.items():
        marks = ()
        if name == "nul":
            marks = pytest.mark.skipif(
                sys.version_info < (3, 11), reason="the reference's csv.reader refuses NUL"
            )
        for bad in BAD_ROWS:
            for tz in zones:
                yield pytest.param(name, bad, tz, marks=marks, id=f"{name}-{bad}-{tz}")


def block_and_batch(*blocks):
    """(byte scan block, per-row batch) pairs: blocks of ``blocks`` bytes
    with batches of 1 row, 3 rows and the default size, under the ids of
    the block sizes."""
    return [pytest.param(block, batch, id=str(block))
            for block, batch in zip(blocks, (1, 3, ingest._BATCH))]


@pytest.mark.parametrize("block, batch", block_and_batch(1, 100, 1 << 16))
@pytest.mark.parametrize("name, bad, tz", fixture_cases())
def test_columnar_reader_matches_the_per_row_reference(tmp_path, caplog, monkeypatch, block, batch, name, bad, tz):
    """Same rows, series (bitwise), warnings and RowError lines as the per-row
    reference, with byte blocks of one byte, a few lines, and the default
    size, and batches of one row, a few rows, and the default size."""
    header, rows, schema, _ = FIXTURES[name]
    path = write_fixture(tmp_path / "raw.csv", header, rows, BAD_ROWS[bad])
    expected_rows, expected_log, expected_error = outcome(caplog, reference_parse_csv, path, schema)
    monkeypatch.setattr(ingest, "_BLOCK", block)
    monkeypatch.setattr(ingest, "_BATCH", batch)
    got_rows, got_log, got_error = outcome(caplog, parse_csv, path, schema)
    assert (got_log, got_error) == (expected_log, expected_error)
    # only a plain file without a bad row skips the per-row reader
    assert row_reads(monkeypatch, parse_csv, path, schema) == (
        name != "plain" or bad not in RAW_LOADTXT_CASES)
    if expected_error is not None:
        return
    assert (bad, len(got_rows)) == (bad, len(expected_rows))
    assert_same_rows(got_rows, expected_rows)
    bounds = ({12: -30.0, 13: -30.0, 3: -20.0, 6: -20.0}, {12: -0.5, 13: -0.5, 3: -0.5, 6: -0.5})
    expected, expected_log, _ = outcome(caplog, reference_build_series, expected_rows, *bounds, tz)
    got, got_log, _ = outcome(caplog, build_series, got_rows, *bounds, tz)
    assert got_log == expected_log
    assert_same_series(got, expected)


def row_reads(monkeypatch, read, *args) -> bool:
    """Whether ``read(*args)`` parses the raw CSV with the per-row reader."""
    calls = []
    real = ingest._read_raw_rows
    monkeypatch.setattr(ingest, "_read_raw_rows", lambda *a: calls.append(a) or real(*a))
    try:
        read(*args)
    except RowError:
        pass
    finally:
        monkeypatch.setattr(ingest, "_read_raw_rows", real)
    return bool(calls)


def test_the_oracle_fixtures_exercise_every_path(tmp_path, caplog):
    """The mixed fixture has duplicates, DST drops and exclusions, so the
    comparison above checks every warning."""
    header, rows, schema, _ = FIXTURES["aware"]
    path = write_fixture(tmp_path / "raw.csv", header, rows)
    _, messages, _ = outcome(caplog, reference_build_series, reference_parse_csv(path), tz=BERLIN)
    assert any("DST" in m for m in messages) and any("excluded" in m for m in messages)
    _, messages, _ = outcome(caplog, reference_parse_csv, path)
    assert messages == ["dropped 3 exact duplicate rows from PATH"]


def dejitter_rows(failing):
    """(day, product, wall clock) rows of cells whose ties meet at cell
    edges, two DST cells and, if ``failing``, a cell between them whose
    three fills at 08:01:00 spread past the one at 08:01:10."""
    rows = [
        # product 5 delivers at 04:00 and 6 at 05:00: both cells' ties sit
        # at -1 h, one at the end of its cell and one at the start of the next
        *[(date(2017, 9, 3), 5, datetime(2017, 9, 3, 1, 30))] * 2,
        *[(date(2017, 9, 3), 5, datetime(2017, 9, 3, 3, 0))] * 2,
        *[(date(2017, 9, 3), 6, datetime(2017, 9, 3, 4, 0))] * 3,
        *[(date(2017, 9, 3), 6, datetime(2017, 9, 3, 4, 1))] * 2,
        # the wall clock of the last tie, in the next cell
        *[(date(2017, 9, 3), 7, datetime(2017, 9, 3, 4, 1))] * 4,
        (date(2017, 10, 29), 3, datetime(2017, 10, 28, 23, 0)),  # DST: hour doubled
        (date(2018, 3, 25), 3, datetime(2018, 3, 24, 23, 0)),  # DST: hour skipped
        *[(date(2018, 3, 25), 6, datetime(2018, 3, 25, 3, 0))] * 2,
    ]
    if failing:
        rows += [(date(2018, 1, 10), 12, datetime(2018, 1, 10, 8, 1))] * 3
        rows += [(date(2018, 1, 10), 12, datetime(2018, 1, 10, 8, 1, 10))]
    return rows


def dejitter_outcome(caplog, build, rows, tz):
    """(series, log messages, whether it raised DomainError) of ``build``."""
    caplog.clear()
    with caplog.at_level("WARNING"):
        try:
            return build(rows, tz=tz), caplog.messages, False
        except DomainError:
            return None, caplog.messages, True


@pytest.mark.parametrize("group", [1, 5, 1 << 12])
@pytest.mark.parametrize("order", ["cell order", "shuffled"])
@pytest.mark.parametrize("failing", [False, True])
@pytest.mark.parametrize("tz", [None, BERLIN])
def test_one_pass_dejitter_matches_the_per_cell_reference(caplog, monkeypatch, group, order, failing, tz):
    """Bitwise the reference's series, with ties cut at cell edges, in
    groups of cells of one row, a few rows or the default size; the DST
    warnings before a failing cell are the reference's, and none after."""
    monkeypatch.setattr(ingest, "_ROWS", group)
    rows = dejitter_rows(failing)
    if order == "shuffled":
        rows = [rows[i] for i in np.random.default_rng(7).permutation(len(rows))]
    expected, expected_log, expected_error = dejitter_outcome(caplog, reference_build_series, rows, tz)
    got, got_log, got_error = dejitter_outcome(caplog, build_series, transactions(rows), tz)
    assert (got_log, got_error) == (expected_log, expected_error) == (
        ["dropping day 2017-10-29 product 3: delivery hour hit by DST transition"] * (tz is not None)
        + ["dropping day 2018-03-25 product 3: delivery hour hit by DST transition"] * (tz is not None and not failing),
        failing,
    )
    if not failing:
        assert_same_series(got, expected)
        assert got[(date(2017, 9, 3), 6)].arrivals[0] == -1.0  # not spread on by the cell before


@pytest.mark.parametrize("tz, offset", [(None, ""), (BERLIN, "+01:00")])
def test_a_failed_dejitter_names_its_cell_and_wall_clock(tz, offset):
    with pytest.raises(DomainError) as info:
        build_series(transactions(dejitter_rows(failing=True)), tz=tz)
    assert str(info.value) == (
        "day 2018-01-10 product 12: dejitter spreads the 3 transactions at "
        f"2018-01-10 08:01:00{offset} past the next one at 2018-01-10 08:01:10{offset}"
    )


def test_an_empty_input_has_no_series():
    assert build_series(transactions([])) == {}
    assert dejitter_us(np.empty(0, np.int64)).size == 0


def colliding(*rows):
    """A digest helper under which the keys of the CSV lines ``rows`` share
    one digest, and every other key keeps its own: the per-row reader's keys
    (the tuple of a record's fields) and the plain reader's (the line's bytes)."""
    keys = {tuple(record) for record in csv.reader(rows)} | {row.encode() for row in rows}
    return lambda block: np.fromiter((0 if k in keys else hash(k) for k in block), np.int64, len(block))


DIGESTS = [
    pytest.param(lambda block: np.zeros(len(block), np.int64), id="constant"),
    # two distinct rows, the first of which has a later duplicate
    pytest.param(colliding("2017-09-30,12,2017-09-30 08:01:00,1.0,a",
                           "2017-09-30,12,2017-09-30 08:01:00,1.0,b"), id="collision"),
]


def compare_duplicates(tmp_path, caplog, monkeypatch, sizes, digests, bad, name, twin, dropped) -> bool:
    """Assert that parse_csv gives the per-row reference's rows, warnings and
    RowError line whatever the digests, on the fixture ``name`` with its
    row ``twin`` repeated at the end, with (byte block, batch) ``sizes``;
    return whether the per-row reader ran."""
    header, rows, schema, _ = FIXTURES[name]
    path = write_fixture(tmp_path / "raw.csv", header, [*rows, rows[twin]], BAD_ROWS[bad])
    expected_rows, expected_log, expected_error = outcome(caplog, reference_parse_csv, path, schema)
    assert expected_error is not None or expected_log == [f"dropped {dropped} exact duplicate rows from PATH"]
    monkeypatch.setattr(ingest, "_BLOCK", sizes[0])
    monkeypatch.setattr(ingest, "_BATCH", sizes[1])
    monkeypatch.setattr(ingest, "_digests", digests)
    got_rows, got_log, got_error = outcome(caplog, parse_csv, path, schema)
    assert (got_log, got_error) == (expected_log, expected_error)
    if expected_error is None:
        assert len(got_rows) == len(expected_rows)
        assert_same_rows(got_rows, expected_rows)
    return row_reads(monkeypatch, parse_csv, path, schema)


@pytest.mark.parametrize("block, batch", block_and_batch(1, 100, 1 << 16))
@pytest.mark.parametrize("digests", DIGESTS)
@pytest.mark.parametrize("bad", ["good", "last block"])
def test_duplicates_are_exact_under_digest_collisions(tmp_path, caplog, monkeypatch, block, batch, digests, bad):
    """Rows, warnings and RowError lines are the reference's whatever the
    digests, so a row is dropped only for an exact earlier twin; here a
    quoted record over two lines, which the per-row reader reads."""
    assert compare_duplicates(tmp_path, caplog, monkeypatch, (block, batch), digests, bad, "mixed", 7, 4)


@pytest.mark.parametrize("block, batch", block_and_batch(1, 100, 1 << 16))
@pytest.mark.parametrize("digests", DIGESTS)
@pytest.mark.parametrize("bad", ["good", "last block"])
def test_plain_duplicates_are_exact_under_digest_collisions(tmp_path, caplog, monkeypatch, block, batch, digests, bad):
    """As above, on the plain fixture, whose digests np.loadtxt's path takes
    from the lines' bytes, with the longer row ending in CR repeated."""
    rows = compare_duplicates(tmp_path, caplog, monkeypatch, (block, batch), digests, bad, "plain", 3, 3)
    assert rows == (bad != "good")


def memory_test_file(path, n, quoted=False):
    """About ``n`` rows of a raw CSV, whose middle row repeats at the end;
    with ``quoted``, every field is quoted."""
    start = datetime(2017, 9, 3, 0, 0)
    lines = ["delivery_date,product,timestamp,market_area,volume,price,transaction_id"]
    for i in range(n):
        day = date(2017, 9, 3) + timedelta(days=i // 2400)
        product = 1 + i // 100 % 24
        ts = start + timedelta(days=i // 2400, microseconds=137_000_017 * (i % 2400))
        lines.append(f"{day},{product},{ts.isoformat(sep=' ')},DE,1.0,40.0,{day}-{product}-{i}")
    lines.append(lines[n // 2])
    if quoted:
        lines = ['"' + line.replace(",", '","') + '"' for line in lines]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_parse_csv_memory_stays_near_its_columns(tmp_path):
    """The tracemalloc peak of parse_csv on about 20k rows, one of them a
    duplicate, stays at or below 85 B per row: 70.2 measured, most of it
    the 41 of np.loadtxt's rows and the day, product and timestamp
    columns, plus a margin of about 15%.  The columns it returns hold 33."""
    n = 20_000
    path = memory_test_file(tmp_path / "raw.csv", n)
    tracemalloc.start()
    try:
        rows = parse_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == n
    assert peak / n <= 85


def test_the_per_row_reader_memory_stays_near_its_columns(tmp_path, monkeypatch):
    """The tracemalloc peak of parse_csv on the same rows with every field
    quoted, which the per-row reader reads, stays at or below 70 B per row:
    61.2 measured, the 33 of the columns, the 8 of the digests, one column
    joined and one batch of records, plus a margin of about 15%.  The block
    reader that came before it took 98."""
    n = 20_000
    path = memory_test_file(tmp_path / "raw.csv", n, quoted=True)
    assert row_reads(monkeypatch, parse_csv, path)
    tracemalloc.start()
    try:
        rows = parse_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == n
    assert peak / n <= 70


def test_dropping_a_duplicate_copies_one_column_at_a_time(tmp_path, monkeypatch):
    """From the second read of a file with one duplicate on, with blocks
    of 4 KiB, parse_csv's tracemalloc peak stays at or below 50 B per row:
    44 measured, the 33 of the columns, one 8-byte column copied and the
    mask.  Copying every column at once took 69."""
    n = 20_000
    path = memory_test_file(tmp_path / "raw.csv", n)
    monkeypatch.setattr(ingest, "_BLOCK", 1 << 12)
    later_twins = ingest._later_twins

    def from_here(*args):
        tracemalloc.reset_peak()
        return later_twins(*args)

    monkeypatch.setattr(ingest, "_later_twins", from_here)
    tracemalloc.start()
    try:
        rows = parse_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == n
    assert peak / n <= 50


def test_build_series_memory_stays_near_its_series():
    """The tracemalloc peak of build_series on 30k minute-grid rows in 30
    cells stays at or below 25 B per row: 19 measured, the 16 of the cells'
    hours and their series plus one group of cells' temporaries.  One
    group of all rows took 67, and dejittering a cell at a time 17."""
    n = 30_000
    rng = np.random.default_rng(1)
    day = np.repeat(np.arange(np.datetime64("2017-09-03"), np.datetime64("2017-10-03")), n // 30)
    minutes = np.sort(rng.integers(-480, -31, (30, n // 30)), axis=1).ravel()
    stamps = day.astype("datetime64[us]") + np.timedelta64(11, "h") + minutes.astype("timedelta64[m]")
    rows = Transactions(day, np.full(n, 12), stamps, np.zeros(n, bool), np.arange(2, n + 2))
    tracemalloc.start()
    try:
        cells = build_series(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(s.n for s in cells.values()) == n
    assert peak / n <= 25


STORE = [
    ("\n", "2017-09-03,1,-3.0"),
    ("\r\n", "2017-09-03,2,-2.2"),
    ("\r\n", "2017-09-03,1,-3.5"),
    ("\n", '"2017-09-04",1,"-1.25"'),
    ("\n", "2017-09-04,1,-0.25"),  # after the trading end
    ("\n", "2017-09-04,1,nan"),
    ("\n", "2017-09-03,3,-4.0"),
    ("\n", "2017-09-04,2,-7.5e-1"),
    ("\n", "2017-09-04,02,-2.000000000000001"),
]
STORE_BAD_ROWS = {
    "good": None,
    "blank line": (2, ""),
    "first block": (0, "2017-09-31,1,-2.0"),
    "last block": (-1, "2017-09-04,1,-2.0x"),
    "short": (-1, "2017-09-04,1"),
    "padded date": (3, " 2017-09-04,1,-2.0"),
    # where np.loadtxt and csv + float/int/fromisoformat disagree
    "underscore": (3, "2017-09-04,1,-1_0.5"),  # float takes it, np.loadtxt does not
    "product 2.0": (3, "2017-09-04,2.0,-2.0"),  # int refuses it
    "product ' 2'": (3, "2017-09-04, 2,-2.5"),  # int takes these two
    "product '+2'": (3, "2017-09-04,+2,-2.5"),
    "product 0002": (3, "2017-09-04,0002,-2.5"),  # more characters than np.loadtxt keeps
    "11-character date": (3, "2017-09-041,1,-2.0"),
    "year 0": (3, "0000-09-04,1,-2.0"),  # numpy takes it, fromisoformat does not
    "blank line after a CR": (4, "\r"),
    "blank CRLF line": (6, "\r"),
    "whitespace line": (3, "  "),
    "NUL": (3, "2017-09-04,1\0,-2.0"),  # np.loadtxt would drop the NUL that ends a field
    "final newline": (-1, ""),  # every other case ends without one
}
# No quote or NUL: np.loadtxt reads it, unless a bad row sends the whole
# file to the per-row reader.  Rows end in LF, CRLF (as write_store writes
# them) and CR, which np.loadtxt and csv.reader split alike.
PLAIN_STORE = [
    ("\n", "2017-09-03,1,-3.0"),
    ("\r\n", "2017-09-03,2,-2.2"),
    ("\r\n", "2017-09-03,1,-3.5"),
    ("\r", "2017-09-04,1,-1.25"),
    ("\n", "2017-09-04,1,-0.25"),  # after the trading end
    ("\n", "2017-09-04,1,nan"),
    ("\n", "2017-09-03,3,-4.0"),
    ("\n", "2017-09-04,2,-7.5e-1"),
    ("\n", "2017-09-04,02, -2.000000000000001 "),
]
# the cases that keep the plain store on np.loadtxt's path
LOADTXT_CASES = {"good", "product ' 2'", "product '+2'", "final newline"}
real_store_rows = ingest._read_store_rows


def store_cases():
    for bad in STORE_BAD_ROWS:
        marks = ()
        if bad == "NUL":
            marks = pytest.mark.skipif(
                sys.version_info < (3, 11), reason="the reference's csv.reader refuses NUL"
            )
        yield pytest.param(bad, marks=marks, id=bad)


def compare_store_readers(tmp_path, caplog, monkeypatch, rows, sizes, products, bad) -> bool:
    """Assert that load_store gives the per-row reference's series (bitwise),
    warnings and RowError line, with (byte block, batch) ``sizes``; return
    whether the per-row reader ran."""
    path = write_fixture(tmp_path / "store.csv", "delivery_date,product,time_hours", rows,
                         STORE_BAD_ROWS[bad])
    args = (path, {1: -9.0, 2: -10.0, 3: -11.0}, {1: -0.5, 2: -0.5, 3: -0.5}, products)
    expected, expected_log, expected_error = outcome(caplog, reference_load_store, *args)
    monkeypatch.setattr(ingest, "_BLOCK", sizes[0])
    monkeypatch.setattr(ingest, "_BATCH", sizes[1])
    calls = []
    monkeypatch.setattr(ingest, "_read_store_rows", lambda *a: calls.append(a) or real_store_rows(*a))
    got, got_log, got_error = outcome(caplog, load_store, *args)
    assert (got_log, got_error) == (expected_log, expected_error)
    if expected_error is None:
        assert_same_series(got, expected)
    return bool(calls)


@pytest.mark.parametrize("block, batch", block_and_batch(1, 40, 1 << 16))
@pytest.mark.parametrize("products", [None, (1, 2)])
@pytest.mark.parametrize("bad", store_cases())
def test_store_reader_matches_the_per_row_reference(tmp_path, caplog, monkeypatch, block, batch, products, bad):
    """A store with quoted fields is read by the per-row reader alone."""
    assert compare_store_readers(tmp_path, caplog, monkeypatch, STORE, (block, batch), products, bad)


@pytest.mark.parametrize("block, batch", block_and_batch(1, 40, 1 << 16))
@pytest.mark.parametrize("products", [None, (1, 2)])
@pytest.mark.parametrize("bad", store_cases())
def test_plain_store_reader_matches_the_per_row_reference(tmp_path, caplog, monkeypatch, block, batch, products, bad):
    """Only a plain store without a bad row skips the per-row reader."""
    rows = compare_store_readers(tmp_path, caplog, monkeypatch, PLAIN_STORE, (block, batch), products, bad)
    assert rows == (bad not in LOADTXT_CASES)


def fail(*args):
    raise AssertionError("called")


def test_the_benchmark_inputs_are_read_without_the_per_row_readers(tmp_path, monkeypatch):
    """A store that write_store writes, and a raw CSV that synth_generate
    writes with the store made of it, as the benchmark makes its inputs,
    take the np.loadtxt passes: a change to either writer that sends them
    to the per-row readers fails here."""
    cells = {
        (date(2017, 9, 3), 1): series([-3.0, -2.5, -1.0]),
        (date(2017, 9, 4), 2): series([-2.2, -2 / 3], b=-10.0, product=2),
    }
    path = tmp_path / "store.csv"
    write_store(cells, path)
    raw = synth_generate(model_from_name("Exp.Const"), [300.0], days=2, seed=5,
                         out_path=tmp_path / "raw.csv", products=(11, 12), gen_start=-3.25)
    expected = reference_build_series(reference_parse_csv(raw))
    monkeypatch.setattr(ingest, "_read_raw_rows", fail)
    monkeypatch.setattr(ingest, "_read_store_rows", fail)
    assert_same_series(load_store(path, {1: -9.0, 2: -10.0}), cells)
    write_store(build_series(parse_csv(raw)), path)
    assert sum(s.n for s in expected.values()) > 1000
    assert_same_series(load_store(path), expected)


@pytest.mark.parametrize("end", ["", "\r\n"])
def test_a_header_only_store_is_empty_and_warns_nothing(tmp_path, end):
    path = tmp_path / "store.csv"
    path.write_text("delivery_date,product,time_hours" + end, newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_store(path) == {} == reference_load_store(path)


@pytest.mark.parametrize("quote", ["", '"'])
def test_a_repeated_store_time_names_its_cell(tmp_path, quote):
    """On either reader: a quote sends the store to the block reader."""
    path = tmp_path / "store.csv"
    path.write_text("delivery_date,product,time_hours\n2017-09-03,12,-3.0\n"
                    f"2017-09-03,12,{quote}-3.0{quote}\n2017-09-03,12,-2.0\n")
    with pytest.raises(ParameterError) as info:
        load_store(path)
    assert str(info.value) == (
        "day 2017-09-03 product 12: arrival times must be strictly increasing, but -3.0 follows -3.0"
    )


@pytest.mark.parametrize("quote", ["", '"'])
def test_a_one_row_store_is_read(tmp_path, quote):
    """np.loadtxt gives one row as a 0-d array unless asked for at least 1-d."""
    path = tmp_path / "store.csv"
    path.write_text(f"delivery_date,product,time_hours\n2017-09-03,12,{quote}-3.0{quote}\n")
    assert_same_series(load_store(path), reference_load_store(path))
    assert list(load_store(path)) == [(date(2017, 9, 3), 12)]


def test_a_one_row_raw_csv_is_read(tmp_path, monkeypatch):
    path = write_csv(tmp_path / "a.csv", ["2017-09-30,12,2017-09-30 08:01:00"])
    assert not row_reads(monkeypatch, parse_csv, path)
    assert_same_rows(parse_csv(path), reference_parse_csv(path))


def test_a_quoted_line_break_is_not_a_row(tmp_path):
    """np.loadtxt would read the quoted field's second line as a row."""
    path = tmp_path / "store.csv"
    path.write_text('delivery_date,product,time_hours,note\n2017-09-03,1,-3.0,"a\n2017-09-03,1,-2.0,"\n')
    loaded = load_store(path)
    np.testing.assert_array_equal(loaded[(date(2017, 9, 3), 1)].arrivals, [-3.0])


def cell_rows():
    """Rows in (day, product, value) order: tied values, NaNs last in their
    cell, and a product that sorts before an earlier day's."""
    rows = [
        ("2017-09-03", 2, -3.0), ("2017-09-03", 2, -1.0), ("2017-09-03", 2, -1.0),
        ("2017-09-03", 7, -2.0), ("2017-09-03", 7, np.nan), ("2017-09-03", 7, np.nan),
        ("2017-09-04", 1, -5.0), ("2017-09-04", 1, 4.0), ("2017-09-04", 3, -6.0),
    ]
    day, product, values = zip(*rows)
    return np.array(day, "datetime64[D]"), np.array(product, np.int64), np.array(values)


def cells_of(day, product, values):
    return [(key, values.tobytes()) for key, values in ingest._cells(day, product, values)]


def test_cells_in_order_are_not_sorted_again(monkeypatch):
    ordered = cell_rows()
    shuffled = [column[np.random.default_rng(5).permutation(ordered[0].size)] for column in ordered]
    expected = cells_of(*shuffled)
    assert [key for key, _ in expected] == [
        (date(2017, 9, 3), 2), (date(2017, 9, 3), 7), (date(2017, 9, 4), 1), (date(2017, 9, 4), 3),
    ]
    monkeypatch.setattr(np, "lexsort", fail)
    assert cells_of(*ordered) == expected
    with pytest.raises(AssertionError):
        cells_of(*shuffled)


@pytest.mark.parametrize("i, j", [(0, 3), (3, 6), (3, 4), (4, 7), (7, 8), (6, 8)])
def test_two_rows_out_of_cell_order_are_sorted(i, j):
    """Swapping two rows of different days, products or values, or a NaN
    and a number, is undone."""
    ordered = cell_rows()
    rows = [column.copy() for column in ordered]
    for column in rows:
        column[[i, j]] = column[[j, i]]
    assert cells_of(*rows) == cells_of(*ordered)


def store_memory_test_file(path, n):
    """A store of ``n`` rows in 30 cells, as write_store writes it."""
    rng = np.random.default_rng(0)
    cells = {}
    for i in range(30):
        day = date(2017, 9, 3) + timedelta(days=i)
        cells[(day, 12)] = series(np.sort(rng.uniform(-19.0, -0.5, n // 30)), b=-20.0, day=day, product=12)
    write_store(cells, path)
    return path


def test_load_store_memory_stays_near_its_columns(tmp_path):
    """The tracemalloc peak of load_store on a 30k-row store stays at or
    below 55 B per row: 46 measured, the 22 of np.loadtxt's rows and the
    24 of the day, product and time columns.  The block reader took 64."""
    n = 30_000
    path = store_memory_test_file(tmp_path / "store.csv", n)
    tracemalloc.start()
    try:
        cells = load_store(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(s.n for s in cells.values()) == n
    assert peak / n <= 55


@pytest.fixture(params=["UTC", "Asia/Tokyo"])
def host_tz(request, monkeypatch):
    """The host's local timezone, set through TZ for the test's duration."""
    monkeypatch.setenv("TZ", request.param)
    time.tzset()
    yield request.param
    monkeypatch.undo()
    time.tzset()


@pytest.mark.parametrize("batch", [1, ingest._BATCH])
def test_a_nul_row_reads_alike_with_or_without_a_later_quoted_row(tmp_path, caplog, monkeypatch, batch):
    """A row with a NUL byte is kept whether or not a quoted row follows
    it, whatever the batch size, on every supported Python: csv.reader
    refuses NUL before 3.11.  The private-use characters that stand in for
    a NUL inside the reader are read as themselves, and tell rows apart."""
    monkeypatch.setattr(ingest, "_BATCH", batch)
    row = "2017-09-30,12,2017-09-30 08:01:00,"
    rows = [row + "a", row + "x\0y", row + "x\ue000\ue001y", row + "x\ue000\0y", row + "x\ue001y",
            row + "x\0y"]
    header = "delivery_date,product,timestamp,note"
    alone = write_csv(tmp_path / "alone.csv", rows, header=header)
    quoted = write_csv(tmp_path / "quoted.csv", [*rows, row + '"b,c"'], header=header)
    got_alone, log_alone, error_alone = outcome(caplog, parse_csv, alone)
    got_quoted, log_quoted, error_quoted = outcome(caplog, parse_csv, quoted)
    assert error_alone is None and error_quoted is None
    assert log_alone == log_quoted == ["dropped 1 exact duplicate rows from PATH"]
    assert got_alone.line.tolist() == [2, 3, 4, 5, 6]
    assert got_quoted.line.tolist() == [2, 3, 4, 5, 6, 8]


def test_an_offset_timestamp_needs_a_timezone(tmp_path, host_tz):
    # the delivery start has no offset without a timezone; the host's local
    # time once stood in for it (-4.98 h under UTC, +4.02 h under Asia/Tokyo)
    path = write_csv(tmp_path / "a.csv", [
        "2017-09-30,12,2017-09-30 08:00:00",
        "2017-09-30,12,2017-09-30 08:01:00+02:00",
    ])
    rows = parse_csv(path)
    with pytest.raises(RowError) as err:
        build_series(rows)
    assert err.value.line == 3
    # with a timezone, the reading does not depend on the host
    cells = build_series(rows, tz=BERLIN)
    np.testing.assert_array_equal(cells[(date(2017, 9, 30), 12)].arrivals, [-3.0, -179 / 60])
