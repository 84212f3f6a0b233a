"""Ingestion checks: parsing, dejitter, delivery-relative time, slicing."""

from datetime import date, datetime, timedelta, timezone
from zoneinfo import ZoneInfo

import numpy as np
import pytest

from arrivalsim.errors import DomainError, ParameterError, RowError, SchemaError
from arrivalsim.ingest import (
    ArrivalSeries,
    CsvSchema,
    RawTransaction,
    build_series,
    dejitter_us,
    delivery_start,
    load_store,
    merge_samples,
    parse_csv,
    slice_window,
    write_store,
)

BERLIN = ZoneInfo("Europe/Berlin")
SECOND = 1_000_000  # microseconds


def hours_to_delivery(timestamp, day, product, tz=None):
    """Delivery-relative hours of one transaction, with no trading bounds in the way."""
    cells = build_series(
        [RawTransaction(day, product, timestamp)], {product: -100.0}, {product: 100.0}, tz
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
        assert rows[0].product == 12
        assert rows[0].timestamp == datetime(2017, 9, 30, 8, 1)

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
        assert all(r.timestamp == datetime(2017, 9, 30, 16, 1) for r in rows)

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
        assert rows[0].delivery_date == date(2017, 9, 30)


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
        tx = RawTransaction(date(2018, 3, 25), 3, datetime(2018, 3, 24, 15, 0))
        assert build_series([tx], tz=BERLIN) == {}

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
        cells = build_series([RawTransaction(day, 6, ts) for ts in times], tz=BERLIN)
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
        txs = [
            RawTransaction(date(2018, 3, 25), 3, datetime(2018, 3, 25, 1, 0)),
            RawTransaction(date(2018, 3, 25), 6, datetime(2018, 3, 25, 1, 0)),
        ]
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
