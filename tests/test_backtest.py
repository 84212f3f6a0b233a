"""Study orchestration checks: determinism, resumability, persistence."""

import concurrent.futures
import functools
import json
import math
import multiprocessing
import weakref
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from arrivalsim import backtest
from arrivalsim.backtest import (
    RunConfig,
    cell_seed,
    load_input,
    run,
    training_sample,
)
from arrivalsim.errors import ParameterError
from arrivalsim.fitting import FitOptions, FittedModel, fit_cascade
from arrivalsim.ingest import build_series, parse_csv, slice_window
from arrivalsim.models import model_from_name
from arrivalsim.synth import synth_generate


def tiny_config(input_path, outdir, **kw):
    defaults = dict(
        input=str(input_path),
        outdir=None if outdir is None else str(outdir),
        window_days=3,
        out_days=2,
        trajectories=20,
        products=(5, 6),
        models=("Exp.Const", "Exp.Lin"),
        tau_grid_size=9,
        seed=11,
        start_date="2017-09-08",
        fit=FitOptions(restarts=1),
    )
    defaults.update(kw)
    return RunConfig(**defaults)


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "raw.csv"
    synth_generate(
        model_from_name("Exp.Expon"),
        [20.0, 5.0, 0.8],
        days=10,
        seed=3,
        out_path=path,
        products=(5, 6),
        gen_start=-4.25,
    )
    return path


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestSynth:
    def test_poisson_total_count(self, tmp_path):
        """Homogeneous rate 300/h over 2.75 h and 28 days."""
        path = synth_generate(
            model_from_name("Exp.Const"),
            [300.0],
            days=28,
            seed=5,
            out_path=tmp_path / "poisson.csv",
            products=(12,),
            gen_start=-3.25,
        )
        n = len(path.read_text().splitlines()) - 1
        expect = 300.0 * 2.75 * 28
        assert abs(n - expect) < 3.0 * math.sqrt(expect)

    def test_zero_days_writes_header_only(self, tmp_path):
        path = synth_generate(
            model_from_name("Exp.Const"), [10.0], days=0, seed=0,
            out_path=tmp_path / "empty.csv",
        )
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("delivery_date,product,timestamp")

    def test_refit_recovers_rate(self, tmp_path):
        from arrivalsim.fitting import fit
        from arrivalsim.ingest import merge_samples

        path = synth_generate(
            model_from_name("Exp.Const"), [120.0], days=6, seed=9,
            out_path=tmp_path / "r.csv", products=(12,), gen_start=-4.25,
        )
        cells = build_series(parse_csv(path))
        samples = [slice_window(s, -3.25) for s in cells.values()]
        result = fit(model_from_name("Exp.Const"), merge_samples(samples))
        assert result.theta[0] == pytest.approx(120.0, rel=0.05)

    def test_infeasible_theta_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            synth_generate(
                model_from_name("Exp.Lin"), [1.0, 1.0], days=1, seed=0,
                out_path=tmp_path / "x.csv", gen_start=-4.25,
            )

    @pytest.mark.parametrize("name, theta, gen_start, rows, hours", [
        ("GenF.Lin.Const", [60.0, -5.0, 1.0, 0.5, 1.0], None, 2601, -30843.069868942497),
        ("GenF.Const.Const", [80.0, 1.0, 0.5, 1.0], None, 1921, -19657.82749543417),
        ("Exp.Expon", [20.0, 5.0, 1.0], -4.25, 345, -662.0547623588889),
    ])
    def test_the_benchmark_models_draw_the_pinned_transactions(
        self, tmp_path, name, theta, gen_start, rows, hours
    ):
        """The data-generating models of the benchmark workloads, at 2 days
        of product 12: a change to a sampler's stream layout or to the
        simulator's blocks that would move the benchmark inputs fails
        here."""
        path = synth_generate(
            model_from_name(name), theta, days=2, seed=0, out_path=tmp_path / "raw.csv",
            products=(12,), gen_start=gen_start,
        )
        assert len(path.read_text().splitlines()) - 1 == rows
        series = build_series(parse_csv(path))
        assert sum(float(s.arrivals.sum()) for s in series.values()) == pytest.approx(
            hours, rel=1e-9)

    def test_deterministic(self, tmp_path):
        kw = dict(days=2, seed=4, products=(5,), gen_start=-2.0)
        a = synth_generate(model_from_name("Exp.Const"), [50.0],
                           out_path=tmp_path / "a.csv", **kw)
        b = synth_generate(model_from_name("Exp.Const"), [50.0],
                           out_path=tmp_path / "b.csv", **kw)
        assert a.read_bytes() == b.read_bytes()


class TestRunConfig:
    def test_json_roundtrip_and_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "input": "raw.csv",
            "window_days": 5,
            "models": ["Exp.Const"],
            "products": [1, 2],
            "trading_begin": {"1": -9.0, "2": -10.0},
            "fit": {"restarts": 1},
        }))
        cfg = RunConfig.from_json(cfg_path)
        assert cfg.window_days == 5
        assert cfg.trading_begin == {1: -9.0, 2: -10.0}
        assert cfg.fit.restarts == 1
        over = cfg.with_overrides({"seed": "7", "models": '["Exp.Lin"]',
                                   "fit.restarts": "2"})
        assert over.seed == 7
        assert over.models == ("Exp.Lin",)
        assert over.fit.restarts == 2

    def test_retired_fit_options_are_ignored_with_one_warning(self, caplog):
        with caplog.at_level("WARNING", logger="arrivalsim.backtest"):
            cfg = RunConfig.from_dict({"input": "x.csv", "fit": {"polish": False, "x_tol": 1e-5}})
        assert cfg.fit == FitOptions()
        assert [r.getMessage() for r in caplog.records] == [
            "ignoring the retired fit options ['polish', 'x_tol']"]
        caplog.clear()
        with caplog.at_level("WARNING", logger="arrivalsim.backtest"):
            over = cfg.with_overrides({"fit.polish": "false"})
        assert over == cfg
        assert [r.getMessage() for r in caplog.records] == [
            "ignoring the retired fit options ['polish']"]
        with pytest.raises(ParameterError, match=r"fit\.x_toll"):
            RunConfig.from_dict({"input": "x.csv", "fit": {"x_toll": 1e-5}})

    def test_models_all(self):
        cfg = RunConfig.from_dict({"input": "x.csv", "models": "all"})
        assert len(cfg.models) == 37

    def test_unknown_key_rejected(self):
        with pytest.raises(ParameterError):
            RunConfig.from_dict({"input": "x.csv", "bogus": 1})

    def test_validation(self):
        with pytest.raises(ParameterError):
            tiny_config("x.csv", None, out_days=0).validate()
        with pytest.raises(ParameterError):
            tiny_config("x.csv", None, t1=-20.0).validate()  # before trading begin
        with pytest.raises(ParameterError):
            tiny_config("x.csv", None, models=("Nope.Const",)).validate()
        with pytest.raises(ParameterError, match="trading_begin"):
            tiny_config("x.csv", None, trading_begin={5: -13.0}).validate()  # no product 6

    @pytest.mark.parametrize("seed", [1.0, True, "x", -3, None])
    def test_seed_must_be_an_integer_at_least_0(self, seed):
        # ``cell_seed`` hashes the seed's text, so 1.0 would draw other streams than 1
        with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
            tiny_config("x.csv", None, seed=seed).validate()
        tiny_config("x.csv", None, seed=0).validate()

    def test_cell_seed_stable(self):
        a = cell_seed(1, "Exp.Const", date(2017, 10, 1), 12)
        assert a == cell_seed(1, "Exp.Const", date(2017, 10, 1), 12)
        assert a != cell_seed(2, "Exp.Const", date(2017, 10, 1), 12)
        assert a != cell_seed(1, "Exp.Lin", date(2017, 10, 1), 12)


class TestRun:
    def test_minimal_run(self, tmp_path):
        path = synth_generate(
            model_from_name("Exp.Const"), [60.0], days=2, seed=1,
            out_path=tmp_path / "two.csv", products=(5,), gen_start=-4.25,
        )
        cfg = tiny_config(
            path, tmp_path / "out", window_days=1, out_days=1, trajectories=1,
            products=(5,), models=("Exp.Const",), start_date="2017-09-04",
            dump_trajectories=True,
        )
        report = run(cfg)
        assert report.missing.sum() == 0
        assert report.crps.shape == (1, 1)
        fit_file = tmp_path / "out" / "Exp.Const" / "5" / "2017-09-04" / "fit.json"
        assert fit_file.exists()
        dump = fit_file.parent / "trajectories.csv"
        assert dump.exists()
        indices = {
            line.split(",")[0] for line in dump.read_text().splitlines()[1:]
        }
        assert indices == {"0"}  # exactly one trajectory

    def test_rerun_byte_identical(self, synth_csv, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(tiny_config(synth_csv, out_a))
        run(tiny_config(synth_csv, out_b))
        assert tree_bytes(out_a) == tree_bytes(out_b)

    def test_parallelism_invariant(self, synth_csv, tmp_path):
        out_a, out_b = tmp_path / "p1", tmp_path / "p4"
        run(tiny_config(synth_csv, out_a, parallelism=1))
        run(tiny_config(synth_csv, out_b, parallelism=4))
        assert tree_bytes(out_a) == tree_bytes(out_b)

    def test_parallelism_invariant_with_skipped_cells(self, synth_csv, tmp_path):
        """Product 7 has no data, so each of its cells lacks history, and
        2017-09-13 is past the data, so its cells lack an observed day; the
        cells are skipped in the workers as they are in a serial run."""
        out_a, out_b = tmp_path / "p1", tmp_path / "p2"
        kw = dict(products=(5, 6, 7), start_date="2017-09-11", out_days=3)
        report = run(tiny_config(synth_csv, out_a, parallelism=1, **kw))
        run(tiny_config(synth_csv, out_b, parallelism=2, **kw))
        assert report.missing.tolist() == [[1, 1, 3], [1, 1, 3]]
        assert tree_bytes(out_a) == tree_bytes(out_b)

    @pytest.mark.parametrize("parallelism", [1, 2, 4])
    def test_cells_simulated_together_give_the_outputs_of_one_cell_at_a_time(
        self, synth_csv, tmp_path, monkeypatch, parallelism
    ):
        """Report CSVs and trajectory dumps of a study whose cells share
        locksteps equal those of one cell at a time, with skipped cells
        among them, at any parallelism.  A Gamma model's first gap depends
        on its cell's anchor, which an Exp model's barely does."""
        kw = dict(products=(5, 6, 7), start_date="2017-09-11", out_days=3, dump_trajectories=True,
                  models=("Exp.Const", "Exp.Lin", "Gamma.Const.Const"))
        cfg = tiny_config(synth_csv, tmp_path / "grouped", parallelism=parallelism, **kw)
        assert backtest.cells_per_group(map(model_from_name, cfg.models), cfg.trajectories) >= 9
        run(cfg)
        with monkeypatch.context() as patch:
            patch.setattr(backtest, "cells_per_group", lambda specs, m: 1)
            run(tiny_config(synth_csv, tmp_path / "alone", **kw))
        grouped, alone = tree_bytes(tmp_path / "grouped"), tree_bytes(tmp_path / "alone")
        assert sum(name.endswith("trajectories.csv") for name in alone) == 12
        assert grouped == alone

    def test_parallelism_invariant_under_forkserver(self, synth_csv, tmp_path, monkeypatch):
        """Workers started by a forkserver, the default start method on
        Linux from Python 3.14: the group task, its initializer and the
        study they receive pickle."""
        out_a, out_b = tmp_path / "p1", tmp_path / "p2"
        run(tiny_config(synth_csv, out_a, parallelism=1))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
            concurrent.futures.ProcessPoolExecutor,
            mp_context=multiprocessing.get_context("forkserver"),
        ))
        run(tiny_config(synth_csv, out_b, parallelism=2))
        assert tree_bytes(out_a) == tree_bytes(out_b)

    def test_run_calls_the_functions_the_benchmark_traces_by_module_name(
        self, synth_csv, tmp_path, monkeypatch
    ):
        """perfbench/sample.py times each layer by replacing these names in
        ``arrivalsim.backtest``: a call that moves elsewhere would read 0."""
        names = ("load_input", "parse_csv", "build_series", "slice_window", "merge_samples",
                 "fit_cascade", "score_cell", "product_criteria", "write_report_csvs")
        called = set()

        def counted(name, fn, *args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)

        for name in names:
            monkeypatch.setattr(backtest, name, functools.partial(
                counted, name, getattr(backtest, name)
            ))
        run(tiny_config(synth_csv, tmp_path / "out"))
        assert called == set(names)
        assert callable(backtest.simulate_set)

    def test_a_serial_run_holds_one_training_sample_at_a_time(self, synth_csv, monkeypatch):
        samples = []

        def tracked_sample(*args):
            sample = training_sample(*args)
            samples.append(weakref.ref(sample))
            return sample

        def checked_cascade(*args, **kwargs):
            assert sum(ref() is not None for ref in samples) <= 1
            return fit_cascade(*args, **kwargs)

        monkeypatch.setattr("arrivalsim.backtest.training_sample", tracked_sample)
        monkeypatch.setattr("arrivalsim.backtest.fit_cascade", checked_cascade)
        report = run(tiny_config(synth_csv, None, out_days=4))
        assert len(samples) == 8 and report.missing.sum() == 0

    def test_resumable_without_refitting(self, synth_csv, tmp_path):
        out = tmp_path / "out"
        cfg = tiny_config(synth_csv, out)
        run(cfg)
        before = tree_bytes(out)
        fit_stats = {p: p.stat().st_mtime_ns for p in out.rglob("fit.json")}
        assert fit_stats
        for report_csv in out.glob("*.csv"):
            report_csv.unlink()
        run(cfg)
        assert tree_bytes(out) == before
        for p, mtime in fit_stats.items():
            assert p.stat().st_mtime_ns == mtime  # loaded, not refit

    def test_resume_refits_records_of_another_window(self, synth_csv, tmp_path, caplog):
        """Rerun in the same outdir with a longer window: every record of the
        3-day study is refitted on the 4-day sample, with one warning each,
        and the study equals a fresh 4-day one."""
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        run(tiny_config(synth_csv, out, window_days=3))
        with caplog.at_level("WARNING"):
            run(tiny_config(synth_csv, out, window_days=4))
        run(tiny_config(synth_csv, fresh, window_days=4))
        records = sorted(out.rglob("fit.json"))
        assert len(records) == 8
        assert all(json.loads(p.read_text())["days"] == 4 for p in records)
        assert sum("refitting" in r.getMessage() for r in caplog.records) == 8
        assert tree_bytes(out) == tree_bytes(fresh)

    def test_resume_refits_a_truncated_record(self, synth_csv, tmp_path, caplog):
        """A fit.json cut in half, as a study killed mid-write could leave
        it, is refitted with one warning and overwritten; the rerun equals
        the first run."""
        out = tmp_path / "out"
        cfg = tiny_config(synth_csv, out)
        run(cfg)
        before = tree_bytes(out)
        record = sorted(out.rglob("fit.json"))[0]
        record.write_text(record.read_text()[:60])
        with caplog.at_level("WARNING"):
            run(cfg)
        refits = [r.getMessage() for r in caplog.records if "refitting" in r.getMessage()]
        assert len(refits) == 1 and str(record) in refits[0]
        assert tree_bytes(out) == before

    @pytest.mark.parametrize("edit", [
        lambda record: [],
        lambda record: {**record, "window": None},
        lambda record: {**record, "theta": record["theta"] * 2},
        lambda record: {**record, "days": "x"},
    ])
    def test_resume_refits_a_record_that_does_not_hold(self, synth_csv, tmp_path, caplog, edit):
        """A fit.json that is not an object, whose window or theta is not
        what its model needs, or whose day count is not a count, is
        refitted with one warning."""
        out = tmp_path / "out"
        cfg = tiny_config(synth_csv, out)
        run(cfg)
        before = tree_bytes(out)
        record = sorted(out.rglob("fit.json"))[0]
        assert record.parent.parent.parent.name == "Exp.Const"
        record.write_text(json.dumps(edit(json.loads(record.read_text()))))
        with caplog.at_level("WARNING"):
            run(cfg)
        refits = [r.getMessage() for r in caplog.records if "refitting" in r.getMessage()]
        assert len(refits) == 1 and str(record) in refits[0]
        assert tree_bytes(out) == before

    def test_a_failed_record_write_keeps_the_old_record(self, tmp_path, monkeypatch):
        path = tmp_path / "fit.json"
        old = FittedModel(model_from_name("Exp.Const"), [2.0], -1.0, n_obs=10, days=1)
        old.save(path)
        text = path.read_text()

        def interrupted(*args):
            raise OSError("interrupted before the replace")

        monkeypatch.setattr("os.replace", interrupted)
        with pytest.raises(OSError):
            FittedModel(model_from_name("Exp.Const"), [3.0], -2.0, n_obs=10, days=1).save(path)
        assert path.read_text() == text

    def test_infeasible_parameters_at_an_event_do_not_abort_the_run(
        self, synth_csv, tmp_path, caplog
    ):
        """A fit record whose rate 4t^2 + 16t + 15 turns negative inside the
        horizon ends the affected trajectories; every cell is still scored."""
        out = tmp_path / "out"
        model = "GenF.Quadr.Const"
        cfg = tiny_config(synth_csv, out, models=(model,))
        series = load_input(cfg)
        for product in (5, 6):
            for day in ("2017-09-08", "2017-09-09"):
                sample = training_sample(cfg, series, date.fromisoformat(day), product)
                record = FittedModel(
                    spec=model_from_name(model),
                    theta=[15.0, 16.0, 4.0, 1.0, 0.5, 1.0],
                    log_likelihood=None,
                    n_obs=sample.n,
                    days=sample.days,
                    window=(sample.window_start, sample.window_end),
                )
                record.save(out / model / str(product) / day / "fit.json")
        with caplog.at_level("WARNING"):
            report = run(cfg)
        assert report.missing.sum() == 0
        assert np.isfinite(report.crps).all()
        assert "parameters infeasible at t=" in caplog.text

    def test_split_products_reproduce_the_single_run(self, synth_csv, tmp_path):
        full = run(tiny_config(synth_csv, None))
        assert full.products == [5, 6]
        for j, product in enumerate(full.products):
            part = run(tiny_config(synth_csv, None, products=(product,)))
            assert part.products == [product]
            np.testing.assert_array_equal(part.crps[:, 0], full.crps[:, j])
            np.testing.assert_array_equal(part.daily_crps[:, :, 0], full.daily_crps[:, :, j])

    def test_emitted_table_satisfies_pinball_identity(self, synth_csv, tmp_path):
        out = tmp_path / "out"
        cfg = tiny_config(synth_csv, out, tau_grid_size=9)
        run(cfg)
        main = (out / "main_table.csv").read_text().splitlines()
        pb = (out / "pb_by_tau.csv").read_text().splitlines()
        mae = {
            row.split(",")[0]: float(row.split(",")[2]) for row in main[1:]
        }
        header = pb[0].split(",")
        mid = [row for row in pb[1:] if float(row.split(",")[0]) == 0.5][0].split(",")
        for i, model in enumerate(header[1:], start=1):
            assert 2.0 * float(mid[i]) == pytest.approx(mae[model], abs=1e-9)

    def test_insufficient_history_marks_missing(self, synth_csv, tmp_path):
        cfg = tiny_config(
            synth_csv, None, window_days=5, start_date="2017-09-04", out_days=1,
            max_gap_days=0,
        )
        report = run(cfg)
        assert report.missing.sum() == report.missing.size  # every cell skipped
        assert np.isnan(report.crps).all()

    def test_missing_observed_day_skipped(self, synth_csv, tmp_path):
        cfg = tiny_config(synth_csv, None, start_date="2017-09-14", out_days=1)
        report = run(cfg)
        assert report.missing.sum() == report.missing.size


def test_store_input_keeps_only_configured_products(tmp_path):
    """A store may hold more products than the study analyzes."""
    store = tmp_path / "store.csv"
    store.write_text(
        "delivery_date,product,time_hours\n2017-09-03,5,-2.0\n2017-09-03,6,-2.0\n"
    )
    series = load_input(tiny_config(store, None, products=(5,)))
    assert list(series) == [(date(2017, 9, 3), 5)]
    # trading bounds need only list the analyzed products
    series = load_input(tiny_config(store, None, products=(5,), trading_begin={5: -13.0}))
    assert list(series) == [(date(2017, 9, 3), 5)]


@pytest.mark.parametrize("extra", ["lead_time_hours", "time_hours_note"])
def test_a_raw_csv_whose_header_names_time_hours_in_another_column_is_raw(tmp_path, extra):
    raw = tmp_path / "raw.csv"
    raw.write_text(f"delivery_date,product,timestamp,{extra}\n2017-09-03,5,2017-09-03 01:00:00,3.0\n")
    series = load_input(tiny_config(raw, None, products=(5,)))
    np.testing.assert_array_equal(series[(date(2017, 9, 3), 5)].arrivals, [-3.0])


def test_a_store_is_recognized_by_its_three_columns_in_any_order(tmp_path):
    store = tmp_path / "store.csv"
    store.write_text('note,"time_hours",product,delivery_date\nx,-2.0,5,2017-09-03\n')
    series = load_input(tiny_config(store, None, products=(5,)))
    np.testing.assert_array_equal(series[(date(2017, 9, 3), 5)].arrivals, [-2.0])
