"""CLI surface checks: each subcommand drives the library end to end."""

import json

import numpy as np
import pytest

from arrivalsim.cli import main
from arrivalsim.fitting import FittedModel
from arrivalsim.models import model_from_name


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic raw CSV plus a config file pointing at it."""
    root = tmp_path_factory.mktemp("cli")
    raw = root / "raw.csv"
    code = main([
        "synth",
        "--model", "Exp.Expon",
        "--theta", "20,5,0.8",
        "--days", "8",
        "--seed", "3",
        "--out", str(raw),
        "--products", "5,6",
        "--gen-start", "-4.25",
    ])
    assert code == 0
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({
        "input": str(raw),
        "window_days": 3,
        "out_days": 2,
        "trajectories": 15,
        "products": [5, 6],
        "models": ["Exp.Const", "Exp.Lin"],
        "tau_grid_size": 9,
        "seed": 11,
        "start_date": "2017-09-08",
        "fit": {"restarts": 1},
    }))
    return root


def test_synth_rejects_bad_model(tmp_path, capsys):
    code = main(["synth", "--model", "Nope.Const", "--theta", "1",
                 "--days", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_a_negative_seed_is_an_error(tmp_path, capsys):
    fit_path = tmp_path / "fit.json"
    FittedModel(
        spec=model_from_name("Exp.Const"), theta=np.array([10.0]), log_likelihood=None,
        window=(-3.25, -0.5),
    ).save(fit_path)
    for command in (
        ["simulate", "--fit", str(fit_path), "--anchor", "-3.3", "--t-start", "-3.25",
         "--t-end", "-0.5", "-m", "5", "--seed", "-1", "--out", str(tmp_path / "traj.csv")],
        ["synth", "--model", "Exp.Const", "--theta", "10", "--days", "2", "--seed", "-1",
         "--out", str(tmp_path / "raw.csv")],
    ):
        capsys.readouterr()
        assert main(command) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_ingest_writes_store(workspace, capsys):
    store = workspace / "store.csv"
    code = main(["ingest", "--config", str(workspace / "cfg.json"), "--out", str(store)])
    assert code == 0
    header = store.read_text().splitlines()[0]
    assert header == "delivery_date,product,time_hours"
    assert "arrivals" in capsys.readouterr().out


def test_ingest_reports_the_line_of_a_bad_store_row(tmp_path, capsys):
    store = tmp_path / "store.csv"
    store.write_text("delivery_date,product,time_hours\n2017-09-03,5,-2.0\n2017-09-03,5,abc\n")
    code = main(["ingest", "--input", str(store), "--out", str(tmp_path / "out.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: line 3: ")


def test_ingest_names_the_cell_of_a_repeated_store_time(tmp_path, capsys):
    store = tmp_path / "store.csv"
    store.write_text("delivery_date,product,time_hours\n2017-09-03,12,-3.0\n2017-09-03,12,-3.0\n"
                     "2017-09-03,12,-2.0\n")
    code = main(["ingest", "--input", str(store), "--out", str(tmp_path / "out.csv")])
    assert code == 1
    assert capsys.readouterr().err == ("error: day 2017-09-03 product 12: arrival times must be "
                                       "strictly increasing, but -3.0 follows -3.0\n")


def test_ingest_names_the_cell_of_a_failed_dejitter(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("delivery_date,product,timestamp,transaction_id\n"
                   + "".join(f"2017-09-30,12,2017-09-30 08:01:00,{i}\n" for i in range(3))
                   + "2017-09-30,12,2017-09-30 08:01:10,3\n")
    code = main(["ingest", "--input", str(raw), "--out", str(tmp_path / "out.csv")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: day 2017-09-30 product 12: dejitter spreads the 3 transactions at "
        "2017-09-30 08:01:00 past the next one at 2017-09-30 08:01:10\n"
    )
    assert not (tmp_path / "out.csv").exists()


def test_fit_simulate_score_chain(workspace, capsys):
    fit_path = workspace / "fit.json"
    code = main([
        "fit", "--config", str(workspace / "cfg.json"),
        "--date", "2017-09-08", "--product", "5",
        "--model", "Exp.Lin", "--out", str(fit_path),
    ])
    assert code == 0
    record = json.loads(fit_path.read_text())
    assert record["model"] == "Exp.Lin"
    assert record["days"] == 3

    traj_path = workspace / "traj.csv"
    code = main([
        "simulate", "--fit", str(fit_path),
        "--anchor", "-3.3", "--t-start", "-3.25", "--t-end", "-0.5",
        "-m", "40", "--seed", "5", "--out", str(traj_path),
    ])
    assert code == 0
    assert traj_path.exists()

    score_path = workspace / "score.json"
    code = main([
        "score", "--config", str(workspace / "cfg.json"),
        "--date", "2017-09-08", "--product", "5",
        "--trajectories", str(traj_path), "--out", str(score_path),
    ])
    assert code == 0
    scores = json.loads(score_path.read_text())
    assert set(scores) >= {"bias", "mae", "rmse", "crps"}
    assert scores["crps"] >= 0.0


def test_backtest_with_overrides(workspace, capsys):
    outdir = workspace / "btout"
    code = main([
        "backtest", "--config", str(workspace / "cfg.json"),
        "--outdir", str(outdir),
        "--set", "trajectories=10",
        "--set", 'models=["Exp.Const"]',
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Exp.Const" in out and "Exp.Lin" not in out
    assert (outdir / "main_table.csv").exists()


def test_backtest_aborts_on_missing_input(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": str(tmp_path / "nothere.csv")}))
    code = main(["backtest", "--config", str(cfg)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_fit_insufficient_history(workspace, capsys):
    code = main([
        "fit", "--config", str(workspace / "cfg.json"),
        "--date", "2017-09-03", "--product", "5", "--model", "Exp.Const",
    ])
    assert code == 1
    assert "insufficient" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["fit.restart", "csv.price"])
def test_unknown_section_key_is_an_error(workspace, capsys, key):
    code = main([
        "backtest", "--config", str(workspace / "cfg.json"), "--set", f"{key}=0",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "unknown config keys" in err and key in err


@pytest.mark.parametrize("command", [
    ["backtest"], ["fit", "--date", "2017-09-08", "--product", "5", "--model", "Exp.Lin"],
])
def test_a_fit_option_that_breaks_the_fit_is_an_error(workspace, capsys, command):
    code = main([
        *command, "--config", str(workspace / "cfg.json"), "--set", "fit.max_evals=0",
    ])
    assert code == 1
    assert "fit.max_evals" in capsys.readouterr().err


@pytest.mark.parametrize("setting, field", [
    ('start_date="2017-13-01"', "start_date"),
    ('timezone="Mars/Base"', "timezone"),
    ("max_gap_days=-30", "max_gap_days"),
    ("trajectories=2.5", "trajectories"),
    ('fit.restarts="2"', "fit"),
    ('t2="x"', "t2"),
    ('n_products="24"', "n_products"),
    ('trading_begin={"12": "x"}', "trading_begin"),
    ('products=["a"]', "products"),
    ("products=[5,5]", "products"),
    ("fit=null", "fit"),
    ("fit=5", "fit"),
    ('csv="x"', "csv"),
    ("models=[]", "models"),
    ("models=5", "models"),
    ('models="Exp.Const"', "models"),
    ('models=["Exp.Const","Exp.Const","Exp.Lin"]', "models"),
    ("dump_trajectories=False", "dump_trajectories"),
    ("seed", "--set"),
])
def test_a_bad_config_value_is_an_error(workspace, capsys, setting, field):
    code = main(["backtest", "--config", str(workspace / "cfg.json"), "--set", setting])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


def test_a_section_key_of_a_section_that_is_not_an_object_is_an_error(workspace, capsys):
    code = main([
        "backtest", "--config", str(workspace / "cfg.json"),
        "--set", "fit=null", "--set", "fit.restarts=1",
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: fit must be an object")


@pytest.mark.parametrize("arguments, option", [
    (["fit", "--date", "2017-13-01", "--product", "5", "--model", "Exp.Lin"], "--date"),
    (["score", "--date", "nope", "--product", "5", "--trajectories", "traj.csv"], "--date"),
    (["synth", "--theta", "1,x"], "--theta"),
    (["synth", "--start-date", "2017-02-30"], "--start-date"),
    (["synth", "--products", "0"], "products"),
    (["synth", "--products", "5,5"], "products"),
    (["synth", "--products", "5,a"], "--products"),
    (["synth", "--days", "-1"], "days"),
])
def test_a_bad_argument_is_an_error(workspace, tmp_path, capsys, arguments, option):
    if arguments[0] == "synth":
        defaults = {"--model": "Exp.Const", "--theta": "10", "--days": "2"}
        defaults.update(zip(arguments[1::2], arguments[2::2]))
        out = tmp_path / "raw.csv"
        command = ["synth", *[v for kv in defaults.items() for v in kv], "--out", str(out)]
    else:
        out = None
        command = [*arguments, "--config", str(workspace / "cfg.json")]
    code = main(command)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and option in err
    assert out is None or not out.exists()


def test_simulate_rejects_a_file_that_is_not_a_fit_record(workspace, tmp_path, capsys):
    code = main(["simulate", "--fit", str(workspace / "raw.csv"), "--anchor", "-3.3",
                 "--t-start", "-3.25", "--t-end", "-0.5", "-m", "5",
                 "--out", str(tmp_path / "traj.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: fit record is not JSON")


def test_simulate_rejects_a_record_whose_days_are_not_a_count(tmp_path, capsys):
    fit_path = tmp_path / "fit.json"
    record = json.loads(FittedModel(
        spec=model_from_name("Exp.Const"), theta=np.array([10.0]), log_likelihood=None,
        n_obs=100, days=2, window=(-3.25, -0.5),
    ).to_json())
    fit_path.write_text(json.dumps({**record, "days": "x"}))
    code = main(["simulate", "--fit", str(fit_path), "--anchor", "-3.3", "--t-start", "-3.25",
                 "--t-end", "-0.5", "-m", "5", "--out", str(tmp_path / "traj.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: fit record days must be")
    assert not (tmp_path / "traj.csv").exists()


@pytest.mark.parametrize("dump, message", [
    ("arrival_time_hours\n-3.0\n", "['trajectory_index']"),
    ("trajectory_index,time\n0,-3.0\n", "['arrival_time_hours']"),
    ("", "['trajectory_index', 'arrival_time_hours']"),
    ("trajectory_index,arrival_time_hours\n0,-3.0\nabc,-2.0\n", "line 3: "),
    ("trajectory_index,arrival_time_hours\n0,-3.0\n-1,-2.0\n", "line 3: "),
    ("trajectory_index,arrival_time_hours\n0,-3.0x\n", "line 2: "),
    ("trajectory_index,arrival_time_hours\n0,-3.0\n0,nan\n", "line 3: "),
    ("trajectory_index,arrival_time_hours\n0,inf\n", "line 2: "),
    ("trajectory_index,arrival_time_hours\n", "no trajectories"),
    ("trajectory_index,arrival_time_hours\n0,-3.0\n0,-2." + "5" * 200_000 + "\n",
     "line 3: field larger than field limit"),
], ids=["no index", "no time", "empty", "bad index", "negative index", "bad time", "nan time",
        "inf time", "no rows", "field over the csv limit"])
def test_score_rejects_a_malformed_trajectory_dump(workspace, tmp_path, capsys, dump, message):
    """Missing columns, a bad index or time, a field the csv module cannot
    read, or no rows: an error line."""
    path = tmp_path / "traj.csv"
    path.write_text(dump)
    code = main(["score", "--config", str(workspace / "cfg.json"), "--date", "2017-09-08",
                 "--product", "5", "--trajectories", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("time", ["-4.0", "-3.25", "-0.5", "-0.25"])
def test_score_rejects_a_dump_simulated_on_another_horizon(workspace, tmp_path, capsys, time):
    """An arrival at or outside the config's horizon (t1, t2) = (-3.25, -0.5),
    which the realized path never counts, is named in an error line."""
    path = tmp_path / "traj.csv"
    path.write_text(f"trajectory_index,arrival_time_hours\n0,-3.0\n1,-2.0\n1,{time}\n2,\n")
    code = main(["score", "--config", str(workspace / "cfg.json"), "--date", "2017-09-08",
                 "--product", "5", "--trajectories", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} holds an arrival at {float(time)!r} hours, outside")
