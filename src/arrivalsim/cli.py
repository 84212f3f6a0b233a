"""Command-line entry points.

Subcommands mirror the pipeline stages: ``ingest`` normalizes a raw CSV
into an arrival store, ``fit`` estimates one model for one cell, ``simulate``
draws trajectories from a persisted fit, ``score`` evaluates a trajectory
dump against the realized path, ``backtest`` runs the full rolling study
and ``synth`` writes synthetic data from a known model.

The process exits nonzero only when a command aborts.  Inside a backtest,
a cell without a training sample or an observed day is counted in
``missing_cells.csv``, as is a model with too few observations for its
parameters; a model whose optimizer raises keeps a ``fallback`` fit
record; any other exception aborts the run.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import date
from pathlib import Path

import numpy as np

from . import backtest as bt
from .errors import ArrivalSimError, ParameterError
from .fitting import FittedModel, fit_cascade
from .ingest import write_store
from .models import model_from_name
from .scoring import default_tau_grid, minute_grid, score_cell
from .simulate import read_trajectories, simulate_set, write_trajectories
from .synth import synth_generate

__all__ = ["main"]


def _load_config(args) -> bt.RunConfig:
    if args.config:
        config = bt.RunConfig.from_json(args.config)
    else:
        config = bt.RunConfig(input=getattr(args, "input", "") or "")
    overrides = {}
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ParameterError(f"--set takes key=value, got {item!r}")
        overrides[key] = value
    if getattr(args, "input", None):
        overrides.setdefault("input", json.dumps(args.input))
    if getattr(args, "outdir", None):
        overrides.setdefault("outdir", json.dumps(args.outdir))
    if overrides:
        config = config.with_overrides(overrides)
    config.validate()
    return config


def _iso_date(text: str, option: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError as exc:
        raise ParameterError(f"{option} must be an ISO date, got {text!r}") from exc


def _number_list(text: str, option: str, kind=float) -> list:
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError as exc:
        raise ParameterError(f"{option} must be comma-separated numbers, got {text!r}") from exc


def _cmd_ingest(args) -> int:
    series = bt.load_input(_load_config(args))
    write_store(series, args.out)
    print(f"wrote {sum(v.n for v in series.values())} arrivals "
          f"({len(series)} cells) to {args.out}")
    return 0


def _cmd_fit(args) -> int:
    config = _load_config(args)
    series = bt.load_input(config)
    day = _iso_date(args.date, "--date")
    sample = bt.training_sample(config, series, day, args.product)
    if sample is None or sample.empty:
        print(f"insufficient history before {day} for product {args.product}",
              file=sys.stderr)
        return 1
    fitted = fit_cascade([model_from_name(args.model)], sample, config.fit)
    record = fitted.get(args.model)
    if record is None:
        print(f"too few observations to fit {args.model}", file=sys.stderr)
        return 1
    if args.out:
        record.save(args.out)
    print(record.to_json())
    return 0


def _cmd_simulate(args) -> int:
    record = FittedModel.load(args.fit)
    ts = simulate_set(record, args.anchor, args.t_start, args.t_end, args.m, args.seed)
    write_trajectories(ts, args.out)
    print(f"wrote {args.m} trajectories (mean count {np.mean(ts.lengths):.2f}) to {args.out}")
    return 0


def _cmd_score(args) -> int:
    config = _load_config(args)
    series = bt.load_input(config)
    day = _iso_date(args.date, "--date")
    observed = series.get((day, args.product))
    if observed is None:
        print(f"no observed data for {day} product {args.product}", file=sys.stderr)
        return 1
    grid = minute_grid(config.t1, config.t2)
    obs_counts = bt.observed_counts(observed.arrivals, config.t1, config.t2)
    dump = read_trajectories(args.trajectories)
    outside = dump.arrivals[(dump.arrivals <= config.t1) | (dump.arrivals >= config.t2)]
    if outside.size:
        raise ParameterError(
            f"{args.trajectories} holds an arrival at {float(outside[0])!r} hours, outside the "
            f"horizon ({config.t1}, {config.t2}): simulate on that horizon"
        )
    taus = default_tau_grid(config.tau_grid_size)
    scores = score_cell(obs_counts, dump.counts(grid), taus)
    payload = {
        "date": args.date,
        "product": args.product,
        "bias": scores.bias,
        "mae": scores.mae,
        "rmse": scores.rmse,
        "crps": scores.crps,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text)
    print(text)
    return 0


def _cmd_backtest(args) -> int:
    config = _load_config(args)
    report = bt.run(config)
    for i, model in enumerate(report.models):
        print(
            f"{model}: bias={report.aggregate('bias')[i]:.3f} "
            f"mae={report.aggregate('mae')[i]:.3f} "
            f"rmse={report.aggregate('rmse')[i]:.3f} "
            f"crps={report.aggregate('crps')[i]:.3f}"
        )
    if config.outdir:
        print(f"report CSVs written to {config.outdir}")
    return 0


def _cmd_synth(args) -> int:
    spec = model_from_name(args.model)
    path = synth_generate(
        spec,
        _number_list(args.theta, "--theta"),
        args.days,
        args.seed,
        args.out,
        products=tuple(_number_list(args.products, "--products", int)),
        start_date=_iso_date(args.start_date, "--start-date"),
        gen_start=args.gen_start,
        gen_end=args.gen_end,
    )
    print(f"wrote synthetic data to {path}")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrivalsim",
        description="transaction arrival process estimation, simulation and scoring",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, input_arg=True):
        p.add_argument("--config", help="run config JSON file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry (JSON-parsed value)")
        if input_arg:
            p.add_argument("--input", help="input CSV (raw or normalized store)")

    p = sub.add_parser("ingest", help="normalize a raw transaction CSV")
    common(p)
    p.add_argument("--out", required=True, help="normalized arrival store path")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("fit", help="fit one model for one (day, product) window")
    common(p)
    p.add_argument("--date", required=True, help="forecast day (ISO); fits on the window before it")
    p.add_argument("--product", required=True, type=int)
    p.add_argument("--model", required=True)
    p.add_argument("--out", help="write the fit record JSON here")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("simulate", help="simulate trajectories from a fit record")
    p.add_argument("--fit", required=True, help="fit record JSON")
    p.add_argument("--anchor", required=True, type=float)
    p.add_argument("--t-start", required=True, type=float, dest="t_start")
    p.add_argument("--t-end", required=True, type=float, dest="t_end")
    p.add_argument("-m", type=int, default=1000, help="number of trajectories")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="trajectory dump CSV")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("score", help="score a trajectory dump against observed data")
    common(p)
    p.add_argument("--date", required=True)
    p.add_argument("--product", required=True, type=int)
    p.add_argument("--trajectories", required=True, help="trajectory dump CSV")
    p.add_argument("--out", help="write the score row JSON here")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("backtest", help="run the rolling-window study")
    common(p)
    p.add_argument("--outdir", help="output directory (overrides config)")
    p.set_defaults(func=_cmd_backtest)

    p = sub.add_parser("synth", help="generate synthetic transactions")
    p.add_argument("--model", required=True)
    p.add_argument("--theta", required=True, help="comma-separated parameter vector")
    p.add_argument("--days", required=True, type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--products", default="12", help="comma-separated product list")
    p.add_argument("--start-date", default="2017-09-03", dest="start_date")
    p.add_argument("--gen-start", type=float, default=None, dest="gen_start",
                   help="generation window start (default: trading begin)")
    p.add_argument("--gen-end", type=float, default=-0.5, dest="gen_end")
    p.set_defaults(func=_cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ArrivalSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
