"""Rolling-window forecasting study: fit, simulate and score day by day.

For every out-of-sample day and product, each configured model is fitted
on the sample pooled over the most recent window of days with data, a set
of trajectories is simulated over the forecast horizon anchored at the
last transaction before it, and the realized counting path is scored.
Per-cell work is independent, seeded from (master seed, model, day,
product), and persisted fit records are reloaded on rerun, so a study is
resumable and bitwise reproducible at any parallelism degree.  A cell
builds its training sample when it runs, and pool workers receive the
config, the series and the tau grid once, so a cell's ``skipping ...``
warning comes from the process that runs the cell.
"""

from __future__ import annotations

import concurrent.futures
import csv
import dataclasses
import hashlib
import json
import logging
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

import numpy as np

from .errors import ParameterError
from .fitting import FitOptions, FittedModel, fit_cascade
from .ingest import (
    ArrivalSeries,
    CsvSchema,
    InterArrivalSample,
    build_series,
    load_store,
    merge_samples,
    parse_csv,
    slice_window,
    trading_bounds,
)
from .models import enumerate_models, model_from_name
from .scoring import (
    CellScores,
    ScoreReport,
    default_tau_grid,
    minute_grid,
    product_criteria,
    score_cell,
)
from .simulate import (
    counts_on_grid,
    pick_anchor,
    simulate_set,
    simulate_sets,
    write_trajectories,
)

__all__ = [
    # re-exported: perfbench/sample.py resolves backtest.simulate_set by name
    "simulate_set",
    "RunConfig",
    "run",
    "load_input",
    "training_sample",
    "observed_counts",
    "write_report_csvs",
    "cell_seed",
]

logger = logging.getLogger(__name__)

ALL_MODEL_NAMES = tuple(spec.name for spec in enumerate_models())


@dataclass(frozen=True)
class RunConfig:
    """Declarative study configuration (see README for the JSON schema)."""

    input: str
    outdir: str | None = None
    window_days: int = 28
    out_days: int = 365
    trajectories: int = 1000
    products: tuple[int, ...] = tuple(range(1, 25))
    n_products: int = 24  # market size; analyzed products may be a subset
    t1: float = -3.25
    t2: float = -0.5
    models: tuple[str, ...] = ALL_MODEL_NAMES
    tau_grid_size: int = 99
    seed: int = 0
    timezone: str | None = None
    trading_begin: dict[int, float] | None = None
    trading_end: dict[int, float] | None = None
    start_date: str | None = None
    parallelism: int = 1
    dump_trajectories: bool = False
    max_gap_days: int = 10
    fit: FitOptions = field(default_factory=FitOptions)
    csv: CsvSchema = field(default_factory=CsvSchema)

    def validate(self) -> None:
        for name, low in (("window_days", 1), ("out_days", 1), ("trajectories", 1),
                          ("parallelism", 1), ("tau_grid_size", 1), ("max_gap_days", 0),
                          ("n_products", 1)):
            value = getattr(self, name)
            if not _is_int(value) or value < low:
                raise ParameterError(f"{name} must be an integer >= {low}, got {value!r}")
        for name in ("t1", "t2"):
            if not _is_real(getattr(self, name)):
                raise ParameterError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not isinstance(self.dump_trajectories, bool):
            raise ParameterError(
                f"dump_trajectories must be true or false, got {self.dump_trajectories!r}"
            )
        for name, section_cls in (("fit", FitOptions), ("csv", CsvSchema)):
            if not isinstance(getattr(self, name), section_cls):
                raise ParameterError(f"{name} must be an object, got {getattr(self, name)!r}")
        if self.start_date is not None:
            try:
                date.fromisoformat(self.start_date)
            except (TypeError, ValueError):
                raise ParameterError(f"not an ISO start_date: {self.start_date!r}") from None
        if self.timezone:
            try:
                ZoneInfo(self.timezone)
            except (ZoneInfoNotFoundError, ValueError):
                raise ParameterError(f"unknown timezone {self.timezone!r}") from None
        products = self.products if isinstance(self.products, (list, tuple)) else ()
        if (not products or any(not _is_int(s) or not 1 <= s <= self.n_products for s in products)
                or len(set(products)) < len(products)):
            raise ParameterError(f"products must be a nonempty list of distinct integers in "
                                 f"1..{self.n_products}, got {self.products!r}")
        for key in ("trading_begin", "trading_end"):
            bounds = getattr(self, key)
            if bounds is not None and not (
                isinstance(bounds, dict) and set(products) <= set(bounds)
                and all(map(_is_real, bounds.values()))
            ):
                raise ParameterError(f"{key} must map every product in products to a number")
        for s in self.products:
            begin, end = trading_bounds(s, self.trading_begin, self.trading_end)
            if not begin < self.t1 < self.t2 <= end:
                raise ParameterError(
                    f"product {s}: need begin < t1 < t2 <= end, got "
                    f"{begin} < {self.t1} < {self.t2} <= {end}"
                )
        models = self.models if isinstance(self.models, (list, tuple)) else ()
        if (not models or any(not isinstance(name, str) for name in models)
                or len(set(models)) < len(models)):
            raise ParameterError(f'models must be "all" or a nonempty list of distinct model '
                                 f'names, got {self.models!r}')
        for name in models:
            model_from_name(name)
        minute_grid(self.t1, self.t2)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        data = dict(data)
        if data.get("models") in ("all", None):
            data["models"] = ALL_MODEL_NAMES
        elif isinstance(data["models"], list):
            data["models"] = tuple(data["models"])
        if isinstance(data.get("products"), list):
            data["products"] = tuple(data["products"])
        for key in ("trading_begin", "trading_end"):
            bounds = data.get(key)
            if isinstance(bounds, dict):
                try:  # JSON keys are strings; validate() checks the values
                    data[key] = {int(k): float(v) if _is_real(v) else v
                                 for k, v in bounds.items()}
                except ValueError:
                    raise ParameterError(f"{key} must map products to numbers") from None
        for section, section_cls in (("fit", FitOptions), ("csv", CsvSchema)):
            if isinstance(data.get(section), dict):
                data[section] = _from_fields(section_cls, data[section], f"{section}.")
        return _from_fields(cls, data)

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def with_overrides(self, overrides: dict[str, str]) -> "RunConfig":
        """Apply ``key=value`` overrides; values are parsed as JSON when possible."""
        data = dataclasses.asdict(self)
        for key, raw in overrides.items():
            try:
                value = json.loads(raw)
            except json.JSONDecodeError:
                value = raw
            section, _, leaf = key.partition(".")
            if leaf:
                if section not in ("fit", "csv"):
                    raise ParameterError(f"unknown override section {section!r}")
                if not isinstance(data[section], dict):
                    raise ParameterError(f"{section} must be an object, got {data[section]!r}")
                data[section][leaf] = value
            else:
                data[key] = value
        return RunConfig.from_dict(data)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _from_fields(cls, data: dict, prefix: str = ""):
    """``cls(**data)``, rejecting keys that are not fields of ``cls``."""
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(prefix + k for k in unknown)}")
    try:
        return cls(**data)
    except TypeError as exc:  # a value of the wrong type, e.g. fit.restarts = "2"
        raise ParameterError(f"bad value in {prefix.rstrip('.') or 'config'}: {exc}") from None


def cell_seed(master_seed: int, model: str, day: date, product: int) -> int:
    """Stable per-cell seed: any run subset reproduces in isolation."""
    digest = hashlib.sha256(
        f"{master_seed}|{model}|{day.isoformat()}|{product}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


def load_input(config: RunConfig) -> dict[tuple[date, int], ArrivalSeries]:
    """Read the configured input: a raw CSV or a normalized arrival store."""
    path = Path(config.input)
    with path.open(newline="") as handle:
        header = handle.readline()
    if "time_hours" in header:
        return load_store(path, config.trading_begin, config.trading_end, config.products)
    tz = ZoneInfo(config.timezone) if config.timezone else None
    rows = parse_csv(path, config.csv, n_products=config.n_products)
    rows = [r for r in rows if r.product in config.products]
    return build_series(rows, config.trading_begin, config.trading_end, tz)


# ---------------------------------------------------------------------------
# per-cell work
# ---------------------------------------------------------------------------

def _fit_dir(outdir: str, model: str, product: int, day: date) -> Path:
    return Path(outdir) / model / str(product) / day.isoformat()


def _run_cell(
    config: RunConfig,
    series: dict[tuple[date, int], ArrivalSeries],
    taus: np.ndarray,
    day: date,
    product: int,
) -> dict[str, CellScores | None]:
    """Fit (or load), simulate and score every model of one (day, product)."""
    out: dict[str, CellScores | None] = dict.fromkeys(config.models)
    sample = training_sample(config, series, day, product)
    observed = series.get((day, product))
    if sample is None or observed is None or sample.empty:
        return out

    preloaded: dict[str, FittedModel] = {}
    if config.outdir is not None:
        for name in config.models:
            path = _fit_dir(config.outdir, name, product, day) / "fit.json"
            if path.exists():
                try:
                    record = FittedModel.load(path)
                except ValueError as exc:  # a ParameterError, or bytes that are not text
                    logger.warning("refitting %s: %s does not load: %s", name, path, exc)
                    continue
                if record.spec.name != name:
                    continue
                if (record.days, record.n_obs, tuple(record.window)) == (
                    sample.days, sample.n, (sample.window_start, sample.window_end)
                ):  # fitted on as many days and spells, in the same window
                    preloaded[name] = record
                else:
                    logger.warning(
                        "refitting %s: %s was fitted on %d days, %d spells, window %s",
                        name, path, record.days, record.n_obs, record.window,
                    )
    specs = [model_from_name(name) for name in config.models]
    fitted = fit_cascade(specs, sample, config.fit, preloaded=preloaded)
    if config.outdir is not None:
        for name, record in fitted.items():
            if name not in preloaded:
                record.save(_fit_dir(config.outdir, name, product, day) / "fit.json")

    grid = minute_grid(config.t1, config.t2)
    obs_counts = observed_counts(observed.arrivals, config.t1, config.t2)
    anchor = pick_anchor(observed.arrivals, config.t1)

    names = [name for name in config.models if name in fitted]
    for i, ts in simulate_sets(
        [fitted[name] for name in names], anchor, config.t1, config.t2, config.trajectories,
        [cell_seed(config.seed, name, day, product) for name in names],
    ):
        name = names[i]
        if config.dump_trajectories and config.outdir is not None:
            write_trajectories(
                ts, _fit_dir(config.outdir, name, product, day) / "trajectories.csv"
            )
        out[name] = score_cell(obs_counts, ts.counts(grid), taus)
    return out


def observed_counts(arrivals: np.ndarray, t1: float, t2: float) -> np.ndarray:
    """Realized counting path of the horizon ``(t1, t2)`` on its minute grid."""
    in_window = arrivals[(arrivals > t1) & (arrivals < t2)]
    return counts_on_grid(in_window, minute_grid(t1, t2))


def training_sample(
    config: RunConfig,
    series: dict[tuple[date, int], ArrivalSeries],
    day: date,
    product: int,
) -> InterArrivalSample | None:
    """Pool the window over the most recent days with data before ``day``."""
    lookback = config.window_days + config.max_gap_days
    found = []
    for back in range(1, lookback + 1):
        candidate = day - timedelta(days=back)
        if (candidate, product) in series:
            found.append(candidate)
            if len(found) == config.window_days:
                break
    if len(found) < config.window_days:
        logger.warning(
            "skipping %s product %d: only %d of %d window days within %d days back",
            day,
            product,
            len(found),
            config.window_days,
            lookback,
        )
        return None
    samples = [slice_window(series[(d, product)], config.t1) for d in sorted(found)]
    return merge_samples(samples)


_worker_study: tuple = ()  # a pool worker's (config, series, taus), set once


def _init_worker(*study) -> None:
    global _worker_study
    _worker_study = study


def _run_worker_cell(key: tuple[date, int]) -> dict[str, CellScores | None]:
    return _run_cell(*_worker_study, *key)


def run(config: RunConfig) -> ScoreReport:
    """Execute the configured study and write report CSVs to the outdir."""
    config.validate()
    series = load_input(config)
    if not series:
        raise ParameterError(f"no usable data in {config.input}")
    dates = sorted({d for (d, _) in series})
    if config.start_date is not None:
        start = date.fromisoformat(config.start_date)
    else:
        start = dates[0] + timedelta(days=config.window_days)
    out_days = [start + timedelta(days=i) for i in range(config.out_days)]
    taus = default_tau_grid(config.tau_grid_size)

    study = (config, series, taus)
    keys = [(day, product) for day in out_days for product in config.products]
    if config.parallelism == 1:
        cells = [_run_cell(*study, *key) for key in keys]
    else:
        with concurrent.futures.ProcessPoolExecutor(
            config.parallelism, initializer=_init_worker, initargs=study
        ) as pool:
            cells = list(pool.map(_run_worker_cell, keys))

    report = _assemble(config, out_days, taus, dict(zip(keys, cells)))
    if config.outdir is not None:
        write_report_csvs(report, config.outdir)
    return report


def _assemble(
    config: RunConfig,
    out_days: list[date],
    taus: np.ndarray,
    results: dict[tuple[date, int], dict[str, CellScores | None]],
) -> ScoreReport:
    models, products = list(config.models), list(config.products)
    criteria = [
        [product_criteria([results[(day, product)][model] for day in out_days], taus.size)
         for product in products]
        for model in models
    ]

    def stack(attr: str) -> np.ndarray:  # (K, S, ...)
        return np.array([[getattr(pc, attr) for pc in row] for row in criteria])

    return ScoreReport(
        models=models,
        products=products,
        taus=taus,
        day_labels=[d.isoformat() for d in out_days],
        bias=stack("bias"),
        mae=stack("mae"),
        rmse=stack("rmse"),
        crps=stack("crps"),
        pb=stack("pb"),
        daily_crps=np.ascontiguousarray(stack("daily_crps").transpose(0, 2, 1)),
        missing=stack("n_missing"),
    )


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value: float) -> str:
    return repr(float(value))


def write_report_csvs(report: ScoreReport, outdir: str | Path) -> None:
    """Write the study outputs:

    * ``main_table.csv`` -- product-averaged Bias/MAE/RMSE/CRPS per model;
    * ``{criterion}_by_product.csv`` -- per-product values, models as columns;
    * ``pb_by_tau.csv`` -- product-averaged pinball loss per probability;
    * ``dm_pvalues_q{1,2}.csv`` -- pairwise test p-values (row beats column
      when small);
    * ``missing_cells.csv`` -- excluded (model, product) day counts.
    """
    outdir = Path(outdir)
    _write_csv(
        outdir / "main_table.csv",
        ["model", "bias", "mae", "rmse", "crps"],
        [
            [report.models[i]]
            + [_fmt(report.aggregate(c)[i]) for c in ("bias", "mae", "rmse", "crps")]
            for i in range(len(report.models))
        ],
    )
    for criterion in ("bias", "mae", "rmse", "crps"):
        values = getattr(report, criterion)
        _write_csv(
            outdir / f"{criterion}_by_product.csv",
            ["product"] + report.models,
            [
                [report.products[j]] + [_fmt(values[i, j]) for i in range(len(report.models))]
                for j in range(len(report.products))
            ],
        )
    pb_avg = report.pb.mean(axis=1)  # (K, R)
    _write_csv(
        outdir / "pb_by_tau.csv",
        ["tau"] + report.models,
        [
            [_fmt(report.taus[t])] + [_fmt(pb_avg[i, t]) for i in range(len(report.models))]
            for t in range(report.taus.size)
        ],
    )
    for q in (1, 2):
        matrix = report.dm_matrix(q=q)
        _write_csv(
            outdir / f"dm_pvalues_q{q}.csv",
            ["model"] + report.models,
            [
                [report.models[i]] + [_fmt(matrix[i, j]) for j in range(len(report.models))]
                for i in range(len(report.models))
            ],
        )
    _write_csv(
        outdir / "missing_cells.csv",
        ["model", "product", "missing_days"],
        [
            [report.models[i], report.products[j], int(report.missing[i, j])]
            for i in range(len(report.models))
            for j in range(len(report.products))
        ],
    )
