"""Rolling-window forecasting study: fit, simulate and score day by day.

For every out-of-sample day and product, each configured model is fitted
on the sample pooled over the most recent window of days with data, a set
of trajectories is simulated over the forecast horizon anchored at the
last transaction before it, and the realized counting path is scored.
Per-cell work is independent, seeded from (master seed, model, day,
product), and persisted fit records are reloaded on rerun, so a study is
resumable and bitwise reproducible at any parallelism degree.
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
from zoneinfo import ZoneInfo

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
        if self.window_days < 1 or self.out_days < 1 or self.trajectories < 1:
            raise ParameterError("window_days, out_days and trajectories must be >= 1")
        if self.parallelism < 1:
            raise ParameterError("parallelism must be >= 1")
        if self.tau_grid_size < 1:
            raise ParameterError("tau_grid_size must be >= 1")
        if not self.products:
            raise ParameterError("need at least one product")
        if any(not 1 <= s <= self.n_products for s in self.products):
            raise ParameterError(f"products must lie in 1..{self.n_products}")
        for key in ("trading_begin", "trading_end"):
            bounds = getattr(self, key)
            if bounds is not None and not set(self.products) <= set(bounds):
                raise ParameterError(f"{key} must list every product in products")
        for s in self.products:
            begin, end = trading_bounds(s, self.trading_begin, self.trading_end)
            if not begin < self.t1 < self.t2 <= end:
                raise ParameterError(
                    f"product {s}: need begin < t1 < t2 <= end, got "
                    f"{begin} < {self.t1} < {self.t2} <= {end}"
                )
        for name in self.models:
            model_from_name(name)
        minute_grid(self.t1, self.t2)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        data = dict(data)
        if data.get("models") in ("all", None):
            data["models"] = ALL_MODEL_NAMES
        else:
            data["models"] = tuple(data["models"])
        if "products" in data:
            data["products"] = tuple(int(s) for s in data["products"])
        for key in ("trading_begin", "trading_end"):
            if data.get(key) is not None:
                data[key] = {int(k): float(v) for k, v in data[key].items()}
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
                data[section][leaf] = value
            else:
                data[key] = value
        return RunConfig.from_dict(data)


def _from_fields(cls, data: dict, prefix: str = ""):
    """``cls(**data)``, rejecting keys that are not fields of ``cls``."""
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(prefix + k for k in unknown)}")
    return cls(**data)


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

@dataclass
class _CellPayload:
    day: date
    product: int
    sample: InterArrivalSample | None  # None: insufficient history
    observed: np.ndarray | None  # arrivals of the target day; None: day missing
    taus: np.ndarray
    config: RunConfig


def _fit_dir(outdir: str, model: str, product: int, day: date) -> Path:
    return Path(outdir) / model / str(product) / day.isoformat()


def _run_cell(payload: _CellPayload) -> dict[str, CellScores | None]:
    """Fit (or load), simulate and score every model of one (day, product)."""
    config, day, product = payload.config, payload.day, payload.product
    empty = {name: None for name in config.models}
    if payload.sample is None or payload.observed is None or payload.sample.empty:
        return empty

    preloaded: dict[str, FittedModel] = {}
    if config.outdir is not None:
        for name in config.models:
            path = _fit_dir(config.outdir, name, product, day) / "fit.json"
            if path.exists():
                try:
                    record = FittedModel.load(path)
                except (ValueError, KeyError) as exc:  # ParameterError is a ValueError
                    logger.warning("refitting %s: %s does not load: %s", name, path, exc)
                    continue
                if record.spec.name != name:
                    continue
                if _fitted_on(record, payload.sample):
                    preloaded[name] = record
                else:
                    logger.warning(
                        "refitting %s: %s was fitted on %d days, %d spells, window %s",
                        name, path, record.days, record.n_obs, record.window,
                    )
    specs = [model_from_name(name) for name in config.models]
    fitted = fit_cascade(specs, payload.sample, config.fit, preloaded=preloaded)
    if config.outdir is not None:
        for name, record in fitted.items():
            if name in preloaded:
                continue
            record.save(_fit_dir(config.outdir, name, product, day) / "fit.json")

    grid = minute_grid(config.t1, config.t2)
    obs_counts = observed_counts(payload.observed, config.t1, config.t2)
    anchor = pick_anchor(payload.observed, config.t1)

    out: dict[str, CellScores | None] = dict(empty)
    names = [name for name in config.models if name in fitted]
    for i, ts in simulate_sets(
        [fitted[name] for name in names],
        anchor,
        config.t1,
        config.t2,
        config.trajectories,
        [cell_seed(config.seed, name, day, product) for name in names],
    ):
        name = names[i]
        if config.dump_trajectories and config.outdir is not None:
            write_trajectories(
                ts, _fit_dir(config.outdir, name, product, day) / "trajectories.csv"
            )
        out[name] = score_cell(obs_counts, ts.counts(grid), payload.taus)
    return out


def _fitted_on(record: FittedModel, sample: InterArrivalSample) -> bool:
    """Whether a fit record was made on a training sample like ``sample``:
    the same number of days and spells and the same window."""
    return (
        record.days == sample.days
        and record.n_obs == sample.n
        and tuple(record.window) == (sample.window_start, sample.window_end)
    )


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

    payloads: dict[tuple[date, int], _CellPayload] = {}
    for day in out_days:
        for product in config.products:
            observed = series.get((day, product))
            payloads[(day, product)] = _CellPayload(
                day=day,
                product=product,
                sample=training_sample(config, series, day, product),
                observed=None if observed is None else observed.arrivals,
                taus=taus,
                config=config,
            )

    results: dict[tuple[date, int], dict[str, CellScores | None]] = {}
    if config.parallelism == 1:
        for key, payload in payloads.items():
            results[key] = _run_cell(payload)
    else:
        with concurrent.futures.ProcessPoolExecutor(config.parallelism) as pool:
            futures = {
                pool.submit(_run_cell, payload): key for key, payload in payloads.items()
            }
            for future in concurrent.futures.as_completed(futures):
                results[futures[future]] = future.result()

    report = _assemble(config, out_days, taus, results)
    if config.outdir is not None:
        write_report_csvs(report, config.outdir)
    return report


def _assemble(
    config: RunConfig,
    out_days: list[date],
    taus: np.ndarray,
    results: dict[tuple[date, int], dict[str, CellScores | None]],
) -> ScoreReport:
    models = list(config.models)
    products = list(config.products)
    k, s, n, r = len(models), len(products), len(out_days), taus.size
    bias = np.empty((k, s))
    mae = np.empty((k, s))
    rmse = np.empty((k, s))
    crps = np.empty((k, s))
    pb = np.empty((k, s, r))
    daily = np.full((k, n, s), np.nan)
    missing = np.zeros((k, s), dtype=int)
    for i, model in enumerate(models):
        for j, product in enumerate(products):
            cells = [results[(day, product)][model] for day in out_days]
            pc = product_criteria(cells, r)
            bias[i, j] = pc.bias
            mae[i, j] = pc.mae
            rmse[i, j] = pc.rmse
            crps[i, j] = pc.crps
            pb[i, j] = pc.pb
            daily[i, :, j] = pc.daily_crps
            missing[i, j] = pc.n_missing
    return ScoreReport(
        models=models,
        products=products,
        taus=taus,
        day_labels=[d.isoformat() for d in out_days],
        bias=bias,
        mae=mae,
        rmse=rmse,
        crps=crps,
        pb=pb,
        daily_crps=daily,
        missing=missing,
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
