"""Synthetic transaction data from a known generative model.

Writes raw-schema CSV files (exact timestamps, no minute rounding) so the
whole pipeline can be exercised, and parameter recovery checked, without
proprietary exchange data.
"""

from __future__ import annotations

import csv
from datetime import date, datetime, time as dtime, timedelta
from pathlib import Path

import numpy as np

from .errors import DomainError, ParameterError
from .fitting import FittedModel
from .ingest import DEFAULT_TRADING_END, trading_bounds
from .models import ModelSpec, feasible_on_grid
from .scoring import minute_grid
from .simulate import simulate_trajectories

__all__ = ["synth_generate"]


def _cell_rng(seed: int, day_index: int, product: int) -> np.random.Generator:
    if seed < 0:
        raise DomainError(f"a seed must be non-negative, got {seed}")
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(day_index, product))
    )


def synth_generate(
    spec: ModelSpec,
    theta,
    days: int,
    seed: int,
    out_path: str | Path,
    products: tuple[int, ...] = (12,),
    start_date: date = date(2017, 9, 3),
    gen_start: float | None = None,
    gen_end: float = DEFAULT_TRADING_END,
    trading_begin: dict[int, float] | None = None,
) -> Path:
    """Simulate ``days`` consecutive delivery days and write them as CSV.

    Arrivals for each (day, product) cell are generated over
    ``[gen_start, gen_end)`` (the product's trading begin by default) from
    the model ``spec`` at ``theta``, then converted to exact timestamps.
    ``days = 0`` writes just the header.  Raises :class:`ParameterError`
    for ``days < 0`` and for products that are not distinct hours 1..24.
    """
    if days < 0:
        raise ParameterError(f"days must be >= 0, got {days}")
    if len(set(products)) < len(products) or not all(1 <= s <= 24 for s in products):
        raise ParameterError(f"products must be distinct and in 1..24, got {list(products)}")
    theta = np.asarray(theta, dtype=float)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)

    arrivals = {}  # product -> one trajectory per day
    for product in products:
        a = gen_start if gen_start is not None else trading_bounds(product, trading_begin)[0]
        if not a < gen_end:
            raise ParameterError(
                f"generation window empty for product {product}: [{a}, {gen_end})"
            )
        if not feasible_on_grid(spec, theta, minute_grid(a, gen_end)):
            raise ParameterError(f"{spec.name}: theta is infeasible on [{a}, {gen_end})")
        fitted = FittedModel(spec=spec, theta=theta, log_likelihood=None, window=(a, gen_end))
        rngs = [_cell_rng(seed, day_index, product) for day_index in range(days)]
        arrivals[product] = simulate_trajectories(fitted, rngs, a, a, gen_end).trajectories

    with out_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["delivery_date", "product", "timestamp", "market_area", "volume",
             "price", "transaction_id"]
        )
        for day_index in range(days):
            day = start_date + timedelta(days=day_index)
            for product in products:
                start = datetime.combine(day, dtime(hour=product - 1))
                prev = None
                for i, t in enumerate(arrivals[product][day_index]):
                    ts = start + timedelta(hours=float(t))
                    if prev is not None and ts <= prev:
                        ts = prev + timedelta(microseconds=1)
                    prev = ts
                    writer.writerow(
                        [
                            day.isoformat(),
                            product,
                            ts.isoformat(sep=" "),
                            "DE",
                            "1.0",
                            "40.0",
                            f"{day.isoformat()}-{product}-{i}",
                        ]
                    )
    return out_path
