"""Counting-process trajectory simulation from a fitted model.

A trajectory is built sequentially: the first arrival after the forecast
start is drawn from the fitted inter-arrival distribution truncated to
exceed the gap back to the anchor (the last transaction seen before the
horizon), and every further arrival adds a fresh inter-arrival drawn with
the parameter functions evaluated at the previous arrival time, clamped
into the fit window.  Generation stops at the first draw landing at or
beyond the horizon end, which is discarded.

Each trajectory owns an rng stream derived from (seed, trajectory index),
so a set is bitwise reproducible no matter how the work is scheduled.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .distributions import GENGAM_P_EPS, LOGNORMAL_Q_EPS, _genf_shapes
from .errors import DomainError, TailExhaustedError
from .fitting import FittedModel
from .models import Family, FuncKind, compile_func, instantiate

__all__ = [
    "TrajectorySet",
    "simulate_one",
    "simulate_set",
    "counts_on_grid",
    "pick_anchor",
    "write_trajectories",
]

logger = logging.getLogger(__name__)

_BLOCK = 512  # standardized innovations drawn per rng call


class _Innovations:
    """Buffered draws of a fixed standardized innovation distribution."""

    def __init__(self, rng: np.random.Generator, draw):
        self._rng = rng
        self._draw = draw
        self._buf = draw(rng, _BLOCK)
        self._pos = 0

    def next(self) -> float:
        if self._pos == len(self._buf):
            self._buf = self._draw(self._rng, _BLOCK)
            self._pos = 0
        value = self._buf[self._pos]
        self._pos += 1
        return value


def _make_stepper(fitted: FittedModel, rng: np.random.Generator):
    """Return f(t) drawing one inter-arrival with parameters evaluated at t.

    Families whose standardized innovation does not depend on t (all but
    the gamma with a time-varying shape) pre-draw innovations in blocks.
    """
    spec = fitted.spec
    theta = fitted.theta
    rate_f = compile_func(spec.rate_kind, theta[spec.rate_slice])
    if spec.family is Family.EXP:
        innov = _Innovations(rng, lambda r, n: r.exponential(1.0, n))
        return lambda t: innov.next() / rate_f(t)

    shape_f = compile_func(spec.shape_kind, theta[spec.shape_slice])
    if spec.family is Family.GAMMA:
        if spec.shape_kind is FuncKind.CONST:
            alpha = shape_f(0.0)
            innov = _Innovations(rng, lambda r, n: r.gamma(alpha, 1.0, n))
            return lambda t: innov.next() / rate_f(t)
        return lambda t: rng.gamma(shape_f(t), 1.0) / rate_f(t)

    q = float(theta[spec.q_index])
    p = float(theta[spec.p_index]) if spec.family is Family.GENF else 0.0
    if p >= GENGAM_P_EPS:
        delta, s1, s2 = _genf_shapes(q, p)
        ratio = s2 / s1

        def draw_w(r, n):
            return np.log(ratio * r.gamma(s1, 1.0, n) / r.gamma(s2, 1.0, n)) / delta

    elif abs(q) >= LOGNORMAL_Q_EPS:
        a = q ** -2

        def draw_w(r, n):
            return np.log(r.gamma(a, 1.0, n) / a) / q

    else:

        def draw_w(r, n):
            return r.standard_normal(n)

    innov = _Innovations(rng, draw_w)

    def step(t: float) -> float:
        alpha = shape_f(t)
        beta = rate_f(t)
        mu = math.log(alpha / beta)
        sigma = alpha ** -0.5
        return math.exp(mu + sigma * innov.next())

    return step


def simulate_one(
    fitted: FittedModel,
    anchor: float,
    t_start: float,
    t_end: float,
    rng: np.random.Generator,
    max_events: int = 1_000_000,
) -> np.ndarray:
    """One simulated arrival-time trajectory on ``(t_start, t_end)``."""
    if not anchor <= t_start < t_end:
        raise DomainError(
            f"need anchor <= t_start < t_end, got {anchor}, {t_start}, {t_end}"
        )
    lo, hi = fitted.window
    if math.isfinite(lo) and math.isfinite(hi):
        clamp = lambda t: min(max(t, lo), hi)
    else:
        clamp = lambda t: t

    first_params = instantiate(fitted.spec, fitted.theta, clamp(anchor))
    try:
        gap = first_params.sample_truncated(t_start - anchor, rng)
    except TailExhaustedError:
        logger.warning(
            "%s: truncated tail exhausted at anchor=%s, t_start=%s; empty trajectory",
            fitted.spec.name,
            anchor,
            t_start,
        )
        return np.empty(0)
    t = anchor + float(gap)
    if t >= t_end:
        return np.empty(0)

    step = _make_stepper(fitted, rng)
    out = [t]
    while True:
        nxt = t + step(clamp(t))
        if nxt >= t_end:
            break
        if not nxt > t:
            logger.warning(
                "%s: degenerate zero inter-arrival at t=%s; trajectory truncated",
                fitted.spec.name,
                t,
            )
            break
        out.append(nxt)
        t = nxt
        if len(out) >= max_events:
            logger.warning(
                "%s: trajectory hit max_events=%d before %s",
                fitted.spec.name,
                max_events,
                t_end,
            )
            break
    return np.asarray(out)


@dataclass(frozen=True)
class TrajectorySet:
    """M simulated trajectories for one forecast cell."""

    trajectories: list[np.ndarray]
    t_start: float
    t_end: float
    anchor: float
    seed: int

    @property
    def m(self) -> int:
        return len(self.trajectories)

    def counts(self, grid: np.ndarray) -> np.ndarray:
        """(M, J) matrix of counting-path values on ``grid``."""
        return np.vstack([counts_on_grid(tr, grid) for tr in self.trajectories])


def simulate_set(
    fitted: FittedModel,
    anchor: float,
    t_start: float,
    t_end: float,
    m: int,
    seed: int,
    max_events: int = 1_000_000,
) -> TrajectorySet:
    """M independent trajectories from per-index derived rng streams."""
    if m < 1:
        raise DomainError("need at least one trajectory")
    streams = np.random.SeedSequence(seed).spawn(m)
    trajectories = [
        simulate_one(
            fitted, anchor, t_start, t_end, np.random.default_rng(streams[i]), max_events
        )
        for i in range(m)
    ]
    return TrajectorySet(
        trajectories=trajectories,
        t_start=t_start,
        t_end=t_end,
        anchor=anchor,
        seed=seed,
    )


def counts_on_grid(arrivals: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Counting-path values N(t) = #{arrivals <= t} on a time grid."""
    return np.searchsorted(np.asarray(arrivals), grid, side="right")


def pick_anchor(arrivals: np.ndarray, t_start: float) -> float:
    """Last observed arrival at or before ``t_start``; ``t_start`` if none."""
    z = np.asarray(arrivals, dtype=float)
    idx = int(np.searchsorted(z, t_start, side="right")) - 1
    return float(z[idx]) if idx >= 0 else t_start


def write_trajectories(ts: TrajectorySet, path) -> None:
    """Dump a set as CSV rows (trajectory_index, arrival_time_hours)."""
    import csv
    from pathlib import Path

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["trajectory_index", "arrival_time_hours"])
        for i, tr in enumerate(ts.trajectories):
            for t in tr:
                writer.writerow([i, repr(float(t))])
