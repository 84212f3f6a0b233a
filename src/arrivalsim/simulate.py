"""Counting-process trajectory simulation from a fitted model.

A trajectory is built sequentially: the first arrival after the forecast
start is drawn from the fitted inter-arrival distribution truncated to
exceed the gap back to the anchor (the last transaction seen before the
horizon), and every further arrival adds a fresh inter-arrival drawn with
the parameter functions evaluated at the previous arrival time, clamped
into the fit window.  Generation stops at the first draw landing at or
beyond the horizon end, which is discarded.  A trajectory whose parameters
are infeasible at its latest arrival (at the anchor: before its first
arrival), or whose inter-arrival is zero, ends there with a warning.

All trajectories of a set advance in lockstep.  The first gaps come from
one vectorized truncated quantile.  Each further step evaluates
:meth:`ModelSpec.params_at` once on the vector of current times of the
live trajectories and turns one standardized innovation per trajectory
into an inter-arrival: ``w / rate`` for Exp and Gamma,
``exp(mu + sigma * w)`` for GenGam and GenF.

Each trajectory owns an rng stream, which ``simulate_set`` derives from
(seed, trajectory index).  The stream first yields the uniform of the
first gap.  Once the first arrival lands before the horizon end it yields
the trajectory's standardized innovations in blocks of ``_BLOCK``, or,
for a gamma with a time-varying shape, one gamma variate per event.  A
trajectory therefore does not depend on the rest of its set, and a set is
bitwise reproducible however the work is scheduled and however large M is.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .distributions import GENGAM_P_EPS, LOGNORMAL_Q_EPS, _genf_shapes
from .errors import DomainError, TailExhaustedError
from .fitting import FittedModel
from .models import Family, FuncKind, ModelSpec, feasible_on_grid, instantiate

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


def _innovation_draw(spec: ModelSpec, theta: np.ndarray):
    """``draw(rng, n)``: n standardized innovations of ``spec`` at ``theta``.

    None for a gamma with a time-varying shape, whose innovation
    distribution changes from event to event.
    """
    if spec.family is Family.EXP:
        return lambda r, n: r.exponential(1.0, n)
    if spec.family is Family.GAMMA:
        if spec.shape_kind is not FuncKind.CONST:
            return None
        alpha = float(theta[spec.shape_slice][0])
        return lambda r, n: r.gamma(alpha, 1.0, n)
    q = float(theta[spec.q_index])
    p = float(theta[spec.p_index]) if spec.family is Family.GENF else 0.0
    if p >= GENGAM_P_EPS:
        delta, s1, s2 = _genf_shapes(q, p)
        ratio = s2 / s1
        return lambda r, n: np.log(ratio * r.gamma(s1, 1.0, n) / r.gamma(s2, 1.0, n)) / delta
    if abs(q) >= LOGNORMAL_Q_EPS:
        a = q ** -2
        return lambda r, n: np.log(r.gamma(a, 1.0, n) / a) / q
    return lambda r, n: r.standard_normal(n)


def _simulate(
    fitted: FittedModel,
    anchor: float,
    t_start: float,
    t_end: float,
    rngs: list[np.random.Generator],
    max_events: int = 1_000_000,
) -> list[np.ndarray]:
    """One trajectory on ``(t_start, t_end)`` per generator in ``rngs``.

    The trajectories advance in lockstep: step k gives every live trajectory
    its k-th arrival.  Each draws only from its own generator, in the order
    the module docstring states.
    """
    if not anchor <= t_start < t_end:
        raise DomainError(
            f"need anchor <= t_start < t_end, got {anchor}, {t_start}, {t_end}"
        )
    if not rngs:
        return []
    spec, theta, name = fitted.spec, fitted.theta, fitted.spec.name
    m = len(rngs)
    lo, hi = fitted.window
    bounded = math.isfinite(lo) and math.isfinite(hi)

    t0 = min(max(anchor, lo), hi) if bounded else anchor
    if not feasible_on_grid(spec, theta, t0):
        for _ in range(m):
            logger.warning(
                "%s: parameters infeasible at t=%s; trajectory truncated", name, t0
            )
        return [np.empty(0) for _ in range(m)]
    first = instantiate(spec, theta, t0)
    u = np.array([rng.uniform() for rng in rngs])
    try:
        t = anchor + first.truncated_quantile(t_start - anchor, u)
    except TailExhaustedError:
        for _ in range(m):
            logger.warning(
                "%s: truncated tail exhausted at anchor=%s, t_start=%s; empty trajectory",
                name, anchor, t_start,
            )
        return [np.empty(0) for _ in range(m)]

    live = np.flatnonzero(t < t_end)
    t = t[live]
    draw = _innovation_draw(spec, theta)
    if draw is not None:
        innov = np.empty((m, _BLOCK))
        for i in live:
            innov[i] = draw(rngs[i], _BLOCK)
        pos = 0
    scale_by_rate = spec.family in (Family.EXP, Family.GAMMA)
    lengths = np.zeros(m, dtype=np.intp)  # filled in as trajectories end
    steps = [(live, t)]  # live indices and their k-th arrivals, per step k
    with np.errstate(over="ignore"):
        while live.size:
            tc = np.minimum(np.maximum(t, lo), hi) if bounded else t
            params, ok = spec.params_at(theta, tc)
            if not ok:
                feasible = np.array(
                    [spec.params_at(theta, tc[k:k + 1])[1] for k in range(live.size)]
                )
                for tk in t[~feasible]:
                    logger.warning(
                        "%s: parameters infeasible at t=%s; trajectory truncated", name, tk
                    )
                lengths[live[~feasible]] = len(steps)
                live, t, tc = live[feasible], t[feasible], tc[feasible]
                if not live.size:
                    break
                params, _ = spec.params_at(theta, tc)
            if draw is None:
                w = np.array(
                    [rngs[i].gamma(a, 1.0) for i, a in zip(live.tolist(), params[0].tolist())]
                )
            else:
                if pos == _BLOCK:
                    for i in live:
                        innov[i] = draw(rngs[i], _BLOCK)
                    pos = 0
                w = innov[live, pos]
                pos += 1
            gap = w / params[-1] if scale_by_rate else np.exp(params[0] + params[1] * w)
            nxt = t + gap
            keep = (nxt > t) & (nxt < t_end)
            if np.count_nonzero(keep) == live.size:
                t = nxt
            else:
                for tk in t[~keep & ~(nxt >= t_end)]:
                    logger.warning(
                        "%s: degenerate zero inter-arrival at t=%s; trajectory truncated",
                        name, tk,
                    )
                lengths[live[~keep]] = len(steps)
                live, t = live[keep], nxt[keep]
                if not live.size:
                    break
            steps.append((live, t))
            if len(steps) >= max_events:
                for _ in live:
                    logger.warning(
                        "%s: trajectory hit max_events=%d before %s", name, max_events, t_end
                    )
                break
    lengths[live] = len(steps)

    ends = np.cumsum(lengths)
    starts = ends - lengths
    flat = np.empty(ends[-1])
    for k, (idx, values) in enumerate(steps):
        flat[starts[idx] + k] = values
    return np.split(flat, ends[:-1])


def simulate_one(
    fitted: FittedModel,
    anchor: float,
    t_start: float,
    t_end: float,
    rng: np.random.Generator,
    max_events: int = 1_000_000,
) -> np.ndarray:
    """One simulated arrival-time trajectory on ``(t_start, t_end)``."""
    return _simulate(fitted, anchor, t_start, t_end, [rng], max_events)[0]


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
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(m)]
    trajectories = _simulate(fitted, anchor, t_start, t_end, rngs, max_events)
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
