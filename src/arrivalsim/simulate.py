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

Trajectories advance in locksteps: step k gives every live trajectory of
a lockstep its k-th arrival.  The first gaps of a model take its family
parameters from :meth:`ModelSpec.params_at` at the anchor, clamped into
the fit window, and pass them with one uniform per trajectory to
:func:`~arrivalsim.distributions.truncated_quantile`, which reads the
family's cdf and quantile kernels.  Each further step evaluates
:meth:`ModelSpec.params_at` once on the vector of current times of the
live trajectories and turns one standardized innovation per trajectory
into an inter-arrival: ``w / rate`` for Exp and Gamma,
``exp(mu + sigma * w)`` for GenGam and GenF.

A step costs about twenty small numpy calls whatever its width, so the
models of a cell share locksteps: each row (trajectory) carries its own
parameter column in a layout common to the lockstep, whose functions are
Quadr (Const and Lin padded with zeros, bitwise the same values) or
Expon.  Models of one family (GenGam counted as GenF with p = 0, since a
step uses only mu and sigma), innovation kind and fit window share a
lockstep of at most ``_ROWS`` rows.  The cap bounds memory: every row
holds ``_BLOCK`` pre-drawn innovations besides its arrivals.  A model
with ``_ROWS`` or more trajectories runs alone, under its own spec.

Each trajectory owns an rng stream, which ``simulate_set`` derives from
(seed, trajectory index).  The stream first yields the uniform of the
first gap.  Once the first arrival lands before the horizon end it yields
the trajectory's standardized innovations in blocks of ``_BLOCK``, or,
for a gamma with a time-varying shape, one gamma variate per event.  A
trajectory therefore does not depend on the rest of its set nor on the
models it shares a lockstep with, and a set is bitwise reproducible
however the work is scheduled and grouped and however large M is.
"""

from __future__ import annotations

import csv
import logging
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distributions import GENGAM_P_EPS, LOGNORMAL_Q_EPS, _genf_shapes, truncated_quantile
from .errors import DomainError, ParameterError, TailExhaustedError
from .fitting import FittedModel
from .models import Family, FuncKind, ModelSpec, feasible_on_grid

__all__ = [
    "TrajectorySet",
    "simulate_trajectories",
    "simulate_sets",
    "simulate_set",
    "counts_on_grid",
    "counts_matrix",
    "pick_anchor",
    "write_trajectories",
    "read_trajectories",
]

logger = logging.getLogger(__name__)

_BLOCK = 512  # standardized innovations drawn per rng call
# Most trajectories in one lockstep.  Each row holds _BLOCK pre-drawn
# innovations (4 KiB) besides its arrivals, so the cap bounds the memory
# a lockstep adds over simulating its models one at a time.
_ROWS = 256


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


class _Member:
    """The trajectories of one group, one lockstep row each."""

    def __init__(self, index, key, fitted, rngs, live, t):
        self.index, self.key = index, key
        self.spec, self.theta = fitted.spec, fitted.theta
        self.draw = _innovation_draw(self.spec, self.theta)  # None: one gamma per event
        self.rngs = rngs
        self.live = live  # rows whose first arrival lands before the horizon end
        self.t = t  # and those arrivals


def _lockstep_key(fitted: FittedModel) -> tuple:
    """Models with one key can share a lockstep: ``(spec, per-event draw,
    clamp bounds)``, where every row's parameters follow ``spec``.

    Const and Lin coefficients padded with zeros give bitwise the values of
    the Quadr formula at finite t, so ``spec`` widens both to Quadr.  A
    step uses only (mu, sigma) of a GenGam or GenF, so a GenGam row steps
    as a GenF with p = 0.
    """
    def wide(kind):
        return kind if kind in (None, FuncKind.EXPON) else FuncKind.QUADR

    spec = fitted.spec
    family = Family.GENF if spec.family is Family.GENGAM else spec.family
    lo, hi = fitted.window
    return (
        ModelSpec(family, wide(spec.rate_kind), wide(spec.shape_kind)),
        _innovation_draw(spec, fitted.theta) is None,
        (lo, hi) if math.isfinite(lo) and math.isfinite(hi) else None,
    )


def _first_arrivals(fitted, bounds, anchor, t_start, t_end, rngs):
    """Indices of the trajectories whose first arrival lands before
    ``t_end``, and those arrivals.  None, with one warning per trajectory,
    when the parameters are infeasible at the anchor, clamped into
    ``bounds``, or the truncated tail is exhausted."""
    spec, theta, name = fitted.spec, fitted.theta, fitted.spec.name
    t0 = min(max(anchor, bounds[0]), bounds[1]) if bounds else anchor
    if not feasible_on_grid(spec, theta, t0):
        for _ in rngs:
            logger.warning(
                "%s: parameters infeasible at t=%s; trajectory truncated", name, t0
            )
        return None
    params = [float(v) for v in spec.params_at(theta, t0)[0]]
    u = np.array([rng.uniform() for rng in rngs])
    try:
        t = anchor + truncated_quantile(spec.family, params, t_start - anchor, u)
    except TailExhaustedError:
        for _ in rngs:
            logger.warning(
                "%s: truncated tail exhausted at anchor=%s, t_start=%s; empty trajectory",
                name, anchor, t_start,
            )
        return None
    live = np.flatnonzero(t < t_end)
    return live, t[live]


def simulate_trajectories(
    groups: Iterable[tuple[FittedModel, list[np.random.Generator]]],
    anchor: float,
    t_start: float,
    t_end: float,
    max_events: int = 1_000_000,
) -> Iterator[tuple[int, list[np.ndarray]]]:
    """One trajectory on ``(t_start, t_end)`` per generator, for each
    ``(fitted, rngs)`` group.

    Consecutive groups with one lockstep key (see ``_lockstep_key``) share
    a lockstep of at most ``_ROWS`` trajectories, packed whole per group;
    a group larger than ``_ROWS`` runs alone.  ``groups`` is read one group
    at a time and ``(group index, trajectories)`` is yielded as each
    lockstep finishes, so only one lockstep's rngs and arrivals are held
    at once.  Each trajectory draws only from its own generator,
    in the order the module docstring states.
    """
    if not anchor <= t_start < t_end:
        raise DomainError(
            f"need anchor <= t_start < t_end, got {anchor}, {t_start}, {t_end}"
        )
    batch: list[_Member] = []

    def rows():
        return sum(len(m.rngs) for m in batch)

    def run():
        trajectories = _lockstep(batch, t_end, max_events)
        start = 0
        for member in batch:
            yield member.index, trajectories[start:start + len(member.rngs)]
            start += len(member.rngs)
        batch.clear()

    for g, (fitted, rngs) in enumerate(groups):
        key = _lockstep_key(fitted)
        bounds = key[2]
        first = _first_arrivals(fitted, bounds, anchor, t_start, t_end, rngs)
        if first is None or not first[0].size:
            yield g, [np.empty(0) for _ in rngs]
            continue
        if batch and (key != batch[0].key or rows() + len(rngs) > _ROWS):
            yield from run()
        batch.append(_Member(g, key, fitted, rngs, *first))
        if rows() >= _ROWS:
            yield from run()
    if batch:
        yield from run()


def _columns(theta: np.ndarray, index) -> np.ndarray:
    """The parameter columns of the rows at ``index``; a single parameter
    vector serves every row."""
    return theta[:, index] if theta.ndim == 2 else theta


def _lockstep(members: list[_Member], t_end: float, max_events: int) -> list[np.ndarray]:
    """One trajectory per generator of ``members``, which share one key, in
    order; a row per trajectory, advanced in lockstep.

    Step k gives every live row its k-th arrival.  Several members step
    under the key's spec, each row with its own parameter column, which is
    kept compacted to the live rows and compacted only on steps where rows
    end.  A single member steps under its own spec and parameter vector.
    """
    spec, per_event, bounds = members[0].key
    sizes = [len(m.rngs) for m in members]
    names = [name for m in members for name in [m.spec.name] * len(m.rngs)]
    rngs = [rng for m in members for rng in m.rngs]
    draws = [draw for m in members for draw in [m.draw] * len(m.rngs)]
    offsets = np.cumsum(sizes) - sizes
    live = np.concatenate([offset + m.live for offset, m in zip(offsets, members)])
    t = np.concatenate([m.t for m in members])
    if len(members) == 1:
        spec, theta = members[0].spec, members[0].theta
    else:
        layout = spec.param_names
        theta = np.zeros((len(layout), len(members)))
        for j, m in enumerate(members):
            theta[[layout.index(name) for name in m.spec.param_names], j] = m.theta
        theta = np.repeat(theta, sizes, axis=1)[:, live]
    if not per_event:
        innov = np.empty((len(rngs), _BLOCK))
        for i in live.tolist():
            innov[i] = draws[i](rngs[i], _BLOCK)
        pos = 0
    scale_by_rate = spec.family in (Family.EXP, Family.GAMMA)
    lengths = np.zeros(len(rngs), dtype=np.intp)  # filled in as rows end
    steps = [(live, t)]  # live rows and their k-th arrivals, per step k
    with np.errstate(over="ignore"):
        while live.size:
            tc = np.minimum(np.maximum(t, bounds[0]), bounds[1]) if bounds else t
            params, ok = spec.params_at(theta, tc)
            if not ok:
                feasible = np.array(
                    [spec.params_at(_columns(theta, slice(k, k + 1)), tc[k:k + 1])[1]
                     for k in range(live.size)]
                )
                for k in (~feasible).nonzero()[0]:
                    logger.warning(
                        "%s: parameters infeasible at t=%s; trajectory truncated",
                        names[live[k]], t[k],
                    )
                lengths[live[~feasible]] = len(steps)
                live, t, tc = live[feasible], t[feasible], tc[feasible]
                theta = _columns(theta, feasible)
                if not live.size:
                    break
                params, _ = spec.params_at(theta, tc)
            if per_event:
                w = np.array(
                    [rngs[i].gamma(a, 1.0) for i, a in zip(live.tolist(), params[0].tolist())]
                )
            else:
                if pos == _BLOCK:
                    for i in live.tolist():
                        innov[i] = draws[i](rngs[i], _BLOCK)
                    pos = 0
                w = innov[live, pos]
                pos += 1
            gap = w / params[-1] if scale_by_rate else np.exp(params[0] + params[1] * w)
            nxt = t + gap
            keep = (nxt > t) & (nxt < t_end)
            if np.count_nonzero(keep) == live.size:
                t = nxt
            else:
                for k in (~keep & ~(nxt >= t_end)).nonzero()[0]:
                    logger.warning(
                        "%s: degenerate zero inter-arrival at t=%s; trajectory truncated",
                        names[live[k]], t[k],
                    )
                lengths[live[~keep]] = len(steps)
                live, t, theta = live[keep], nxt[keep], _columns(theta, keep)
                if not live.size:
                    break
            steps.append((live, t))
            if len(steps) >= max_events:
                for i in live.tolist():
                    logger.warning(
                        "%s: trajectory hit max_events=%d before %s", names[i], max_events, t_end
                    )
                break
    lengths[live] = len(steps)

    ends = np.cumsum(lengths)
    starts = ends - lengths
    flat = np.empty(ends[-1])
    for k, (idx, values) in enumerate(steps):
        flat[starts[idx] + k] = values
    return np.split(flat, ends[:-1])


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
        return counts_matrix(self.trajectories, grid)


def simulate_sets(
    records: list[FittedModel],
    anchor: float,
    t_start: float,
    t_end: float,
    m: int,
    seeds: list[int],
    max_events: int = 1_000_000,
) -> Iterator[tuple[int, TrajectorySet]]:
    """M independent trajectories per record, from rng streams derived
    from (its seed, trajectory index).

    Records with one lockstep key are simulated together.  Yields
    ``(record index, set)`` once per record, in the order the locksteps
    finish.
    """
    if m < 1:
        raise DomainError("need at least one trajectory")
    by_key: dict[tuple, list[int]] = {}
    for i, record in enumerate(records):
        by_key.setdefault(_lockstep_key(record), []).append(i)
    order = [i for indices in by_key.values() for i in indices]
    groups = (
        (records[i], [np.random.default_rng(s) for s in np.random.SeedSequence(seeds[i]).spawn(m)])
        for i in order
    )
    for g, trajectories in simulate_trajectories(groups, anchor, t_start, t_end, max_events):
        i = order[g]
        yield i, TrajectorySet(trajectories, t_start, t_end, anchor, seeds[i])


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
    return next(simulate_sets([fitted], anchor, t_start, t_end, m, [seed], max_events))[1]


def counts_on_grid(arrivals: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Counting-path values N(t) = #{arrivals <= t} on a time grid."""
    return np.searchsorted(np.asarray(arrivals), grid, side="right")


def counts_matrix(trajectories: list[np.ndarray], grid: np.ndarray) -> np.ndarray:
    """(M, J) matrix of :func:`counts_on_grid` rows, one per trajectory.

    An arrival a is counted at grid point g_j iff a <= g_j, that is iff
    the first grid index i with g_i >= a is at most j: a per-row histogram
    of those indices, cumulated, gives the counts exactly.
    """
    grid = np.asarray(grid)
    m, j = len(trajectories), grid.size
    bins = np.searchsorted(grid, np.concatenate(trajectories), side="left")
    bins += np.repeat(np.arange(0, m * (j + 1), j + 1), [len(tr) for tr in trajectories])
    hist = np.bincount(bins, minlength=m * (j + 1)).reshape(m, j + 1)
    del bins  # one arrival-sized array fewer at the peak, in the cumsum
    return np.cumsum(hist[:, :j], axis=1)


def pick_anchor(arrivals: np.ndarray, t_start: float) -> float:
    """Last observed arrival at or before ``t_start``; ``t_start`` if none."""
    z = np.asarray(arrivals, dtype=float)
    idx = int(np.searchsorted(z, t_start, side="right")) - 1
    return float(z[idx]) if idx >= 0 else t_start


def write_trajectories(ts: TrajectorySet, path) -> None:
    """Dump a set as CSV rows (trajectory_index, arrival_time_hours); an
    empty trajectory is one row with an empty time."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["trajectory_index", "arrival_time_hours"])
        for i, tr in enumerate(ts.trajectories):
            writer.writerows([[i, repr(float(t))] for t in tr] or [[i, ""]])


def read_trajectories(path) -> list[np.ndarray]:
    """The trajectories of a :func:`write_trajectories` dump, in index order."""
    groups: dict[int, list[float]] = {}
    with Path(path).open(newline="") as handle:
        for record in csv.DictReader(handle):
            arrivals = groups.setdefault(int(record["trajectory_index"]), [])
            if record["arrival_time_hours"]:
                arrivals.append(float(record["arrival_time_hours"]))
    if not groups:
        raise ParameterError(f"no trajectories in {path}")
    return [np.sort(np.asarray(groups.get(i, []), dtype=float)) for i in range(max(groups) + 1)]
