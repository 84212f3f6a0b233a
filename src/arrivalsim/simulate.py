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
into an inter-arrival through the family's ``step`` kernel: ``w / rate``
for Exp and Gamma, ``exp(mu + sigma * w)`` for GenGam and GenF.  The
innovations come from the family's ``innovations`` sampler, built at the
anchor's parameters: one innovation per pre-drawn slot, or, for a gamma
whose shape varies in time, Marsaglia-Tsang attempts at the current
shape, which a row repeats on its own slots until one is accepted.

A step costs about twenty small numpy calls whatever its width, so the
models of a cell share locksteps by step kernel and by whether their
shape is constant or varies in time.  Exp and Gamma models step ``w /
rate``, GenGam and GenF models ``exp(mu + sigma * w)``; the rows of a
lockstep draw with one sampler kind, Marsaglia-Tsang attempts if they
are Gamma rows with a time-varying shape and one innovation per slot
otherwise, and keep their slots in blocks of one width.  A lockstep
evaluates its rows in :func:`~arrivalsim.models.join` of its
members' specs, the narrowest layout that holds them all, with a parameter
column per row (:meth:`ModelSpec.embed`): Const and Lin functions padded
with zeros to Quadr; Quadr and Expon functions side by side as
``c + b1 t + b2 t t + exp(a1 + a2 t)``, with a1 = -inf for a polynomial
and b1 = b2 = 0 for an Expon; an Exp as a Gamma with a shape of 1, which
the rate step does not read; a GenGam as a GenF with p = 0, since a step
uses only mu and sigma.  Each gives bitwise its model's own values at
finite t.  Exp rows alone keep the Exp layout, and polynomials alone the
Quadr one.  Models with one step kernel, kind of shape and fit window
share a lockstep of at most ``_ROWS`` rows, each row with its own
sampler.  The cap bounds memory: a row holds ``_BLOCK`` pre-drawn slots
of its lockstep's width (2 KiB, or 6 KiB for gamma attempts) and 24
bytes per arrival, so a full lockstep of trajectories with 200 arrivals
holds about 5 to 8 MB.  A model with ``_ROWS`` or more trajectories
fills a lockstep of its own, and steps the same way.  A trajectory
ends, with a warning, after ``_MAX_EVENTS`` arrivals, so that a fit
whose rate explodes inside the horizon costs bounded time and memory.

Each trajectory owns an rng stream, which ``simulate_sets`` derives from
(seed, trajectory index) as ``SeedSequence(seed).spawn(m)[i]`` does, in
one vectorized pass.  The stream first yields the uniform of the first
gap.  Once the first arrival lands before the horizon end it yields the
trajectory's slots in blocks of ``_BLOCK``: ``_BLOCK`` innovations (a
GenF with p >= ``GENGAM_P_EPS`` draws ``_BLOCK`` gamma variates at each
of its two shapes for them), or, for a gamma whose shape varies in time,
``_BLOCK`` normals and then ``2 * _BLOCK`` uniforms, the (x, u, v) of
``_BLOCK`` attempts.  A row draws its next block when it has spent the
last, so a trajectory does not depend on the rest of its set nor on the
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
from numpy.random.bit_generator import ISeedSequence

from .distributions import KERNELS, truncated_quantile
from .errors import DomainError, ParameterError, TailExhaustedError
from .fitting import FittedModel
from .models import FuncKind, feasible_on_grid, join

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

# Slots a row draws per rng call.  A healthy trajectory has about 140 to
# 230 arrivals, so it draws one block or two; of 64, 128, 256 and 512,
# 256 simulated a 37-model cell fastest at M = 40 and M = 1,000.
_BLOCK = 256
# Most trajectories in one lockstep.  The cap bounds the memory a lockstep
# adds over simulating its models one at a time (module docstring).  A
# sweep over the 37 models of 3 cells of 28-day GenF fits (CPU ms per
# cell, best of 5 rounds, one process on a shared 2-core x86_64 VM;
# tracemalloc peak MB at M = 40 and 200):
#
#   M         8     20     40    100    200   peak 40   peak 200
#   256     46.8   84.1  130.0  309.6  554.3    1.9       2.0
#   512     46.3   63.5  115.6  229.1  445.0    2.7       3.8
#   768     45.5   63.6  101.8  218.4  402.5    4.0       5.6
#   1024    45.2   64.5   99.4  211.8  362.1    4.5       8.5
#
# 768 takes most of the gain up to M = 100; 1,024 adds at most 10% more
# (at M = 200) for half as much memory again.
_ROWS = 768
# Most arrivals of one trajectory.  The longest healthy trajectory of the
# benchmark inputs has about 200; a fit whose rate explodes inside the
# horizon runs every trajectory to this bound, which then holds about
# 160 MB (a row index and a time per arrival) for M = 1,000.
_MAX_EVENTS = 10_000

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


class _State(ISeedSequence):
    """A precomputed seed state for ``np.random.PCG64``, which asks for 4
    uint64 words and reads them from the array's memory: a C-contiguous
    row."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _streams(seed: int, m: int) -> list[np.random.Generator]:
    """The generators ``default_rng(SeedSequence(seed).spawn(m)[i])``, bit
    for bit, i < m < 2**32, from one vectorized pass over i.

    Child i's entropy is the seed's 32-bit words, zero-padded to the
    4-word pool, then i.  Mixing the padded words gives the pool of
    ``SeedSequence(seed)``, which a seed of more than 4 words has already
    mixed its further words into.  i is then hashed into each pool word,
    with the hash constant advanced past the 16 hashes of the pool's own
    mixing and the 4 of each further word, and the pool is hashed out
    into 8 words: the 4 uint64 of the child's
    ``generate_state(4, np.uint64)``.
    """
    words = max(1, -(-seed.bit_length() // 32))
    pool = np.random.SeedSequence(seed).pool
    const = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, words - 4), 1 << 32) & _MASK32
    i = np.arange(m, dtype=np.uint32)
    mixed = []
    for word in pool.tolist():
        h = i ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        h *= np.uint32(const)
        h ^= h >> np.uint32(16)
        h = np.uint32(_MIX_L * word & _MASK32) - np.uint32(_MIX_R) * h
        h ^= h >> np.uint32(16)
        mixed.append(h)
    state = np.empty((m, 8), dtype=np.uint32)
    const = _INIT_B
    for k in range(8):
        h = mixed[k % 4] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        h *= np.uint32(const)
        h ^= h >> np.uint32(16)
        state[:, k] = h
    state = state.astype("<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_State(row))) for row in state]


class _Member:
    """The trajectories of one group, one lockstep row each."""

    def __init__(self, index, key, fitted, rngs, params, live, t):
        self.index, self.key = index, key
        self.spec, self.theta = fitted.spec, fitted.theta
        # the innovation sampler at the anchor's parameters
        self.sampler = KERNELS[self.spec.family].innovations(key[1], *params)
        self.rngs = rngs
        self.live = live  # rows whose first arrival lands before the horizon end
        self.t = t  # and those arrivals


def _lockstep_key(fitted: FittedModel) -> tuple:
    """Models with one key can share a lockstep: ``(step kernel, whether
    the shape varies in time, clamp bounds)``.  Their samplers share one
    ``take``: Marsaglia-Tsang attempts for a Gamma whose shape varies in
    time, one innovation per slot for every other model."""
    lo, hi = fitted.window
    return (
        KERNELS[fitted.spec.family].step,
        fitted.spec.shape_kind not in (None, FuncKind.CONST),
        (lo, hi) if math.isfinite(lo) and math.isfinite(hi) else None,
    )


def _first_arrivals(fitted, bounds, anchor, t_start, t_end, rngs):
    """The family parameters at the anchor, clamped into ``bounds``, as
    floats; the indices of the trajectories whose first arrival lands
    before ``t_end``; and those arrivals.  None, with one warning per
    trajectory, when the parameters are infeasible there or the truncated
    tail is exhausted."""
    spec, theta, name = fitted.spec, fitted.theta, fitted.spec.name
    t0 = min(max(anchor, bounds[0]), bounds[1]) if bounds else anchor
    if not feasible_on_grid(spec, theta, t0):
        for _ in rngs:
            logger.warning(
                "%s: parameters infeasible at t=%s; trajectory truncated", name, t0
            )
        return None
    params = [float(v) for v in spec.params_at(theta, t0)[0]]
    u = np.array([rng.random() for rng in rngs])
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
    return params, live, t[live]


def simulate_trajectories(
    groups: Iterable[tuple[FittedModel, list[np.random.Generator]]],
    anchor: float,
    t_start: float,
    t_end: float,
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
        trajectories = _lockstep(batch, t_end)
        start = 0
        for member in batch:
            yield member.index, trajectories[start:start + len(member.rngs)]
            start += len(member.rngs)
        batch.clear()

    for g, (fitted, rngs) in enumerate(groups):
        key = _lockstep_key(fitted)
        first = _first_arrivals(fitted, key[2], anchor, t_start, t_end, rngs)
        if first is None or not first[1].size:
            yield g, [np.empty(0) for _ in rngs]
            continue
        if batch and (key != batch[0].key or rows() + len(rngs) > _ROWS):
            yield from run()
        batch.append(_Member(g, key, fitted, rngs, *first))
        if rows() >= _ROWS:
            yield from run()
    if batch:
        yield from run()


class _Innovations:
    """Per-row blocks of ``_BLOCK`` pre-drawn slots of one sampler
    ``take``, in one array as wide as its slots.

    A row draws its next block from its own generator once it has spent
    its last slot, so a rejected slot costs that row's stream only.  The
    rows step at one shared position (``_BLOCK`` before the first step,
    which draws a block) until the first of them has a slot rejected, and
    each at its own position in ``pos`` from then on.
    """

    def __init__(self, rngs, samplers):
        self.rngs, self.draws = rngs, [s.draw for s in samplers]
        self.take = samplers[0].take
        self.blocks = np.empty((len(rngs), samplers[0].width, _BLOCK))
        self.at = _BLOCK  # the shared position; None once the rows have moved apart
        self.pos = np.empty(len(rngs), dtype=np.intp)

    def next(self, live, params):
        """One innovation per row of ``live`` at its current parameters."""
        at = self.at
        if at is None:
            slots = self._advance(live)
        else:
            if at == _BLOCK:
                self._draw(live.tolist())
                at = 0
            self.at = at + 1
            slots = self.blocks[live, :, at].T
        w, ok = self.take(slots, *params)
        if ok is None:
            return w
        if at is not None:
            self.pos[live] = self.at
            self.at = None
        todo = np.flatnonzero(~ok)
        while todo.size:
            value, ok = self.take(self._advance(live[todo]), *[v[todo] for v in params])
            w[todo[ok]] = value[ok]
            todo = todo[~ok]
        return w

    def _advance(self, rows):
        """The current slots of ``rows``, as (width, rows); each row moves on."""
        pos = self.pos[rows]
        spent = pos == _BLOCK
        if spent.any():
            self._draw(rows[spent].tolist())
            pos[spent] = 0
        self.pos[rows] = pos + 1
        return self.blocks[rows, :, pos].T

    def _draw(self, rows):
        for i in rows:
            self.blocks[i] = self.draws[i](self.rngs[i], _BLOCK)


def _lockstep(members: list[_Member], t_end: float) -> list[np.ndarray]:
    """One trajectory per generator of ``members``, which share one key, in
    order; a row per trajectory, advanced in lockstep.

    Step k gives every live row its k-th arrival.  The rows step under
    the :func:`join` of the members' specs, each with its own parameter
    column, which is kept compacted to the live rows and compacted only on
    steps where rows end.
    """
    spec, bounds = join(m.spec for m in members), members[0].key[2]
    sizes = [len(m.rngs) for m in members]
    names = [name for m in members for name in [m.spec.name] * len(m.rngs)]
    rngs = [rng for m in members for rng in m.rngs]
    innovations = _Innovations(
        rngs, [sampler for m in members for sampler in [m.sampler] * len(m.rngs)]
    )
    offsets = np.cumsum(sizes) - sizes
    live = np.concatenate([offset + m.live for offset, m in zip(offsets, members)])
    t = np.concatenate([m.t for m in members])
    theta = np.column_stack([m.spec.embed(m.theta, spec) for m in members])
    theta = np.repeat(theta, sizes, axis=1)[:, live]
    step = KERNELS[spec.family].step
    lengths = np.zeros(len(rngs), dtype=np.intp)  # filled in as rows end
    steps = [(live, t)]  # live rows and their k-th arrivals, per step k
    with np.errstate(over="ignore"):
        while live.size:
            tc = np.minimum(np.maximum(t, bounds[0]), bounds[1]) if bounds else t
            params, ok = spec.params_at(theta, tc)
            if not ok:
                feasible = np.array(
                    [spec.params_at(theta[:, k:k + 1], tc[k:k + 1])[1]
                     for k in range(live.size)]
                )
                for k in (~feasible).nonzero()[0]:
                    logger.warning(
                        "%s: parameters infeasible at t=%s; trajectory truncated",
                        names[live[k]], t[k],
                    )
                lengths[live[~feasible]] = len(steps)
                live, t, tc = live[feasible], t[feasible], tc[feasible]
                theta = theta[:, feasible]
                if not live.size:
                    break
                params, _ = spec.params_at(theta, tc)
            nxt = t + step(innovations.next(live, params), *params)
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
                live, t, theta = live[keep], nxt[keep], theta[:, keep]
                if not live.size:
                    break
            steps.append((live, t))
            if len(steps) >= _MAX_EVENTS:
                for i in live.tolist():
                    logger.warning(
                        "%s: trajectory hit max_events=%d before %s", names[i], _MAX_EVENTS, t_end
                    )
                break
    lengths[live] = len(steps)
    del innovations  # the slots are spent: free them before the arrivals are gathered

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
) -> Iterator[tuple[int, TrajectorySet]]:
    """M independent trajectories per record, from rng streams derived
    from (its seed, trajectory index).

    Records with one lockstep key are simulated together.  Yields
    ``(record index, set)`` once per record, in the order the locksteps
    finish.
    """
    if m < 1:
        raise DomainError("need at least one trajectory")
    if len(seeds) != len(records):
        raise DomainError(f"need one seed per record, got {len(seeds)} for {len(records)}")
    if any(seed < 0 for seed in seeds):
        raise DomainError(f"seeds must be non-negative, got {min(seeds)}")
    by_key: dict[tuple, list[int]] = {}
    for i, record in enumerate(records):
        by_key.setdefault(_lockstep_key(record), []).append(i)
    order = [i for indices in by_key.values() for i in indices]
    groups = ((records[i], _streams(seeds[i], m)) for i in order)
    for g, trajectories in simulate_trajectories(groups, anchor, t_start, t_end):
        i = order[g]
        yield i, TrajectorySet(trajectories, t_start, t_end, anchor, seeds[i])


def simulate_set(
    fitted: FittedModel,
    anchor: float,
    t_start: float,
    t_end: float,
    m: int,
    seed: int,
) -> TrajectorySet:
    """M independent trajectories from per-index derived rng streams."""
    return next(simulate_sets([fitted], anchor, t_start, t_end, m, [seed]))[1]


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
