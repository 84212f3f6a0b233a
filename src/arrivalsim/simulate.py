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
records of one ``simulate_sets`` call share locksteps by step kernel and
by whether their shape is constant or varies in time: the models of a
cell, and in a study the models of several cells, each record with its
own anchor, which only its first gaps read.  So the rows of a lockstep
draw with one sampler kind, attempts or one innovation per slot, and
keep their slots in blocks of one length and width.  A lockstep
evaluates its rows in :func:`~arrivalsim.models.join` of its members'
specs, the narrowest layout that holds them all, with a parameter column
per row (:meth:`ModelSpec.embed`): a kind that every member shares kept;
other Const and Lin functions padded with zeros to Quadr; Quadr and
Expon functions side by side as ``c + b1 t + b2 t t + exp(a1 + a2 t)``,
with a1 = -inf for a polynomial and b1 = b2 = 0 for an Expon; an Exp as
a Gamma with a shape of 1, which the rate step does not read; a GenGam
as a GenF with p = 0, since a step uses only mu and sigma.  Each gives
bitwise its model's own values at finite t.  Exp rows alone keep the Exp
layout.  Models with one step kernel, kind of shape and fit window share
a lockstep of at most ``_ROWS`` trajectories.  A model with ``_ROWS`` or
more trajectories fills a lockstep of its own, and steps the same way.

A lockstep's block length is the most arrivals on the horizon that a
member's record counts, its ``n_obs / days`` spells per day over its fit
window scaled to the horizon, plus a margin, so that most rows draw one
block.  It is capped so that the lockstep holds at most ``_ROWS *
_BLOCK`` slot values, 1.5 MB, and is ``_BLOCK`` where a record holds no
count; a record that runs alone draws at least a quarter of ``_BLOCK``
slots at a time.  A row holds 16 bytes per arrival while its lockstep
gathers them, so a full lockstep of trajectories with about 200 arrivals
peaked at 3.1 MB (tracemalloc, the 37 models of two 28-day cells at M =
200).  A lockstep's generators are built when it is packed, so one
lockstep's generators, slots and arrivals are held at once.  A
trajectory ends, with a warning, after ``_MAX_EVENTS`` arrivals, so that
a fit whose rate explodes inside the horizon costs bounded time and
memory.

Each trajectory owns an rng stream, which ``simulate_sets`` derives from
(seed, trajectory index) as ``SeedSequence(seed).spawn(m)[i]`` does, in
one vectorized pass over the records of a lockstep.  The stream first
yields the uniform of the first gap.  Once the first arrival lands
before the horizon end it yields the trajectory's slots one after
another: innovations, each of a GenF with p >= ``GENGAM_P_EPS`` from a
pair of gamma variates at its two shapes, or, for a gamma whose shape
varies in time, the uniforms (u0, u, v) of Marsaglia-Tsang attempts,
whose normal is ``ndtri(u0)``.  So no sampler's stream depends on how
many slots it draws at a time, and the block length changes no
trajectory.  A row draws its next block when it has spent the last, so a
trajectory does not depend on the rest of its set nor on the models it
shares a lockstep with, and a set is bitwise reproducible however the
work is scheduled and grouped and however large M is.
"""

from __future__ import annotations

import csv
import logging
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .distributions import KERNELS, truncated_quantile
from .errors import DomainError, ParameterError, RowError, SchemaError, TailExhaustedError
from .fitting import FittedModel
from .models import FuncKind, ModelSpec, feasible_on_grid, join

__all__ = [
    "TrajectorySet",
    "simulate_trajectories",
    "simulate_sets",
    "simulate_set",
    "cells_per_group",
    "counts_on_grid",
    "pick_anchor",
    "write_trajectories",
    "read_trajectories",
]

logger = logging.getLogger(__name__)

# Slots a row draws per rng call where a record of its lockstep holds no
# spell count; with ``_ROWS``, the bound on a lockstep's slot values.  A
# healthy trajectory has about 140 to 230 arrivals, so it draws one block
# or two; of 64, 128, 256 and 512, 256 simulated a 37-model cell fastest
# at M = 40 and M = 1,000 when every row drew blocks of one fixed length.
_BLOCK = 256
# Most trajectories in one lockstep.  The cap bounds the memory a
# lockstep adds over simulating its models one at a time, however many
# cells share it (module docstring).  A sweep of the row cap over the 37
# models of 3 cells of 28-day GenF fits, one cell to a lockstep (CPU ms
# per cell, best of 5 rounds, one process on a shared 2-core x86_64 VM;
# tracemalloc peak MB at M = 40 and 200), when a Marsaglia-Tsang row
# counted three rows and every row drew blocks of ``_BLOCK``:
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
# 160 MB (two times per arrival, as they are gathered) for M = 1,000.
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


def _streams(seeds: list[int], m: int) -> list[np.random.Generator]:
    """The generators ``default_rng(SeedSequence(seed).spawn(m)[i])``, bit
    for bit, for each seed of ``seeds`` in turn and each i < m < 2**32,
    from one vectorized pass over (seed, i).

    Child i's entropy is the seed's 32-bit words, zero-padded to the
    4-word pool, then i.  Mixing the padded words gives the pool of
    ``SeedSequence(seed)``, which a seed of more than 4 words has already
    mixed its further words into.  i is then hashed into each pool word,
    with the hash constant advanced past the 16 hashes of the pool's own
    mixing and the 4 of each further word, and the pool is hashed out
    into 8 words: the 4 uint64 of the child's
    ``generate_state(4, np.uint64)``.
    """
    pools, consts = [], []
    for seed in seeds:
        words = max(1, -(-seed.bit_length() // 32))
        pools.append(np.random.SeedSequence(seed).pool)
        const = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, words - 4), 1 << 32) & _MASK32
        consts.append([const * pow(_MULT_A, k, 1 << 32) & _MASK32 for k in range(5)])
    pools = np.array(pools, dtype=np.uint32)  # (seeds, 4)
    consts = np.array(consts, dtype=np.uint32)  # (seeds, 5): pool word w hashes with w, w + 1
    i = np.arange(m, dtype=np.uint32)
    mixed = []
    for w in range(4):
        h = i ^ consts[:, w, np.newaxis]  # (seeds, m)
        h *= consts[:, w + 1, np.newaxis]
        h ^= h >> np.uint32(16)
        h = np.uint32(_MIX_L) * pools[:, w, np.newaxis] - np.uint32(_MIX_R) * h
        h ^= h >> np.uint32(16)
        mixed.append(h)
    state = np.empty((len(seeds), m, 8), dtype=np.uint32)
    const = _INIT_B
    for k in range(8):
        h = mixed[k % 4] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        h *= np.uint32(const)
        h ^= h >> np.uint32(16)
        state[:, :, k] = h
    state = state.reshape(-1, 8).astype("<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_State(row))) for row in state]


class _Member:
    """The trajectories of one record, one lockstep row each."""

    def __init__(self, index, key, fitted, rngs, params, live, t):
        self.index, self.key, self.fitted = index, key, fitted
        # the innovation sampler at the anchor's parameters
        self.sampler = KERNELS[fitted.spec.family].innovations(key[1], *params)
        self.rngs = rngs
        self.live = live  # rows whose first arrival lands before the horizon end
        self.t = t  # and those arrivals


def _lockstep_key(fitted: FittedModel) -> tuple:
    """Models with one key can share a lockstep: ``(step kernel, whether
    the shape varies in time, clamp bounds)``.  Their samplers share one
    ``take``: Marsaglia-Tsang attempts for a Gamma whose shape varies in
    time, one innovation per slot for every other model."""
    lo, hi = fitted.window
    return _spec_key(fitted.spec) + (
        (lo, hi) if math.isfinite(lo) and math.isfinite(hi) else None,
    )


def _spec_key(spec: ModelSpec) -> tuple:
    return KERNELS[spec.family].step, spec.shape_kind not in (None, FuncKind.CONST)


def cells_per_group(specs: Iterable[ModelSpec], m: int) -> int:
    """How many cells, each simulating M = ``m`` trajectories of every model
    of ``specs``, fill the locksteps of every key they hold: the most
    cells any key's trajectories take before one more cell would overflow
    ``_ROWS``, and at least one.  One at M >= ``_ROWS``."""
    rows: dict[tuple, int] = {}
    for spec in specs:
        key = _spec_key(spec)
        rows[key] = rows.get(key, 0) + m
    return max(max(1, _ROWS // n) for n in rows.values())


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
    fitted: FittedModel, rngs: list[np.random.Generator], anchor: float, t_start: float,
    t_end: float,
) -> TrajectorySet:
    """One trajectory on ``(t_start, t_end)`` per generator of ``rngs``, in
    a lockstep of their own.  Each trajectory draws only from its own
    generator, in the order the module docstring states.
    """
    _check_horizon([anchor], t_start, t_end)
    return next(_simulate([(0, fitted, anchor, rngs)], t_start, t_end))[1]


def _check_horizon(anchors, t_start, t_end):
    for anchor in anchors:
        if not anchor <= t_start < t_end:
            raise DomainError(
                f"need anchor <= t_start < t_end, got {anchor}, {t_start}, {t_end}"
            )


def _simulate(lockstep, t_start, t_end) -> Iterator[tuple[int, TrajectorySet]]:
    """``(index, set)`` for each ``(index, fitted, anchor, rngs)`` of
    ``lockstep``, whose models share one lockstep key.

    A model whose first arrivals all miss the horizon yields at once; the
    others step together in one ``_lockstep``.
    """
    members: list[_Member] = []
    for index, fitted, anchor, rngs in lockstep:
        key = _lockstep_key(fitted)
        first = _first_arrivals(fitted, key[2], anchor, t_start, t_end, rngs)
        if first is None or not first[1].size:
            yield index, TrajectorySet(np.empty(0), np.zeros(len(rngs), dtype=np.intp))
        else:
            members.append(_Member(index, key, fitted, rngs, *first))
    if not members:
        return
    arrivals, lengths = _lockstep(members, t_end, _block_length(members, t_start, t_end))
    rows = np.cumsum([0] + [len(member.rngs) for member in members])
    ends = np.concatenate([[0], np.cumsum(lengths)])[rows]
    for k, member in enumerate(members):
        # a copy, so that a set kept while the next lockstep runs does not
        # keep this lockstep's arrivals
        yield member.index, TrajectorySet(
            arrivals[ends[k]:ends[k + 1]].copy(), lengths[rows[k]:rows[k + 1]]
        )


def _block_length(members: list[_Member], t_start: float, t_end: float) -> int:
    """Slots a row of ``members`` draws at a time: n + 3 sqrt(n) + 8, so
    that most rows draw one block, for n the most arrivals on [t_start,
    t_end) of a member, its record's ``n_obs / days`` spells per day over
    its fit window scaled to the horizon's span; ``_BLOCK`` if a record
    has no positive spell or day count or finite window span.  At most as
    many as keep the lockstep within ``_ROWS * _BLOCK`` slot values, or
    ``_BLOCK // 4``.

    The floor binds only for a record that runs alone with more than 1,024
    rows of attempts or 3,072 other rows; it keeps their draws to a few per
    trajectory, in a quarter of the memory blocks of ``_BLOCK`` take."""
    rows = sum(len(m.rngs) for m in members)
    cap = max(_BLOCK // 4, _ROWS * _BLOCK // (rows * members[0].sampler.width))
    n = 0.0
    for record in (m.fitted for m in members):
        span = record.window[1] - record.window[0]
        if not (record.n_obs > 0 and record.days > 0 and 0.0 < span < math.inf):
            return min(cap, _BLOCK)
        n = max(n, record.n_obs / record.days * (t_end - t_start) / span)
    return min(cap, math.ceil(n + 3.0 * math.sqrt(n) + 8.0))


class _Innovations:
    """Per-row blocks of ``size`` pre-drawn slots of one sampler ``take``,
    in one ``(rows, size, width)`` array.

    A row draws its next block from its own generator, straight into its
    row of the array, once it has spent its last slot, so a rejected slot
    costs that row's stream only.  The rows step at one shared position
    (``size`` before the first step, which draws a block) until the first
    of them has a slot rejected, and each at its own position in ``pos``
    from then on.
    """

    def __init__(self, rngs, samplers, size):
        self.rngs, self.draws = rngs, [s.draw for s in samplers]
        self.take = samplers[0].take
        self.size = size
        self.blocks = np.empty((len(rngs), size, samplers[0].width))
        self.at = size  # the shared position; None once the rows have moved apart
        self.pos = np.empty(len(rngs), dtype=np.intp)

    def next(self, live, params):
        """One innovation per row of ``live`` at its current parameters."""
        at = self.at
        if at is None:
            slots = self._advance(live)
        else:
            if at == self.size:
                self._draw(live.tolist())
                at = 0
            self.at = at + 1
            slots = self.blocks[live, at].T
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
        spent = pos == self.size
        if spent.any():
            self._draw(rows[spent].tolist())
            pos[spent] = 0
        self.pos[rows] = pos + 1
        return self.blocks[rows, pos].T

    def _draw(self, rows):
        for i in rows:
            self.draws[i](self.rngs[i], self.size, self.blocks[i])


def _lockstep(members: list[_Member], t_end: float, block: int) -> tuple[np.ndarray, np.ndarray]:
    """One trajectory per generator of ``members``, which share one key, in
    order, a row per trajectory, advanced in lockstep, each row drawing
    ``block`` slots at a time: the arrivals of the trajectories one after
    another and each one's count.

    Step k gives every live row its k-th arrival.  The rows step under
    the :func:`join` of the members' specs, each with its own parameter
    column, which is kept compacted to the live rows and compacted only on
    steps where rows end.  The rows live at step k are those with more than
    k arrivals, in row order, so a step keeps only its arrival times.
    """
    spec, bounds = join(m.fitted.spec for m in members), members[0].key[2]
    sizes = [len(m.rngs) for m in members]
    names = [name for m in members for name in [m.fitted.spec.name] * len(m.rngs)]
    rngs = [rng for m in members for rng in m.rngs]
    innovations = _Innovations(
        rngs, [sampler for m in members for sampler in [m.sampler] * len(m.rngs)], block
    )
    offsets = np.cumsum(sizes) - sizes
    live = np.concatenate([offset + m.live for offset, m in zip(offsets, members)])
    t = np.concatenate([m.t for m in members])
    theta = np.column_stack([m.fitted.spec.embed(m.fitted.theta, spec) for m in members])
    theta = np.repeat(theta, sizes, axis=1)[:, live]
    step = KERNELS[spec.family].step
    lengths = np.zeros(len(rngs), dtype=np.intp)  # filled in as rows end
    steps = [t]  # the k-th arrivals of the live rows, per step k
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
            steps.append(t)
            if len(steps) >= _MAX_EVENTS:
                for i in live.tolist():
                    logger.warning(
                        "%s: trajectory hit max_events=%d before %s", names[i], _MAX_EVENTS, t_end
                    )
                break
    lengths[live] = len(steps)
    del innovations  # the slots are spent: free them before the arrivals are gathered

    ends = np.cumsum(lengths)
    flat = np.empty(ends[-1])
    at = (ends - lengths)[lengths > 0]  # where each row's next arrival goes
    left = lengths[lengths > 0]  # and how many it has left
    for values in steps:
        if at.size > values.size:
            more = left > 0
            at, left = at[more], left[more]
        flat[at] = values
        at += 1
        left -= 1
    return flat, lengths


@dataclass(frozen=True)
class TrajectorySet:
    """M trajectories: their arrivals one trajectory after another, each
    trajectory's in increasing order, and each trajectory's count."""

    arrivals: np.ndarray
    lengths: np.ndarray

    @property
    def m(self) -> int:
        return self.lengths.size

    @property
    def trajectories(self) -> list[np.ndarray]:
        """One array of arrival times per trajectory."""
        return np.split(self.arrivals, np.cumsum(self.lengths)[:-1])

    def counts(self, grid: np.ndarray) -> np.ndarray:
        """(M, J) matrix of counting-path values on ``grid``, one
        :func:`counts_on_grid` row per trajectory.

        An arrival a is counted at grid point g_j iff a <= g_j, that is iff
        the first grid index i with g_i >= a is at most j: a per-row
        histogram of those indices, cumulated, gives the counts exactly.
        """
        grid = np.asarray(grid)
        m, j = self.m, grid.size
        bins = np.searchsorted(grid, self.arrivals, side="left")
        bins += np.repeat(np.arange(0, m * (j + 1), j + 1), self.lengths)
        hist = np.bincount(bins, minlength=m * (j + 1)).reshape(m, j + 1)
        del bins  # one arrival-sized array fewer at the peak, in the cumsum
        return np.cumsum(hist[:, :j], axis=1)


def simulate_sets(
    records: list[FittedModel],
    anchor: float | Sequence[float],
    t_start: float,
    t_end: float,
    m: int,
    seeds: list[int],
) -> Iterator[tuple[int, TrajectorySet]]:
    """M independent trajectories per record, from rng streams derived
    from (its seed, trajectory index), each anchored at ``anchor`` or at
    its own entry of ``anchor``.

    Records with one lockstep key share locksteps of whole records, in
    their order: as few as hold them in at most ``_ROWS`` trajectories
    each, of sizes that differ by one record at most; a record with more
    trajectories runs alone.  A lockstep's generators are built when it is
    packed, so only one lockstep's generators, slots and arrivals are held
    at once.  Yields ``(record index, set)`` once per record, as each
    lockstep finishes.
    """
    anchors = [float(anchor)] * len(records) if np.ndim(anchor) == 0 else list(map(float, anchor))
    if m < 1:
        raise DomainError("need at least one trajectory")
    for name, values in (("seed", seeds), ("anchor", anchors)):
        if len(values) != len(records):
            raise DomainError(
                f"need one {name} per record, got {len(values)} for {len(records)}"
            )
    if any(seed < 0 for seed in seeds):
        raise DomainError(f"seeds must be non-negative, got {min(seeds)}")
    _check_horizon(anchors, t_start, t_end)
    by_key: dict[tuple, list[int]] = {}
    for i, record in enumerate(records):
        by_key.setdefault(_lockstep_key(record), []).append(i)
    for indices in by_key.values():
        per = max(1, _ROWS // m)
        for chunk in np.array_split(indices, -(-len(indices) // per)):
            chunk = chunk.tolist()
            rngs = _streams([seeds[i] for i in chunk], m)
            lockstep = [
                (i, records[i], anchors[i], rngs[k * m:(k + 1) * m]) for k, i in enumerate(chunk)
            ]
            yield from _simulate(lockstep, t_start, t_end)


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


def pick_anchor(arrivals: np.ndarray, t_start: float) -> float:
    """Last observed arrival at or before ``t_start``; ``t_start`` if none."""
    z = np.asarray(arrivals, dtype=float)
    idx = int(np.searchsorted(z, t_start, side="right")) - 1
    return float(z[idx]) if idx >= 0 else t_start


_DUMP_COLUMNS = ("trajectory_index", "arrival_time_hours")


def write_trajectories(ts: TrajectorySet, path) -> None:
    """Dump a set as CSV rows (trajectory_index, arrival_time_hours); an
    empty trajectory is one row with an empty time."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_DUMP_COLUMNS)
        for i, tr in enumerate(ts.trajectories):
            writer.writerows([[i, repr(float(t))] for t in tr] or [[i, ""]])


def read_trajectories(path) -> TrajectorySet:
    """The set of a :func:`write_trajectories` dump, trajectories in index
    order, each one's arrivals sorted.  Raises :class:`SchemaError` for a
    dump without the two columns, :class:`RowError` for a row that the csv
    module cannot read or whose index is not a non-negative integer or
    whose time is neither empty nor a finite number, and
    :class:`ParameterError` for a dump without rows."""
    index, times, last = [], [], -1
    with Path(path).open(newline="") as handle:
        reader = csv.DictReader(handle)
        try:
            missing = [c for c in _DUMP_COLUMNS if c not in (reader.fieldnames or ())]
            if missing:
                raise SchemaError(f"{path} lacks the trajectory dump columns {missing}")
            for record in reader:
                i, t = record["trajectory_index"], record["arrival_time_hours"]
                try:
                    i, t = int(i), float(t) if t else None
                except (TypeError, ValueError):
                    raise RowError(reader.line_num, f"bad trajectory row {i!r}, {t!r}") from None
                if i < 0 or not (t is None or math.isfinite(t)):
                    raise RowError(reader.line_num, f"bad trajectory row {i!r}, {t!r}")
                last = max(last, i)
                if t is not None:
                    index.append(i)
                    times.append(t)
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            # the DictReader's own line_num is still the last good row's
            raise RowError(reader.reader.line_num, str(exc)) from exc
    if last < 0:
        raise ParameterError(f"no trajectories in {path}")
    index, times = np.array(index, dtype=np.intp), np.array(times)
    order = np.lexsort((times, index))
    return TrajectorySet(times[order], np.bincount(index, minlength=last + 1))
