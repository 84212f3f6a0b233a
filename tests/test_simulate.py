"""Trajectory simulation checks against Poisson and truncation oracles."""

import math

import numpy as np
import pytest
from scipy import special, stats

from arrivalsim.distributions import GENGAM_P_EPS, LOGNORMAL_Q_EPS, _genf_shapes, truncated_quantile
from arrivalsim.fitting import FittedModel
from arrivalsim.models import Family, FuncKind, enumerate_models, feasible_on_grid, model_from_name
from arrivalsim.scoring import minute_grid
from arrivalsim import distributions, simulate
from arrivalsim.errors import DomainError
from arrivalsim.simulate import (
    _BLOCK,
    _ROWS,
    TrajectorySet,
    cells_per_group,
    counts_on_grid,
    pick_anchor,
    read_trajectories,
    simulate_set,
    simulate_sets,
    simulate_trajectories,
    write_trajectories,
)
from test_distributions import oracle
from test_models import feasible_theta, params_at, scalar_func

T1, T2 = -3.25, -0.5
SPAN = T2 - T1

# models of each family whose stream use differs: blocks of exponential
# innovations, of beta-prime innovations (a pair of gamma draws, one at
# each of two shapes, per slot), and of Marsaglia-Tsang attempts for a
# gamma shape that varies in time, below 1 (boosted) and above it; every
# trajectory runs past its first block
STREAM_CASES = [
    ("Exp.Const", [100.0]),
    ("GenF.Lin.Const", [200.0, -5.0, 1.0, 0.5, 1.0]),
    ("Gamma.Lin.Lin", [120.0, -5.0, 1.0, 0.1]),
    ("Gamma.Lin.Lin", [300.0, -5.0, 3.0, 0.5]),
]

# the 7 Gamma models whose shape varies in time, at a rate of 150/h, so
# that their rows reach the end of a block at different steps
VARYING_GAMMA = [
    ("Gamma.Lin.Lin", [150.0, 0.0, 3.0, 0.5]),
    ("Gamma.Quadr.Lin", [150.0, 0.0, 0.0, 1.0, 0.1]),
    ("Gamma.Quadr.Quadr", [150.0, 0.0, 0.0, 2.0, 0.0, 0.1]),
    ("Gamma.Quadr.Expon", [150.0, 0.0, 0.0, 0.2, 0.0, 0.5]),
    ("Gamma.Expon.Lin", [149.0, 0.0, 0.0, 1.5, -0.2]),
    ("Gamma.Expon.Quadr", [149.0, 0.0, 0.0, 0.5, 0.1, 0.05]),
    ("Gamma.Expon.Expon", [149.0, 0.0, 0.0, 0.1, 1.0, 0.3]),
]

# rate 4t^2 + 16t + 15 is negative on (-2.5, -1.5), inside the window
NEGATIVE_RATE_CASES = [
    ("Exp.Quadr", [15.0, 16.0, 4.0]),
    ("Gamma.Quadr.Const", [15.0, 16.0, 4.0, 1.0]),
    ("GenGam.Quadr.Const", [15.0, 16.0, 4.0, 1.0, 0.5]),
    ("GenF.Quadr.Const", [15.0, 16.0, 4.0, 1.0, 0.5, 1.0]),
]


def fitted(name, theta, window=(T1, T2), counts=(0, 0)):
    """A record of ``name`` at ``theta`` fitted on ``window``, with ``counts``
    = (spells, days): none by default."""
    n_obs, days = counts
    return FittedModel(
        spec=model_from_name(name), theta=theta, log_likelihood=None, n_obs=n_obs, days=days,
        window=window,
    )


def simulate_one(fm, anchor, t_start, t_end, rng):
    """One trajectory from the kernel, on one generator."""
    return simulate_trajectories(fm, [rng], anchor, t_start, t_end).trajectories[0]


def marsaglia_tsang(a, slots):
    """One Gamma(a, 1) variate from ``slots``, an iterator of (normal,
    uniform, uniform) attempts, by the scalar algorithm of Marsaglia and
    Tsang (ACM TOMS 26, 2000); a below 1 takes the a + 1 boost."""
    d = (a + 1.0 if a < 1.0 else a) - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    for x, u, v in slots:
        y = 1.0 + c * x
        if y <= 0.0:
            continue
        y3 = y ** 3
        if u < 1.0 - 0.0331 * x ** 4 or math.log(u) < 0.5 * x * x + d * (1.0 - y3 + math.log(y3)):
            return d * y3 * (v ** (1.0 / a) if a < 1.0 else 1.0)


def reference_trajectory(fm, anchor, t_start, t_end, rng):
    """One trajectory from a sequential stepper on scalars: the oracle of the
    lockstep kernel, with the same use of ``rng``: the first gap's uniform,
    then one slot at a time, an innovation or, for a gamma with a
    time-varying shape, the uniforms (u0, u, v) of an attempt, read as
    (normal ndtri(u0), uniform, uniform).  A GenF with p >= GENGAM_P_EPS
    draws a slot's gamma variate at each of its two shapes in turn."""
    spec, theta, family = fm.spec, fm.theta, fm.spec.family
    lo, hi = fm.window
    rate = scalar_func(spec.rate_kind, theta[spec.rate_slice])
    if spec.shape_kind is not None:
        shape = scalar_func(spec.shape_kind, theta[spec.shape_slice])
    if family is Family.EXP:
        draw = lambda: rng.exponential()
    elif family is Family.GAMMA and spec.shape_kind is FuncKind.CONST:
        draw = lambda: rng.gamma(shape(0.0))
    elif family is Family.GAMMA:
        def draw():
            u0, u, v = rng.random(3)
            return special.ndtri(u0), u, v
    else:
        q = float(theta[spec.q_index])
        p = float(theta[spec.p_index]) if family is Family.GENF else 0.0
        if p >= GENGAM_P_EPS:
            delta, s1, s2 = _genf_shapes(q, p)
            ratio = s2 / s1
            draw = lambda: np.log(ratio * rng.gamma(s1) / rng.gamma(s2)) / delta
        elif abs(q) >= LOGNORMAL_Q_EPS:
            draw = lambda: np.log(rng.gamma(q ** -2) / q ** -2) / q
        else:
            draw = lambda: rng.standard_normal()

    def slots():
        while True:
            yield draw()

    stream = slots()
    first = params_at(spec, theta, min(max(anchor, lo), hi))
    t = anchor + float(truncated_quantile(family, first, t_start - anchor, rng.uniform()))
    out = []
    while t < t_end:
        out.append(t)
        tc = min(max(t, lo), hi)
        if family is Family.GAMMA and spec.shape_kind is not FuncKind.CONST:
            t += marsaglia_tsang(shape(tc), stream) / rate(tc)
        elif family in (Family.EXP, Family.GAMMA):
            t += next(stream) / rate(tc)
        else:
            t += math.exp(math.log(shape(tc) / rate(tc)) + shape(tc) ** -0.5 * next(stream))
    return np.array(out)


@pytest.fixture(scope="module")
def poisson_set():
    """10^4 homogeneous-Poisson trajectories at rate 200/h."""
    return simulate_set(fitted("Exp.Const", [200.0]), T1, T1, T2, m=10_000, seed=123)


class TestPoissonOracle:
    def test_mean_count(self, poisson_set):
        # Poisson with intensity 200 * 2.75 = 550 per trajectory
        counts = np.array([len(tr) for tr in poisson_set.trajectories])
        assert abs(counts.mean() - 550.0) < 3.0 * math.sqrt(550.0 / counts.size)

    def test_dispersion(self, poisson_set):
        counts = np.array([len(tr) for tr in poisson_set.trajectories])
        ratio = counts.var(ddof=1) / counts.mean()
        assert 0.94 < ratio < 1.06

    def test_disjoint_increments_uncorrelated(self, poisson_set):
        first = np.array(
            [np.sum((tr > -3.0) & (tr <= -2.0)) for tr in poisson_set.trajectories]
        )
        second = np.array(
            [np.sum((tr > -2.0) & (tr <= -1.0)) for tr in poisson_set.trajectories]
        )
        rho = np.corrcoef(first, second)[0, 1]
        assert abs(rho) < 0.05

    def test_all_arrivals_inside_horizon(self, poisson_set):
        for tr in poisson_set.trajectories:
            assert np.all((tr > T1) & (tr < T2))
            assert np.all(np.diff(tr) > 0.0)


class TestFirstArrival:
    def test_zero_gap_matches_untruncated_kernel(self):
        """With anchor = t_start the first inter-arrival follows the plain
        fitted distribution."""
        fm = fitted("GenGam.Const.Const", [150.0, 1.6, 0.8])
        ts = simulate_set(fm, T1, T1, T2, m=10_000, seed=7)
        firsts = np.array([tr[0] - T1 for tr in ts.trajectories if len(tr)])
        law = oracle(Family.GENGAM, (math.log(1.6 / 150.0), 1.6 ** -0.5, 0.8))
        # censor both sides at the horizon length to compare like with like
        cens = law.cdf(SPAN)
        d = stats.kstest(firsts, lambda x: law.cdf(x) / cens).statistic
        assert d < 0.02

    def test_truncated_gap_memoryless_for_exp(self):
        lam = 80.0
        anchor = T1 - 0.3
        ts = simulate_set(fitted("Exp.Const", [lam]), anchor, T1, T2, m=5_000, seed=8)
        firsts = np.array([tr[0] - T1 for tr in ts.trajectories if len(tr)])
        law = stats.expon(scale=1.0 / lam)
        cens = law.cdf(SPAN)
        d = stats.kstest(firsts, lambda x: law.cdf(x) / cens).statistic
        assert d < 0.02

    def test_tail_exhausted_gives_empty_trajectory(self, caplog):
        with caplog.at_level("WARNING"):
            tr = simulate_one(
                fitted("Exp.Const", [200.0]),
                anchor=-10.0,
                t_start=T1,
                t_end=T2,
                rng=np.random.default_rng(0),
            )
        assert tr.size == 0
        assert "exhausted" in caplog.text

    def test_tail_exhausted_warns_once_per_trajectory(self, caplog):
        with caplog.at_level("WARNING"):
            ts = simulate_set(fitted("Exp.Const", [200.0]), -10.0, T1, T2, m=5, seed=0)
        assert [tr.size for tr in ts.trajectories] == [0] * 5
        assert len(caplog.records) == 5
        assert all("truncated tail exhausted" in r.getMessage() for r in caplog.records)

    def test_a_first_gap_probability_that_rounds_to_one_does_not_abort(self):
        """From anchor -6.01 the rate-10 tail beyond t_start keeps 1.03e-12
        of its mass, inside the tail check.  Seed 1609 gives one of 40
        trajectories a uniform within about 5e-5 of 1, where F(y) + u(1 - F(y))
        rounds to 1.0; the quantile takes the largest double below 1."""
        anchor = -6.01
        fy = -math.expm1(-10.0 * (T1 - anchor))
        u = [np.random.default_rng(s).uniform() for s in np.random.SeedSequence(1609).spawn(40)]
        assert sum(fy + v * (1.0 - fy) == 1.0 for v in u) == 1
        ts = simulate_set(fitted("Exp.Const", [10.0]), anchor, T1, T2, m=40, seed=1609)
        assert all(tr.size and T1 < tr[0] < T2 for tr in ts.trajectories)


class TestStreams:
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 12345, 2**130 + 7] + [
        int(s) for s in np.random.default_rng(31).integers(0, 2**63, 4, dtype=np.uint64)
    ]

    @pytest.mark.parametrize("m", [1, 7, 300, 1000])
    def test_streams_are_numpy_spawned_streams(self, m):
        """Trajectory i's generator is default_rng(SeedSequence(seed).spawn(m)[i]),
        bit for bit, for every seed of one call, seed by seed: numpy's own
        SeedSequence is the reference.  The seeds include 0 and seeds wider
        than four 32-bit words."""
        for seeds in (self.SEEDS, self.SEEDS[:1], self.SEEDS[-1:]):
            got = simulate._streams(seeds, m)
            want = [np.random.default_rng(c)
                    for seed in seeds for c in np.random.SeedSequence(seed).spawn(m)]
            assert [g.bit_generator.state for g in got] == [w.bit_generator.state for w in want]
            assert [g.random() for g in got] == [w.random() for w in want]

    def test_a_negative_seed_is_refused(self):
        with pytest.raises(DomainError, match="non-negative"):
            simulate_set(fitted("Exp.Const", [10.0]), T1, T1, T2, m=3, seed=-1)

    def test_one_seed_per_record(self):
        records = [fitted("Exp.Const", [10.0]), fitted("Exp.Lin", [10.0, 1.0])]
        for seeds in ([1], [1, 2, 3]):
            with pytest.raises(DomainError, match="one seed per record"):
                next(simulate_sets(records, T1, T1, T2, 3, seeds))

    def test_one_anchor_per_record_at_or_before_the_horizon(self):
        records = [fitted("Exp.Const", [10.0]), fitted("Exp.Lin", [10.0, 1.0])]
        for anchors in ([T1], [T1] * 3):
            with pytest.raises(DomainError, match="one anchor per record"):
                next(simulate_sets(records, anchors, T1, T2, 3, [1, 2]))
        with pytest.raises(DomainError, match="anchor <= t_start"):
            next(simulate_sets(records, [T1, T1 + 0.1], T1, T2, 3, [1, 2]))


class TestDeterminism:
    def test_same_seed_identical(self):
        fm = fitted("Gamma.Expon.Lin", [5.0, 5.0, 0.9, 1.5, 0.1])
        a = simulate_set(fm, T1, T1, T2, m=50, seed=99)
        b = simulate_set(fm, T1, T1, T2, m=50, seed=99)
        assert a.m == b.m
        for ta, tb in zip(a.trajectories, b.trajectories):
            np.testing.assert_array_equal(ta, tb)

    def test_m1_equals_first_derived_stream(self):
        for name, theta in STREAM_CASES:
            fm = fitted(name, theta)
            one = simulate_set(fm, T1, T1, T2, m=1, seed=5)
            stream = np.random.default_rng(np.random.SeedSequence(5).spawn(1)[0])
            direct = simulate_one(fm, T1, T1, T2, stream)
            assert direct.size > _BLOCK
            np.testing.assert_array_equal(one.trajectories[0], direct, err_msg=name)

    def test_prefix_stable_in_m(self):
        """Per-trajectory streams: growing M never changes earlier members."""
        for name, theta in STREAM_CASES:
            fm = fitted(name, theta)
            small = simulate_set(fm, T1, T1, T2, m=3, seed=5)
            large = simulate_set(fm, T1, T1, T2, m=6, seed=5)
            for ta, tb in zip(small.trajectories, large.trajectories):
                np.testing.assert_array_equal(ta, tb, err_msg=name)


def test_lockstep_matches_scalar_reference_on_every_model():
    """All 37 models, and the Gamma models with a time-varying shape at a
    rate that spends more than a block: the kernel's arrivals equal the
    sequential oracle's up to the last bits of np.exp/np.log against
    math.exp/math.log."""
    rng = np.random.default_rng(3)
    grid = minute_grid(T1, T2)
    anchor = T1 - 0.01
    records = [fitted(spec.name, feasible_theta(spec, rng)) for spec in enumerate_models()]
    for fm in records + [fitted(name, theta) for name, theta in VARYING_GAMMA]:
        spec = fm.spec
        ts = simulate_set(fm, anchor, T1, T2, m=8, seed=21)
        streams = np.random.SeedSequence(21).spawn(8)
        for got, stream in zip(ts.trajectories, streams):
            want = reference_trajectory(fm, anchor, T1, T2, np.random.default_rng(stream))
            np.testing.assert_array_equal(
                counts_on_grid(got, grid), counts_on_grid(want, grid), err_msg=spec.name
            )
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12, err_msg=spec.name)


@pytest.mark.parametrize("name, theta", NEGATIVE_RATE_CASES)
def test_infeasible_parameters_end_the_trajectory(name, theta, caplog):
    with caplog.at_level("WARNING"):
        ts = simulate_set(fitted(name, theta), T1, T1, T2, m=40, seed=4)
    messages = [r.getMessage() for r in caplog.records]
    assert messages and all(
        "parameters infeasible at t=" in msg and msg.endswith("trajectory truncated")
        for msg in messages
    )
    # a trajectory ends at its first arrival where the rate is not positive
    ended_inside = [
        tr for tr in ts.trajectories if tr.size and 4 * tr[-1] ** 2 + 16 * tr[-1] + 15 <= 0
    ]
    assert len(ended_inside) == len(messages)
    for tr in ts.trajectories:
        assert np.all(4 * tr[:-1] ** 2 + 16 * tr[:-1] + 15 > 0)


def test_infeasible_parameters_at_the_anchor_give_empty_trajectories(caplog):
    """Exp.Lin rate 1 + 10t is negative at the clamped anchor -3.25, and a
    GenGam q that is NaN (as a resumed fit record may hold) is infeasible
    everywhere: every trajectory is empty, with one warning each, instead
    of an error."""
    for name, theta in [("Exp.Lin", [1.0, 10.0]), ("GenGam.Const.Const", [150.0, 1.6, math.nan])]:
        caplog.clear()
        with caplog.at_level("WARNING"):
            ts = simulate_set(fitted(name, theta), -4.0, T1, T2, m=3, seed=0)
        assert [tr.size for tr in ts.trajectories] == [0, 0, 0]
        messages = [r.getMessage() for r in caplog.records]
        assert messages == [f"{name}: parameters infeasible at t=-3.25; trajectory truncated"] * 3


class TestTimeVarying:
    def test_rising_rate_concentrates_late_arrivals(self):
        fm = fitted("Exp.Expon", [1.0, 6.0, 1.5])
        ts = simulate_set(fm, T1, T1, T2, m=400, seed=11)
        early = sum(np.sum(tr <= -2.0) for tr in ts.trajectories)
        late = sum(np.sum(tr > -2.0) for tr in ts.trajectories)
        assert late > 2 * early

    def test_parameters_clamped_to_fit_window(self):
        """An anchor before the window evaluates the exponential rate at the
        window start instead of exploding."""
        fm = fitted("Exp.Expon", [1.0, 6.0, -5.0])  # rate grows fast backwards
        tr = simulate_one(fm, -6.0, T1, T2, np.random.default_rng(1))
        assert np.all((tr > T1) & (tr < T2))


class TestHelpers:
    def test_counts_on_grid(self):
        grid = np.array([-3.0, -2.0, -1.0])
        arrivals = np.array([-2.5, -2.0, -0.9])
        np.testing.assert_array_equal(counts_on_grid(arrivals, grid), [0, 2, 2])

    def test_pick_anchor(self):
        arrivals = np.array([-5.0, -3.5, -3.3, -1.0])
        assert pick_anchor(arrivals, T1) == -3.3
        assert pick_anchor(np.array([-1.0]), T1) == T1
        assert pick_anchor(np.array([-3.25, -1.0]), T1) == -3.25

    def test_max_events_guard(self, caplog, monkeypatch):
        monkeypatch.setattr(simulate, "_MAX_EVENTS", 100)
        with caplog.at_level("WARNING"):
            tr = simulate_one(
                fitted("Exp.Const", [5000.0]), T1, T1, T2, np.random.default_rng(2)
            )
        assert tr.size == 100
        assert "max_events" in caplog.text

    def test_an_exploding_rate_ends_its_trajectories_at_the_event_bound(self, caplog):
        # a fitted rate that explodes after t = -0.509: a trajectory that
        # lands where the rate is large but finite runs into the default
        # event bound, with one warning, instead of toward a million events
        record = fitted("Exp.Expon", [80.5, 4051.65, 7963.2])
        with caplog.at_level("WARNING"):
            ts = simulate_set(record, T1, T1, T2, m=8, seed=0)
        sizes = [tr.size for tr in ts.trajectories]
        assert max(sizes) == 10_000 and sizes.count(10_000) == 4
        messages = [r.getMessage() for r in caplog.records if "max_events" in r.getMessage()]
        assert messages == ["Exp.Expon: trajectory hit max_events=10000 before -0.5"] * 4

    def test_write_trajectories(self, tmp_path):
        fm = fitted("Exp.Const", [10.0])
        ts = simulate_set(fm, T1, T1, T2, m=3, seed=0)
        path = tmp_path / "traj.csv"
        write_trajectories(ts, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "trajectory_index,arrival_time_hours"
        assert len(lines) == 1 + sum(len(tr) for tr in ts.trajectories)


def simulate_both(caplog, records, m, anchor=T1):
    """Simulate ``records`` in one shared ``simulate_sets`` call and each in
    its own ``simulate_set`` call; check that both ways give the same
    trajectories and warnings, and return the shared call's sets and its
    sorted warnings."""
    seeds = list(range(100, 100 + len(records)))
    runs = []
    for run in (
        lambda: dict(simulate_sets(records, anchor, T1, T2, m, seeds)),
        lambda: dict(enumerate(
            simulate_set(r, anchor, T1, T2, m, s) for r, s in zip(records, seeds)
        )),
    ):
        caplog.clear()
        with caplog.at_level("WARNING"):
            sets = run()
        messages = sorted(r.getMessage() for r in caplog.records)
        runs.append(([sets[i] for i in range(len(records))], messages))
    (grouped, messages), (alone, alone_messages) = runs
    for record, a, b in zip(records, grouped, alone):
        assert a.m == b.m, record.spec.name
        for x, y in zip(a.trajectories, b.trajectories):
            np.testing.assert_array_equal(x, y, err_msg=record.spec.name)
    assert messages == alone_messages
    return grouped, messages


@pytest.fixture
def lockstep_sizes(monkeypatch):
    """Number of models in each lockstep run while the test runs."""
    sizes = []
    kernel = simulate._lockstep

    def recording(members, *args):
        sizes.append(len(members))
        return kernel(members, *args)

    monkeypatch.setattr(simulate, "_lockstep", recording)
    return sizes


class TestGroupedLocksteps:
    """A model simulated in a group gives the trajectories and warnings it
    gives alone."""

    def test_every_model(self, caplog, lockstep_sizes):
        rng = np.random.default_rng(5)
        records = [fitted(spec.name, feasible_theta(spec, rng)) for spec in enumerate_models()]
        simulate_both(caplog, records, m=8, anchor=T1 - 0.01)
        assert lockstep_sizes[-37:] == [1] * 37  # alone
        # Exp and Gamma, then GenGam and GenF, each with a constant shape and
        # with one that varies in time
        assert lockstep_sizes[:-37] == [8, 7, 8, 14]

    def test_gamma_attempts_do_not_depend_on_companions(self, caplog, lockstep_sizes, monkeypatch):
        """The 7 Gamma models with a time-varying shape share a lockstep;
        rows reject attempts at different steps, and each reads only its
        own stream."""
        attempts = distributions._GAMMA_ATTEMPTS
        rejected = []

        def take(slots, *params):
            w, ok = attempts.take(slots, *params)
            rejected.append(int(np.count_nonzero(~ok)))
            return w, ok

        monkeypatch.setattr(distributions, "_GAMMA_ATTEMPTS", attempts._replace(take=take))
        constant = [(n, feasible_theta(model_from_name(n), np.random.default_rng(8)))
                    for n in ["Gamma.Const.Const", "Gamma.Lin.Const", "Gamma.Quadr.Const",
                              "Gamma.Expon.Const"]]
        records = [fitted(n, theta) for n, theta in VARYING_GAMMA + constant]
        grouped, _ = simulate_both(caplog, records, m=20)
        assert sum(rejected) > 0
        sizes = [tr.size for ts in grouped[:7] for tr in ts.trajectories]
        assert min(sizes) < _BLOCK < max(sizes)
        # one step kernel: the 7 with a time-varying shape share a lockstep,
        # and the 4 with a constant one another
        assert lockstep_sizes[:-11] == [7, 4]

    @pytest.mark.parametrize("cell", ["every model", "Gamma"])
    def test_the_rows_of_a_lockstep_share_one_sampler_take(self, caplog, monkeypatch, cell):
        """All 37 models, and the 7 Gamma models with a time-varying shape
        beside the 4 with a constant one: each lockstep's rows draw either
        one innovation per slot or Marsaglia-Tsang attempts, never both."""
        takes = []
        kernel = simulate._lockstep

        def recording(members, *args):
            takes.append({m.sampler.take for m in members})
            return kernel(members, *args)

        monkeypatch.setattr(simulate, "_lockstep", recording)
        rng = np.random.default_rng(5)
        if cell == "every model":
            cases = [(spec.name, feasible_theta(spec, rng)) for spec in enumerate_models()]
        else:
            cases = VARYING_GAMMA + [
                (n, feasible_theta(model_from_name(n), rng))
                for n in ["Gamma.Const.Const", "Gamma.Lin.Const", "Gamma.Quadr.Const",
                          "Gamma.Expon.Const"]
            ]
        simulate_both(caplog, [fitted(n, theta) for n, theta in cases], m=8, anchor=T1 - 0.01)
        assert [len(t) for t in takes] == [1] * len(takes)
        assert {take for t in takes for take in t} == {
            distributions._accept_all, distributions._marsaglia_tsang
        }

    def test_rows_beyond_the_cap_split_into_locksteps(self, caplog, lockstep_sizes):
        # one lockstep key, 7 * 120 rows > _ROWS: two locksteps of whole
        # models, as even as they go
        names = ["GenGam.Const.Const", "GenGam.Lin.Const", "GenGam.Quadr.Const", "GenF.Const.Const",
                 "GenF.Lin.Const", "GenF.Quadr.Const", "GenF.Expon.Const"]
        rng = np.random.default_rng(6)
        records = [fitted(n, feasible_theta(model_from_name(n), rng)) for n in names]
        simulate_both(caplog, records, m=120)
        assert 6 * 120 <= _ROWS < 7 * 120
        assert lockstep_sizes == [4, 3] + [1] * 7

    @pytest.mark.parametrize("names, layout", [
        (["Exp.Const", "Exp.Lin", "Exp.Quadr"], ["Exp.Quadr"]),
        (["Exp.Expon"], ["Exp.Expon"]),
        (["Gamma.Lin.Const", "Gamma.Quadr.Lin", "Exp.Lin"],
         ["Gamma.Lin.Const", "Gamma.Quadr.Lin"]),
        (["GenGam.Const.Const", "GenF.Lin.Lin", "GenF.Quadr.Const"],
         ["GenF.Quadr.Const", "GenF.Lin.Lin"]),
        (["Exp.Lin", "Gamma.Expon.Const"], ["Gamma.Quadr+Expon.Const"]),
    ])
    def test_a_lockstep_steps_in_the_narrowest_layout_of_its_models(
        self, caplog, monkeypatch, names, layout
    ):
        """Exp rows alone keep the Exp layout, a kind that every member
        shares stays, other polynomials widen to Quadr, and a Quadr and an
        Expon function join.  A model whose shape varies in time steps
        apart from those whose shape does not: the Gamma.Quadr.Lin and
        GenF.Lin.Lin rows have locksteps of their own, after the rows they
        would otherwise join."""
        layouts = []
        kernel = simulate.join

        def recording(specs):
            spec = kernel(specs)
            layouts.append(spec.name)
            return spec

        monkeypatch.setattr(simulate, "join", recording)
        rng = np.random.default_rng(9)
        records = [fitted(n, feasible_theta(model_from_name(n), rng)) for n in names]
        simulate_both(caplog, records, m=10)
        assert layouts[:-len(records)] == layout

    def test_a_model_with_more_rows_than_the_cap_runs_alone(self, caplog, lockstep_sizes):
        records = [fitted("Exp.Const", [40.0]), fitted("Exp.Lin", [40.0, 2.0])]
        simulate_both(caplog, records, m=_ROWS + 1)
        assert lockstep_sizes == [1, 1, 1, 1]

    def test_the_models_of_several_cells_share_a_lockstep(self, lockstep_sizes):
        """Two cells' models, each cell with its own anchor, share one
        lockstep at small M, and each gives the trajectories it gives alone;
        a model with ``_ROWS`` trajectories or more still runs alone."""
        records = [fitted("Exp.Const", [40.0]), fitted("Exp.Lin", [40.0, 2.0])] * 2
        anchors = [T1 - 0.2, T1 - 0.2, T1 - 0.05, T1 - 0.05]
        seeds = [1, 2, 3, 4]
        for m, sizes in ((10, [4]), (_ROWS, [1] * 4)):
            lockstep_sizes.clear()
            grouped = dict(simulate_sets(records, anchors, T1, T2, m, seeds))
            assert lockstep_sizes == sizes
            for i, (record, anchor, seed) in enumerate(zip(records, anchors, seeds)):
                alone = simulate_set(record, anchor, T1, T2, m, seed)
                np.testing.assert_array_equal(grouped[i].arrivals, alone.arrivals)
                np.testing.assert_array_equal(grouped[i].lengths, alone.lengths)

    def test_gamma_attempts_count_one_row_each(self, caplog, lockstep_sizes):
        """A lockstep holds at most ``_ROWS`` trajectories, whatever their
        sampler: a Gamma whose shape varies in time counts one row, like
        any other model."""
        records = [fitted(name, theta) for name, theta in VARYING_GAMMA]
        for m, sizes in ((_ROWS // 7, [7]), (_ROWS // 7 + 1, [4, 3])):
            lockstep_sizes.clear()
            simulate_both(caplog, records, m=m)
            assert lockstep_sizes[:-7] == sizes

    def test_the_catalogue_of_two_cells_packs_into_five_locksteps(self, lockstep_sizes):
        """37 models x 2 cells at M = 40: Exp and constant-shape Gamma (16
        records), time-varying Gamma (14), constant-shape GenGam and GenF
        (16) each fill one lockstep, and the 28 time-varying GenGam and GenF
        records two."""
        rng = np.random.default_rng(5)
        records = [fitted(spec.name, feasible_theta(spec, rng)) for spec in enumerate_models()] * 2
        anchors = [T1 - 0.01] * 37 + [T1 - 0.05] * 37
        dict(simulate_sets(records, anchors, T1, T2, 40, list(range(74))))
        assert lockstep_sizes == [16, 14, 16, 14, 14]

    def test_infeasible_rows_end_with_one_warning_naming_their_model(self, caplog):
        healthy = [
            ("Exp.Const", [50.0]),
            ("Gamma.Lin.Const", [60.0, -5.0, 1.5]),
            ("GenGam.Lin.Const", [60.0, -5.0, 1.0, 0.5]),
            ("GenF.Const.Const", [80.0, 1.0, 0.5, 1.0]),
        ]
        records = [fitted(n, theta) for n, theta in NEGATIVE_RATE_CASES + healthy]
        grouped, messages = simulate_both(caplog, records, m=40)
        for k, (record, ts) in enumerate(zip(records, grouped)):
            ended = sum(
                1 for tr in ts.trajectories
                if tr.size and not feasible_on_grid(record.spec, record.theta, tr[-1])
            )
            assert (ended > 0) == (k < len(NEGATIVE_RATE_CASES))
            named = [msg for msg in messages if msg.startswith(record.spec.name + ":")]
            assert len(named) == ended
            assert all(msg.endswith("trajectory truncated") for msg in named)

    def test_tail_exhaustion(self, caplog):
        # from anchor -10 the rate-200 tail beyond t_start is exhausted
        records = [
            fitted("Exp.Const", [200.0]), fitted("Exp.Const", [0.5]), fitted("Exp.Lin", [3.0, 0.1])
        ]
        grouped, messages = simulate_both(caplog, records, m=6, anchor=-10.0)
        assert [tr.size for tr in grouped[0].trajectories] == [0] * 6
        assert sum(tr.size for ts in grouped[1:] for tr in ts.trajectories) > 0
        assert len(messages) == 6
        assert all("Exp.Const: truncated tail exhausted" in msg for msg in messages)

    def test_max_events(self, caplog, monkeypatch):
        monkeypatch.setattr(simulate, "_MAX_EVENTS", 100)
        records = [fitted("Exp.Const", [5000.0]), fitted("Exp.Lin", [20.0, 1.0])]
        grouped, messages = simulate_both(caplog, records, m=5)
        assert [tr.size for tr in grouped[0].trajectories] == [100] * 5
        assert all(0 < tr.size < 100 for tr in grouped[1].trajectories)
        assert messages == ["Exp.Const: trajectory hit max_events=100 before -0.5"] * 5


def trajectory_set(trajectories):
    lengths = np.array([len(tr) for tr in trajectories], dtype=np.intp)
    return TrajectorySet(np.concatenate(trajectories), lengths)


def counts_per_row(ts, grid):
    """The oracle of ``ts.counts``: :func:`counts_on_grid` row by row."""
    return np.vstack([counts_on_grid(tr, grid) for tr in ts.trajectories])


def test_counts_equal_counts_on_grid_per_row():
    rng = np.random.default_rng(0)
    grid = minute_grid(T1, T2)
    trajectories = []
    for k in range(40):
        inside = rng.uniform(T1 - 0.1, T2 + 0.1, rng.integers(0, 15))
        on_grid = rng.choice(grid, rng.integers(0, 4))  # exactly on grid points
        trajectories.append(np.sort(np.concatenate([inside, on_grid])) if k % 4 else np.empty(0))
    trajectories.append(np.empty(0))
    want = np.vstack([counts_on_grid(tr, grid) for tr in trajectories])
    got = trajectory_set(trajectories).counts(grid)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(
        trajectory_set([np.empty(0)]).counts(grid), np.zeros((1, grid.size)))


def test_counts_bin_the_flat_arrivals_as_counts_on_grid_does(caplog):
    """Sets with empty trajectories: a tail exhausted from an early anchor,
    and a rate too low to give every trajectory an arrival."""
    grid = minute_grid(T1, T2)
    records = [fitted("Exp.Const", [200.0]), fitted("Exp.Const", [0.5]), fitted("Exp.Lin", [3.0, 0.1])]
    with caplog.at_level("WARNING"):
        sets = dict(simulate_sets(records, [-10.0, T1, T1], T1, T2, 40, [1, 2, 3]))
    empty = [int(np.count_nonzero(sets[i].lengths == 0)) for i in range(3)]
    assert empty[0] == 40 and 0 < empty[1] < 40
    for ts in sets.values():
        assert sum(len(tr) for tr in ts.trajectories) == ts.arrivals.size
        np.testing.assert_array_equal(ts.counts(grid), counts_per_row(ts, grid))


@pytest.fixture
def block_lengths(monkeypatch):
    """(rows, slot width, block length) of each lockstep run while the test
    runs."""
    runs = []
    kernel = simulate._lockstep

    def recording(members, t_end, block):
        runs.append((sum(len(m.rngs) for m in members), members[0].sampler.width, block))
        return kernel(members, t_end, block)

    monkeypatch.setattr(simulate, "_lockstep", recording)
    return runs


def margin(n):
    return math.ceil(n + 3.0 * math.sqrt(n) + 8.0)


# (spells, days) of records fitted on the horizon: 100/h and 40/h over
# its 2.75 h
FAST, SLOW = (1100, 4), (440, 4)


@pytest.mark.parametrize("names, thetas, counts, window, t_end, m, want", [
    # the larger count, 275 arrivals on the horizon, and its margin
    (["Exp.Const", "Exp.Const"], [[40.0], [100.0]], [SLOW, FAST], (T1, T2), T2, 10,
     margin(275.0)),
    # a horizon that ends before the window: 100/h over 1.75 h of it
    (["Exp.Const"], [[100.0]], [FAST], (T1, T2), -1.5, 10, margin(175.0)),
    # a window that starts before the horizon: 2.75 h of its 3.75 h; the
    # count is the record's, whatever the rate
    (["Exp.Expon"], [[10.0, 5.0, 3.0]], [FAST], (T1 - 1.0, T2), T2, 10,
     margin(275.0 * SPAN / 3.75)),
    # 768 rows keep it to _BLOCK slots
    (["Exp.Const", "Exp.Const"], [[40.0], [100.0]], [SLOW, FAST], (T1, T2), T2, _ROWS // 2,
     _BLOCK),
    # 763 rows of attempts, three slot values each
    ([name for name, _ in VARYING_GAMMA], [theta for _, theta in VARYING_GAMMA], [FAST] * 7,
     (T1, T2), T2, _ROWS // 7, _ROWS * _BLOCK // (3 * 7 * (_ROWS // 7))),
    # one record of 1,100 rows of attempts: the cap, 59, is below the floor
    (["Gamma.Lin.Lin"], [[40.0, 0.0, 3.0, 0.5]], [SLOW], (T1, T2), T2, 1100, _BLOCK // 4),
    # a GenF with p >= GENGAM_P_EPS and a GenGam share a lockstep: 110
    # arrivals on the horizon
    (["GenGam.Const.Const", "GenF.Const.Const"], [[150.0, 1.6, 0.8], [150.0, 1.6, 0.8, 1.0]],
     [SLOW, SLOW], (T1, T2), T2, 10, margin(110.0)),
    # a record without spells, days or a window span: _BLOCK
    (["Exp.Const", "Exp.Const"], [[40.0], [100.0]], [SLOW, (0, 0)], (T1, T2), T2, 10, _BLOCK),
    (["Exp.Const"], [[100.0]], [(1100, 0)], (T1, T2), T2, 10, _BLOCK),
    (["Exp.Const"], [[100.0]], [FAST], (math.nan, math.nan), T2, 10, _BLOCK),
    (["Exp.Const"], [[100.0]], [FAST], (-math.inf, math.inf), T2, 10, _BLOCK),
])
def test_the_block_length_covers_the_expected_arrivals_within_the_slot_bound(
    caplog, block_lengths, names, thetas, counts, window, t_end, m, want
):
    records = [fitted(n, theta, window, c) for n, theta, c in zip(names, thetas, counts)]
    with caplog.at_level("WARNING"):
        dict(simulate_sets(records, T1, T1, t_end, m, list(range(len(records)))))
    (rows, width, block), = block_lengths
    assert block == want
    assert rows * width * block <= max(_ROWS * _BLOCK, rows * width * _BLOCK // 4)


@pytest.mark.parametrize("block", [1, 7, _BLOCK])
@pytest.mark.parametrize("cell", ["every model", "GenGam"])
def test_the_block_length_changes_no_trajectory(caplog, monkeypatch, block, cell):
    """Blocks of 1, 7 or ``_BLOCK`` slots give bitwise the sets of the
    block length the records' counts give: every model, the time-varying
    Gamma models at a rate that spends several blocks, and the stream
    cases; and the GenGam models, with one in the lognormal limit, in
    locksteps of their own."""
    rng = np.random.default_rng(12)
    specs = [s for s in enumerate_models() if cell != "GenGam" or s.family is Family.GENGAM]
    cases = [(spec.name, feasible_theta(spec, rng)) for spec in specs]
    if cell == "GenGam":
        cases.append(("GenGam.Lin.Const", [150.0, -5.0, 1.6, LOGNORMAL_Q_EPS / 2]))
    else:
        cases += VARYING_GAMMA + STREAM_CASES
    # 20 spells a day: blocks of 42 slots, which most rows spend more than once
    records = [fitted(name, theta, counts=(80, 4)) for name, theta in cases]
    seeds = list(range(len(records)))
    with caplog.at_level("WARNING"):
        want = dict(simulate_sets(records, T1 - 0.01, T1, T2, 6, seeds))
        monkeypatch.setattr(simulate, "_block_length", lambda members, *args: block)
        got = dict(simulate_sets(records, T1 - 0.01, T1, T2, 6, seeds))
    for i, record in enumerate(records):
        np.testing.assert_array_equal(got[i].lengths, want[i].lengths, err_msg=record.spec.name)
        np.testing.assert_array_equal(got[i].arrivals, want[i].arrivals, err_msg=record.spec.name)


def test_cells_per_group_fill_every_lockstep_key():
    exp = [model_from_name("Exp.Const"), model_from_name("Exp.Lin")]
    assert cells_per_group(exp, 50) == 7  # 7 * 100 rows fit in _ROWS, 8 * 100 do not
    assert cells_per_group(exp, _ROWS // 2) == 1
    # the 8 Exp and constant-shape Gamma models take the most cells: 2 * 8 * 40 rows
    assert cells_per_group(enumerate_models(), 40) == 2
    assert cells_per_group(enumerate_models(), 1000) == 1


@pytest.mark.parametrize("sizes", [(3, 1, 0, 0), (0, 0, 0)])
def test_dump_round_trip_keeps_empty_trajectories(tmp_path, sizes):
    rng = np.random.default_rng(1)
    trajectories = [np.sort(rng.uniform(T1, T2, n)) for n in sizes]
    path = tmp_path / "traj.csv"
    write_trajectories(trajectory_set(trajectories), path)
    back = read_trajectories(path)
    assert back.lengths.tolist() == list(sizes)
    for got, want in zip(back.trajectories, trajectories):
        np.testing.assert_array_equal(got, want)


def test_a_dump_reads_in_index_order_whatever_its_row_order(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("trajectory_index,arrival_time_hours\n1,-2.0\n3,\n0,-1.0\n1,-3.0\n")
    back = read_trajectories(path)
    assert back.lengths.tolist() == [1, 2, 0, 0]
    assert back.arrivals.tolist() == [-1.0, -3.0, -2.0]
