"""Family kernel checks: analytic values, scipy oracles, nesting maps,
the truncated quantile and the simulator's innovation and step kernels."""

import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from arrivalsim.distributions import KERNELS, truncated_quantile
from arrivalsim.errors import DomainError, ParameterError, TailExhaustedError
from arrivalsim.ingest import InterArrivalSample
from arrivalsim.models import Family, feasible_on_grid, model_from_name

EXP, GAMMA, GENGAM, GENF = Family.EXP, Family.GAMMA, Family.GENGAM, Family.GENF
_NEST_ORDER = [EXP, GAMMA, GENGAM, GENF]


def _up_one(family, params):
    if family is EXP:
        return GAMMA, (1.0, params[0])
    if family is GAMMA:
        shape, rate = params
        root = math.sqrt(shape)
        return GENGAM, (-math.log(rate / shape), 1.0 / root, 1.0 / root)
    if family is GENGAM:
        return GENF, (*params, 0.0)
    raise ParameterError(f"cannot upcast {family.value}")


def nest(family, params, target):
    """Re-express ``params`` of ``family`` in the strictly larger ``target``.

    The distribution is unchanged; only the parametrization moves up the
    Exp -> Gamma -> GenGam -> GenF chain.  Downcasts are refused.
    """
    here, there = _NEST_ORDER.index(family), _NEST_ORDER.index(target)
    if there < here:
        raise ParameterError(f"cannot nest {family.value} down into {target.value}")
    for _ in range(there - here):
        family, params = _up_one(family, params)
    return params


class _GenF:
    """scipy-based law of GenF(mu, sigma, q, p), p > 0: the variable is
    ``scale * B**k`` with ``B ~ betaprime(s1, s2)`` and ``k = sigma/delta``."""

    def __init__(self, mu, sigma, q, p):
        delta = math.sqrt(q * q + 2.0 * p)
        self.s1, self.s2 = 2.0 / (delta * (delta + q)), 2.0 / (delta * (delta - q))
        self.k = sigma / delta
        self.scale = np.exp(mu) * (self.s2 / self.s1) ** self.k
        self.beta = stats.betaprime(self.s1, self.s2)

    def _b(self, x):
        return (np.asarray(x, dtype=float) / self.scale) ** (1.0 / self.k)

    def logpdf(self, x):
        b = self._b(x)
        return self.beta.logpdf(b) + np.log(b) - np.log(self.k) - np.log(x)

    def cdf(self, x):
        return self.beta.cdf(self._b(x))

    def ppf(self, u):
        return self.scale * self.beta.ppf(u) ** self.k

    def mean(self):
        if self.s2 <= self.k:
            return math.inf
        s1, s2, k = self.s1, self.s2, self.k
        return self.scale * math.exp(special.betaln(s1 + k, s2 - k) - special.betaln(s1, s2))


def oracle(family, params):
    """The law of ``family`` at ``params`` from scipy.stats, independent of
    the kernels: ``logpdf``, ``cdf``, ``ppf`` and ``mean``.  The parameters
    that vary in time may be arrays; ``q`` and ``p`` are scalars."""
    if family is EXP:
        return stats.expon(scale=1.0 / params[0])
    if family is GAMMA:
        return stats.gamma(params[0], scale=1.0 / params[1])
    mu, sigma, q = params[:3]
    if family is GENF and params[3] > 0.0:
        return _GenF(*params)
    if q == 0.0:
        return stats.lognorm(s=sigma, scale=np.exp(mu))
    return stats.gengamma(q ** -2, q / sigma, scale=np.exp(mu) * (q * q) ** (sigma / q))


def random_params(rng, family):
    """Draw a moderate, well-conditioned parameter set of the family."""
    if family is EXP:
        return (rng.uniform(0.2, 50.0),)
    if family is GAMMA:
        return (rng.uniform(0.3, 8.0), rng.uniform(0.2, 50.0))
    params = (rng.uniform(-6.0, 3.0), rng.uniform(0.15, 2.0), rng.uniform(-2.5, 2.5))
    return params if family is GENGAM else (*params, rng.uniform(0.0, 6.0))


def sample(family, params, rng, n):
    """n draws of ``family`` at constant ``params`` from the simulator's
    innovation sampler, scaled into inter-arrivals by its step kernel."""
    kernels = KERNELS[family]
    sampler = kernels.innovations(False, *params)
    w, ok = sampler.take(sampler.draw(rng, n), *params)
    assert ok is None  # one innovation per slot
    return kernels.step(w, *params)


def pdf(family, params, x):
    return np.exp(KERNELS[family].logpdf(x, *params))


def cdf(family, params, x):
    return KERNELS[family].cdf(x, *params)


def quantile(family, params, u):
    return KERNELS[family].quantile(u, *params)


class TestAnalyticValues:
    def test_exp_logpdf_at_one(self):
        assert KERNELS[EXP].logpdf(1.0, 1.0) == pytest.approx(-1.0, abs=1e-14)
        assert pdf(EXP, (1.0,), 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_gamma_pdf(self):
        # beta^a / Gamma(a) * x^(a-1) * exp(-beta x) at a=2, beta=1, x=2
        assert pdf(GAMMA, (2.0, 1.0), 2.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-14)

    def test_gengam_identity_with_exp(self):
        """GenGam(0, 1, 1) is Exp(1); evaluate both routes numerically."""
        x = np.linspace(0.05, 6.0, 40)
        np.testing.assert_allclose(
            KERNELS[GENGAM].logpdf(x, 0.0, 1.0, 1.0), KERNELS[EXP].logpdf(x, 1.0), atol=1e-12
        )

    def test_exp_median(self):
        assert cdf(EXP, (2.0,), math.log(2.0) / 2.0) == pytest.approx(0.5, abs=1e-14)

    def test_exp_quantile(self):
        assert quantile(EXP, (1.0,), 1.0 - math.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)

    def test_gamma_shape_one_median_is_exp_median(self):
        lam = 3.7
        assert quantile(GAMMA, (1.0, lam), 0.5) == pytest.approx(
            quantile(EXP, (lam,), 0.5), rel=1e-12
        )

    def test_cdf_vanishes_at_origin(self):
        rng = np.random.default_rng(7)
        for family in Family:
            assert cdf(family, random_params(rng, family), 1e-290) < 1e-8


class TestOracle:
    def test_kernels_match_scipy(self):
        """logpdf, cdf and quantile of every family against scipy.stats,
        with the lognormal limit and both signs of q."""
        rng = np.random.default_rng(13)
        cases = [(family, random_params(rng, family)) for family in Family for _ in range(12)]
        cases += [
            (GENGAM, (0.3, 0.9, 0.0)),
            (GENF, (-0.2, 0.7, -1.3, 0.0)),
            (GENF, (0.1, 0.5, -0.8, 2.5)),
        ]
        for family, params in cases:
            law = oracle(family, params)
            u = np.linspace(0.02, 0.98, 13)
            x = law.ppf(u)
            np.testing.assert_allclose(quantile(family, params, u), x, rtol=1e-7)
            np.testing.assert_allclose(cdf(family, params, x), u, rtol=1e-7, atol=1e-12)
            np.testing.assert_allclose(
                KERNELS[family].logpdf(x, *params), law.logpdf(x), rtol=1e-7, atol=1e-9
            )

    def test_time_varying_parameters_broadcast(self):
        """The kernels take the arrays that params_at returns on a time grid."""
        t = np.linspace(-3.25, -0.5, 5)
        for name, theta in [
            ("Gamma.Lin.Lin", [60.0, -5.0, 1.5, 0.1]),
            ("GenF.Lin.Lin", [60.0, -5.0, 1.5, 0.1, -0.4, 1.2]),
        ]:
            spec = model_from_name(name)
            params, ok = spec.params_at(np.asarray(theta), t)
            assert ok
            u = np.linspace(0.1, 0.9, t.size)
            x = quantile(spec.family, params, u)
            assert x.shape == t.shape
            np.testing.assert_allclose(cdf(spec.family, params, x), u, rtol=1e-9)
            for k in range(t.size):
                point = [float(np.broadcast_to(v, t.shape)[k]) for v in params]
                assert float(quantile(spec.family, point, u[k])) == pytest.approx(x[k], rel=1e-12)


class TestNesting:
    def test_exp_to_gamma(self):
        assert nest(EXP, (3.0,), GAMMA) == (1.0, 3.0)

    def test_gamma_to_gengam(self):
        mu, sigma, q = nest(GAMMA, (4.0, 2.0), GENGAM)
        assert mu == pytest.approx(math.log(2.0))
        assert sigma == pytest.approx(0.5)
        assert q == pytest.approx(0.5)

    def test_gengam_to_genf(self):
        assert nest(GENGAM, (0.0, 1.0, 1.0), GENF) == (0.0, 1.0, 1.0, 0.0)

    def test_downcast_refused(self):
        with pytest.raises(ParameterError):
            nest(GENGAM, (0.0, 1.0, 1.0), EXP)

    def test_logpdf_invariant_under_nesting(self):
        """Each upcast leaves the log density unchanged to 1e-9."""
        rng = np.random.default_rng(123)
        for _ in range(200):
            for fam, sup in [(EXP, GAMMA), (GAMMA, GENGAM), (GENGAM, GENF)]:
                params = random_params(rng, fam)
                x = quantile(fam, params, rng.uniform(0.01, 0.99, size=20))
                np.testing.assert_allclose(
                    KERNELS[fam].logpdf(x, *params),
                    KERNELS[sup].logpdf(x, *nest(fam, params, sup)),
                    atol=1e-9,
                    rtol=0.0,
                )

    def test_full_chain_to_genf(self):
        x = np.linspace(0.1, 3.0, 25)
        np.testing.assert_allclose(
            KERNELS[EXP].logpdf(x, 2.5),
            KERNELS[GENF].logpdf(x, *nest(EXP, (2.5,), GENF)),
            atol=1e-9,
        )


class TestCdfQuantile:
    def test_genf_p0_cdf_matches_gengam(self):
        x = quantile(GENGAM, (-0.5, 0.7, 1.3), np.linspace(0.02, 0.98, 50))
        np.testing.assert_allclose(
            cdf(GENF, (-0.5, 0.7, 1.3, 0.0), x), cdf(GENGAM, (-0.5, 0.7, 1.3), x), atol=1e-9
        )

    def test_quantile_cdf_roundtrip(self):
        rng = np.random.default_rng(99)
        for family in Family:
            for _ in range(25):
                params = random_params(rng, family)
                u = rng.uniform(0.001, 0.999, size=16)
                x = quantile(family, params, u)
                np.testing.assert_allclose(cdf(family, params, x), u, rtol=1e-8, atol=1e-10)
                np.testing.assert_allclose(
                    quantile(family, params, cdf(family, params, x)), x, rtol=1e-8
                )

    def test_cdf_monotone(self):
        rng = np.random.default_rng(5)
        for family in Family:
            params = random_params(rng, family)
            x = np.sort(rng.uniform(0.01, 10.0, size=200))
            assert np.all(np.diff(cdf(family, params, x)) >= 0.0)

    def test_negative_q_regression(self):
        """q = -0.7: density finite, cdf monotone, roundtrip intact."""
        params = (0.2, 0.8, -0.7)
        x = np.linspace(0.01, 30.0, 500)
        assert np.all(np.isfinite(KERNELS[GENGAM].logpdf(x, *params)))
        assert np.all(np.diff(cdf(GENGAM, params, x)) >= 0.0)
        u = np.linspace(0.01, 0.99, 99)
        np.testing.assert_allclose(cdf(GENGAM, params, quantile(GENGAM, params, u)), u, rtol=1e-8)

    def test_quantile_domain(self):
        """The truncated quantile takes u in [0, 1) and a truncation point >= 0."""
        for u in (1.0, -0.1, [0.5, 1.0]):
            with pytest.raises(DomainError):
                truncated_quantile(EXP, (1.0,), 0.0, u)
        with pytest.raises(DomainError):
            truncated_quantile(EXP, (1.0,), -1.0, 0.5)


def quadrature_mass(family, params) -> float:
    """Pdf mass between the 1e-9 and 1 - 1e-10 quantiles, by quadrature.

    Heavy tails span dozens of decades, so the integrand is substituted to
    log-x (where every family is a smooth bump) and accumulated between
    quantile-located breakpoints.
    """
    cuts = [1e-9, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-10]
    edges = np.log(quantile(family, params, np.asarray(cuts)))
    density = lambda y: float(pdf(family, params, math.exp(y))) * math.exp(y)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        piece, _ = integrate.quad(density, lo, hi, limit=200)
        total += piece
    return total


class TestNormalization:
    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_pdf_integrates_to_one(self, family):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            mass = quadrature_mass(family, random_params(rng, family))
            assert mass == pytest.approx(1.0, abs=1e-6)

    def test_lognormal_limit(self):
        """Tiny |q| evaluates through the lognormal density."""
        x = np.linspace(0.1, 8.0, 50)
        expected = stats.lognorm(s=0.9, scale=math.exp(0.3)).logpdf(x)
        np.testing.assert_allclose(KERNELS[GENGAM].logpdf(x, 0.3, 0.9, 1e-6), expected, atol=1e-10)
        # the switch is continuous: values just above the threshold agree closely
        np.testing.assert_allclose(KERNELS[GENGAM].logpdf(x, 0.3, 0.9, 2e-5), expected, atol=1e-4)


class TestSampling:
    """The simulator's innovation sampler draws each family's law."""

    def test_seeded_determinism(self):
        for family in Family:
            params = random_params(np.random.default_rng(11), family)
            a = sample(family, params, np.random.default_rng(77), 64)
            b = sample(family, params, np.random.default_rng(77), 64)
            np.testing.assert_array_equal(a, b)

    # a sampler of each stream layout: exponential, gamma at a constant
    # shape below and above 1, Marsaglia-Tsang attempts, log-gamma at q of
    # either sign, the lognormal limit, a GenF at p below GENGAM_P_EPS, and
    # (G1, G2) pairs of a GenF above it at q of either sign
    INVARIANT = [
        (EXP, False, (4.0,)),
        (GAMMA, False, (0.6, 2.0)),
        (GAMMA, False, (3.5, 2.0)),
        (GAMMA, True, (3.5, 2.0)),
        (GENGAM, False, (0.1, 0.5, 0.8)),
        (GENGAM, False, (0.1, 0.5, -0.9)),
        (GENGAM, False, (0.1, 0.5, 1e-6)),
        (GENF, False, (0.1, 0.5, 0.8, 1e-9)),
        (GENF, False, (0.1, 0.5, 0.8, 1.0)),
        (GENF, False, (0.1, 0.5, -0.9, 1.0)),
    ]

    @pytest.mark.parametrize("family, varying, params", INVARIANT)
    def test_two_blocks_read_the_stream_as_one(self, family, varying, params):
        """draw(rng, a) then draw(rng, b) gives bitwise draw(rng, a + b),
        returned or written into ``out``."""
        sampler = KERNELS[family].innovations(varying, *params)
        whole = sampler.draw(np.random.default_rng(3), 300)
        assert whole.shape == (sampler.width, 300)
        for a in (0, 1, 7, 190, 300):
            rng = np.random.default_rng(3)
            parts = np.hstack([sampler.draw(rng, a), sampler.draw(rng, 300 - a)])
            np.testing.assert_array_equal(parts, whole)
            rng, out = np.random.default_rng(3), np.empty((300, sampler.width))
            sampler.draw(rng, a, out[:a])
            sampler.draw(rng, 300 - a, out[a:])
            np.testing.assert_array_equal(out.T, whole)

    def test_exp_monte_carlo_mean(self):
        draws = sample(EXP, (4.0,), np.random.default_rng(1), 10**6)
        assert abs(draws.mean() - 0.25) < 3.0 * 0.25 / 1e3

    def test_gengam_sampler_matches_gamma_law(self):
        """GenGam(log 2, 0.5, 0.5) is Gamma(4, 2); KS distance < 0.01."""
        draws = sample(GENGAM, (math.log(2.0), 0.5, 0.5), np.random.default_rng(2), 10**5)
        assert stats.kstest(draws, stats.gamma(4.0, scale=0.5).cdf).statistic < 0.01

    def test_genf_sampler_matches_own_cdf(self):
        params = (-0.3, 0.6, 0.8, 1.5)
        draws = sample(GENF, params, np.random.default_rng(3), 10**5)
        assert stats.kstest(draws, oracle(GENF, params).cdf).statistic < 0.01

    @pytest.mark.parametrize("q, p", [(2.0, 0.1), (-0.9, 0.4), (0.0, 3.0), (0.8, 2e-8)])
    def test_genf_pairs_follow_genf_cdf(self, q, p):
        """The (G1, G2) pairs give GenF's law at either sign of q, at q = 0,
        and with p just above GENGAM_P_EPS, where G2's shape is about 1e8."""
        params = (-0.3, 0.6, q, p)
        draws = sample(GENF, params, np.random.default_rng(31), 10**5)
        assert stats.kstest(draws, lambda x: KERNELS[GENF].cdf(x, *params)).statistic < 0.01

    def test_gengam_negative_q_sampler(self):
        params = (0.0, 0.5, -0.9)
        draws = sample(GENGAM, params, np.random.default_rng(4), 10**5)
        assert stats.kstest(draws, oracle(GENGAM, params).cdf).statistic < 0.01

    @pytest.mark.parametrize("shape", [0.3, 0.75, 1.0, 2.5, 50.0])
    def test_gamma_attempts_match_gamma_law(self, shape):
        """A gamma whose shape varies in time draws Marsaglia-Tsang attempts
        at each slot's own shape; the accepted ones follow scipy's law."""
        sampler = KERNELS[GAMMA].innovations(True, shape, 2.0)
        n = 400_000
        shapes = np.where(np.arange(n) % 2, shape, 4.0)  # companions at another shape
        w, ok = sampler.take(sampler.draw(np.random.default_rng(17), n), shapes, np.full(n, 2.0))
        draws = w[ok & (shapes == shape)]
        assert draws.size > 0.45 * n  # under 10% of the attempts are rejected
        # about the 1e-4 critical value of the KS distance at 180,000 draws
        assert stats.kstest(draws, oracle(GAMMA, (shape, 1.0)).cdf).statistic < 0.005

    def test_mean_against_monte_carlo(self):
        rng = np.random.default_rng(8)
        for family in Family:
            params = random_params(np.random.default_rng(21), family)
            mean = oracle(family, params).mean()
            if not math.isfinite(mean):
                continue
            draws = sample(family, params, rng, 200_000)
            assert abs(draws.mean() - mean) < 6.0 * draws.std() / math.sqrt(draws.size)


class TestTruncatedSampling:
    def test_zero_truncation_matches_plain_sampling(self):
        u = np.random.default_rng(5).uniform(size=10**5)
        draws = truncated_quantile(GAMMA, (2.0, 3.0), 0.0, u)
        assert stats.kstest(draws, stats.gamma(2.0, scale=1.0 / 3.0).cdf).statistic < 0.01

    def test_all_outputs_exceed_bound(self):
        rng = np.random.default_rng(6)
        for family in Family:
            params = random_params(rng, family)
            y = float(oracle(family, params).ppf(0.7))
            draws = truncated_quantile(family, params, y, rng.uniform(size=10**5))
            assert np.all(draws > y)

    def test_exp_memorylessness(self):
        lam, y = 2.5, 0.8
        draws = truncated_quantile(EXP, (lam,), y, np.random.default_rng(9).uniform(size=10**5))
        assert stats.kstest(draws - y, stats.expon(scale=1.0 / lam).cdf).statistic < 0.01

    def test_truncated_matches_restricted_cdf(self):
        """Inverse-transform draws follow (F(x)-F(y))/(1-F(y)) for x > y."""
        for family, params in ((GENGAM, (-0.2, 0.7, 1.1)), (GENF, (-0.2, 0.7, 0.9, 2.0))):
            law = oracle(family, params)
            y = float(law.ppf(0.6))
            fy = law.cdf(y)
            u = np.random.default_rng(10).uniform(size=10**4)
            draws = truncated_quantile(family, params, y, u)
            d = stats.kstest(draws, lambda x: (law.cdf(x) - fy) / (1.0 - fy)).statistic
            assert d < 0.02

    def test_tail_exhausted(self):
        with pytest.raises(TailExhaustedError):
            truncated_quantile(EXP, (10.0,), 50.0, np.random.default_rng(0).uniform(size=3))

    def test_a_probability_that_rounds_to_one_is_clipped_below_it(self):
        """At F(y) = 1 - 1.5e-12 (inside the tail check) a uniform within
        about 4e-5 of 1 rounds F(y) + u(1 - F(y)) to 1.0; the largest double
        below 1 takes its place, and every other row keeps its bits."""
        y = -math.log(1.5e-12)
        fy = float(cdf(EXP, (1.0,), y))
        assert 1.0 - fy < 1e-11
        u = np.array([0.25, 0.9, 1.0 - 2.0**-20, 1.0 - 2.0**-53])
        p = fy + u * (1.0 - fy)
        assert list(p == 1.0) == [False, False, True, True]
        got = truncated_quantile(EXP, (1.0,), y, u)
        assert np.all(np.isfinite(got)) and np.all(got > y)
        np.testing.assert_array_equal(got[:2], quantile(EXP, (1.0,), p[:2]))
        np.testing.assert_array_equal(got[2:], quantile(EXP, (1.0,), math.nextafter(1.0, 0.0)))


class TestValidation:
    def test_x_domain(self):
        """The kernels take x unchecked; a sample refuses x outside (0, inf)."""
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(ParameterError):
                InterArrivalSample(
                    x=[0.1, bad], t=[-2.0, -1.0], window_start=-3.25, window_end=-0.5
                )

    def test_parameter_validation(self):
        """What the feasibility check refuses, at one time and on a grid."""
        grid = np.linspace(-3.25, -0.5, 12)
        cases = [
            ("Exp.Const", [0.0]),  # rate 0
            ("Gamma.Const.Const", [2.0, -1.0]),  # negative shape
            ("GenGam.Const.Const", [2.0, math.inf, 1.0]),  # sigma = shape**-0.5 = 0
            ("GenF.Const.Const", [2.0, 1.0, 1.0, -0.5]),  # p < 0
            ("GenGam.Const.Const", [math.nan, 1.0, 1.0]),  # mu nan
            ("GenGam.Const.Const", [2.0, 1.0, math.nan]),  # q nan
            ("GenF.Const.Const", [2.0, 1.0, -math.inf, 1.0]),  # q infinite
        ]
        for name, theta in cases:
            spec = model_from_name(name)
            assert not feasible_on_grid(spec, theta, -1.0), name
            assert not feasible_on_grid(spec, theta, grid), name
        assert feasible_on_grid(model_from_name("GenF.Const.Const"), [2.0, 1.0, 1.0, 0.0], grid)

