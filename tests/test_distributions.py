"""Distribution kernel checks: analytic values, nesting maps, sampler laws."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from arrivalsim.distributions import (
    DistParams,
    Exp,
    Gamma,
    GenF,
    GenGam,
)
from arrivalsim.errors import DomainError, ParameterError, TailExhaustedError

_NEST_ORDER: list[type] = [Exp, Gamma, GenGam, GenF]


def _up_one(params: DistParams) -> DistParams:
    if isinstance(params, Exp):
        return Gamma(1.0, params.rate)
    if isinstance(params, Gamma):
        root = math.sqrt(params.shape)
        return GenGam(-math.log(params.rate / params.shape), 1.0 / root, 1.0 / root)
    if isinstance(params, GenGam):
        return GenF(params.mu, params.sigma, params.q, 0.0)
    raise ParameterError(f"cannot upcast {type(params).__name__}")


def nest(params: DistParams, target: type) -> DistParams:
    """Re-express ``params`` in the strictly larger ``target`` family.

    The distribution is unchanged; only the parametrization moves up the
    Exp -> Gamma -> GenGam -> GenF chain.  Downcasts are refused.
    """
    if target not in _NEST_ORDER:
        raise ParameterError(f"unknown target family {target!r}")
    here = _NEST_ORDER.index(type(params))
    there = _NEST_ORDER.index(target)
    if there < here:
        raise ParameterError(
            f"cannot nest {type(params).__name__} down into {target.__name__}"
        )
    out = params
    for _ in range(there - here):
        out = _up_one(out)
    return out


def random_params(rng, family):
    """Draw a moderate, well-conditioned parameter set of the family."""
    if family is Exp:
        return Exp(rng.uniform(0.2, 50.0))
    if family is Gamma:
        return Gamma(rng.uniform(0.3, 8.0), rng.uniform(0.2, 50.0))
    if family is GenGam:
        return GenGam(rng.uniform(-6.0, 3.0), rng.uniform(0.15, 2.0), rng.uniform(-2.5, 2.5))
    return GenF(
        rng.uniform(-6.0, 3.0),
        rng.uniform(0.15, 2.0),
        rng.uniform(-2.5, 2.5),
        rng.uniform(0.0, 6.0),
    )


class TestAnalyticValues:
    def test_exp_logpdf_at_one(self):
        assert Exp(1.0).logpdf(1.0) == pytest.approx(-1.0, abs=1e-14)
        assert Exp(1.0).pdf(1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_gamma_pdf(self):
        # beta^a / Gamma(a) * x^(a-1) * exp(-beta x) at a=2, beta=1, x=2
        assert Gamma(2.0, 1.0).pdf(2.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-14)

    def test_gengam_identity_with_exp(self):
        """GenGam(0, 1, 1) is Exp(1); evaluate both routes numerically."""
        x = np.linspace(0.05, 6.0, 40)
        np.testing.assert_allclose(
            GenGam(0.0, 1.0, 1.0).logpdf(x), Exp(1.0).logpdf(x), atol=1e-12
        )

    def test_exp_median(self):
        assert Exp(2.0).cdf(math.log(2.0) / 2.0) == pytest.approx(0.5, abs=1e-14)

    def test_exp_quantile(self):
        assert Exp(1.0).quantile(1.0 - math.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)

    def test_gamma_shape_one_median_is_exp_median(self):
        lam = 3.7
        assert Gamma(1.0, lam).quantile(0.5) == pytest.approx(
            Exp(lam).quantile(0.5), rel=1e-12
        )

    def test_cdf_vanishes_at_origin(self):
        rng = np.random.default_rng(7)
        for family in (Exp, Gamma, GenGam, GenF):
            params = random_params(rng, family)
            assert params.cdf(1e-290) < 1e-8


class TestNesting:
    def test_exp_to_gamma(self):
        assert nest(Exp(3.0), Gamma) == Gamma(1.0, 3.0)

    def test_gamma_to_gengam(self):
        got = nest(Gamma(4.0, 2.0), GenGam)
        assert got.mu == pytest.approx(math.log(2.0))
        assert got.sigma == pytest.approx(0.5)
        assert got.q == pytest.approx(0.5)

    def test_gengam_to_genf(self):
        assert nest(GenGam(0.0, 1.0, 1.0), GenF) == GenF(0.0, 1.0, 1.0, 0.0)

    def test_downcast_refused(self):
        with pytest.raises(ParameterError):
            nest(GenGam(0.0, 1.0, 1.0), Exp)

    def test_logpdf_invariant_under_nesting(self):
        """Each upcast leaves the log density unchanged to 1e-9."""
        rng = np.random.default_rng(123)
        steps = [(Exp, Gamma), (Gamma, GenGam), (GenGam, GenF)]
        for _ in range(200):
            for fam, sup in steps:
                params = random_params(rng, fam)
                lifted = nest(params, sup)
                x = params.quantile(rng.uniform(0.01, 0.99, size=20))
                np.testing.assert_allclose(
                    params.logpdf(x), lifted.logpdf(x), atol=1e-9, rtol=0.0
                )

    def test_full_chain_to_genf(self):
        x = np.linspace(0.1, 3.0, 25)
        base = Exp(2.5)
        np.testing.assert_allclose(
            base.logpdf(x), nest(base, GenF).logpdf(x), atol=1e-9
        )


class TestCdfQuantile:
    def test_genf_p0_cdf_matches_gengam(self):
        gengam = GenGam(-0.5, 0.7, 1.3)
        genf = GenF(-0.5, 0.7, 1.3, 0.0)
        x = gengam.quantile(np.linspace(0.02, 0.98, 50))
        np.testing.assert_allclose(genf.cdf(x), gengam.cdf(x), atol=1e-9)

    def test_quantile_cdf_roundtrip(self):
        rng = np.random.default_rng(99)
        for family in (Exp, Gamma, GenGam, GenF):
            for _ in range(25):
                params = random_params(rng, family)
                u = rng.uniform(0.001, 0.999, size=16)
                x = params.quantile(u)
                np.testing.assert_allclose(params.cdf(x), u, rtol=1e-8, atol=1e-10)
                np.testing.assert_allclose(params.quantile(params.cdf(x)), x, rtol=1e-8)

    def test_cdf_monotone(self):
        rng = np.random.default_rng(5)
        for family in (Exp, Gamma, GenGam, GenF):
            params = random_params(rng, family)
            x = np.sort(rng.uniform(0.01, 10.0, size=200))
            assert np.all(np.diff(params.cdf(x)) >= 0.0)

    def test_negative_q_regression(self):
        """q = -0.7: density nonnegative, cdf monotone, roundtrip intact."""
        params = GenGam(0.2, 0.8, -0.7)
        x = np.linspace(0.01, 30.0, 500)
        assert np.all(np.isfinite(params.logpdf(x)))
        cdf = params.cdf(x)
        assert np.all(np.diff(cdf) >= 0.0)
        u = np.linspace(0.01, 0.99, 99)
        np.testing.assert_allclose(params.cdf(params.quantile(u)), u, rtol=1e-8)

    def test_quantile_domain(self):
        with pytest.raises(DomainError):
            Exp(1.0).quantile(0.0)
        with pytest.raises(DomainError):
            Exp(1.0).quantile(1.0)


def quadrature_mass(params) -> float:
    """Pdf mass between the 1e-9 and 1 - 1e-10 quantiles, by quadrature.

    Heavy tails span dozens of decades, so the integrand is substituted to
    log-x (where every family is a smooth bump) and accumulated between
    quantile-located breakpoints.
    """
    cuts = [1e-9, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-10]
    edges = np.log(params.quantile(np.asarray(cuts)))
    density = lambda y: params.pdf(math.exp(y)) * math.exp(y)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        piece, _ = integrate.quad(density, lo, hi, limit=200)
        total += piece
    return total


class TestNormalization:
    @pytest.mark.parametrize("family", [Exp, Gamma, GenGam, GenF])
    def test_pdf_integrates_to_one(self, family):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            params = random_params(rng, family)
            assert quadrature_mass(params) == pytest.approx(1.0, abs=1e-6)

    def test_lognormal_limit(self):
        """Tiny |q| evaluates through the lognormal density."""
        params = GenGam(0.3, 0.9, 1e-6)
        x = np.linspace(0.1, 8.0, 50)
        expected = stats.lognorm(s=0.9, scale=math.exp(0.3)).logpdf(x)
        np.testing.assert_allclose(params.logpdf(x), expected, atol=1e-10)
        # the switch is continuous: values just above the threshold agree closely
        near = GenGam(0.3, 0.9, 2e-5)
        np.testing.assert_allclose(near.logpdf(x), expected, atol=1e-4)


class TestSampling:
    def test_seeded_determinism(self):
        for family in (Exp, Gamma, GenGam, GenF):
            params = random_params(np.random.default_rng(11), family)
            a = params.sample(np.random.default_rng(77), size=64)
            b = params.sample(np.random.default_rng(77), size=64)
            np.testing.assert_array_equal(a, b)

    def test_exp_monte_carlo_mean(self):
        draws = Exp(4.0).sample(np.random.default_rng(1), size=10**6)
        assert abs(draws.mean() - 0.25) < 3.0 * 0.25 / 1e3

    def test_gengam_sampler_matches_gamma_law(self):
        """GenGam(log 2, 0.5, 0.5) is Gamma(4, 2); KS distance < 0.01."""
        draws = GenGam(math.log(2.0), 0.5, 0.5).sample(
            np.random.default_rng(2), size=10**5
        )
        d = stats.kstest(draws, Gamma(4.0, 2.0).cdf).statistic
        assert d < 0.01

    def test_genf_sampler_matches_own_cdf(self):
        params = GenF(-0.3, 0.6, 0.8, 1.5)
        draws = params.sample(np.random.default_rng(3), size=10**5)
        d = stats.kstest(draws, params.cdf).statistic
        assert d < 0.01

    def test_gengam_negative_q_sampler(self):
        params = GenGam(0.0, 0.5, -0.9)
        draws = params.sample(np.random.default_rng(4), size=10**5)
        d = stats.kstest(draws, params.cdf).statistic
        assert d < 0.01

    def test_mean_against_monte_carlo(self):
        rng = np.random.default_rng(8)
        for family in (Exp, Gamma, GenGam, GenF):
            params = random_params(np.random.default_rng(21), family)
            mean = params.mean()
            if not math.isfinite(mean):
                continue
            draws = params.sample(rng, size=200_000)
            assert abs(draws.mean() - mean) < 6.0 * draws.std() / math.sqrt(draws.size)


class TestTruncatedSampling:
    def test_zero_truncation_matches_plain_sampling(self):
        params = Gamma(2.0, 3.0)
        draws = params.sample_truncated(0.0, np.random.default_rng(5), size=10**5)
        d = stats.kstest(draws, params.cdf).statistic
        assert d < 0.01

    def test_all_outputs_exceed_bound(self):
        rng = np.random.default_rng(6)
        for family in (Exp, Gamma, GenGam, GenF):
            params = random_params(rng, family)
            y = float(params.quantile(0.7))
            draws = params.sample_truncated(y, rng, size=10**5)
            assert np.all(draws > y)

    def test_exp_memorylessness(self):
        lam = 2.5
        y = 0.8
        draws = Exp(lam).sample_truncated(y, np.random.default_rng(9), size=10**5)
        d = stats.kstest(draws - y, Exp(lam).cdf).statistic
        assert d < 0.01

    def test_truncated_matches_restricted_cdf(self):
        """Inverse-transform draws follow (F(x)-F(y))/(1-F(y)) for x > y."""
        for params in (GenGam(-0.2, 0.7, 1.1), GenF(-0.2, 0.7, 0.9, 2.0)):
            y = float(params.quantile(0.6))
            fy = params.cdf(y)
            draws = params.sample_truncated(y, np.random.default_rng(10), size=10**4)
            trunc_cdf = lambda x: (params.cdf(x) - fy) / (1.0 - fy)
            d = stats.kstest(draws, trunc_cdf).statistic
            assert d < 0.02

    def test_tail_exhausted(self):
        with pytest.raises(TailExhaustedError):
            Exp(10.0).sample_truncated(50.0, np.random.default_rng(0))


class TestValidation:
    def test_x_domain(self):
        for bad in (0.0, -1.0):
            with pytest.raises(DomainError):
                Exp(1.0).logpdf(bad)
            with pytest.raises(DomainError):
                GenF(0.0, 1.0, 0.5, 1.0).cdf(bad)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            Exp(0.0)
        with pytest.raises(ParameterError):
            Gamma(-1.0, 2.0)
        with pytest.raises(ParameterError):
            GenGam(0.0, 0.0, 1.0)
        with pytest.raises(ParameterError):
            GenF(0.0, 1.0, 1.0, -0.5)
        with pytest.raises(ParameterError):
            GenGam(math.nan, 1.0, 1.0)
