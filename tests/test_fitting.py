"""Likelihood and optimizer checks against closed forms and nesting bounds."""

import math

import numpy as np
import pytest

from arrivalsim.distributions import Gamma, GenGam
from arrivalsim.errors import InsufficientDataError, ParameterError
from arrivalsim.fitting import (
    FitOptions,
    FittedModel,
    cascade_sort,
    default_start,
    fit,
    fit_cascade,
    log_likelihood,
)
from arrivalsim.ingest import InterArrivalSample
from arrivalsim.models import enumerate_models, instantiate, model_from_name

A, E = -3.25, -0.5
FAST = FitOptions(min_obs_per_param=1, restarts=1)


def make_sample(x, t=None, days=1):
    x = np.asarray(x, dtype=float)
    if t is None:
        t = np.linspace(A, E, x.size, endpoint=False)
    return InterArrivalSample(x=x, t=np.asarray(t, float), window_start=A, window_end=E, days=days)


def draws_sample(params, n, seed, days=1):
    rng = np.random.default_rng(seed)
    return make_sample(params.sample(rng, size=n), days=days)


class TestLogLikelihood:
    def test_exp_const_analytic(self):
        spec = model_from_name("Exp.Const")
        sample = make_sample([0.5, 0.5])
        assert log_likelihood(spec, [2.0], sample) == pytest.approx(
            2.0 * (math.log(2.0) - 1.0), rel=1e-12
        )

    def test_gamma_shape_one_reproduces_exp(self):
        sample = draws_sample(Gamma(1.0, 2.0), 200, seed=0)
        ll_exp = log_likelihood(model_from_name("Exp.Const"), [2.0], sample)
        ll_gamma = log_likelihood(model_from_name("Gamma.Const.Const"), [2.0, 1.0], sample)
        assert ll_gamma == pytest.approx(ll_exp, rel=1e-12)

    def test_matches_term_by_term_oracle(self):
        """Vectorized total equals summing instantiate().logpdf one spell at
        a time, for a random theta of every model."""
        rng = np.random.default_rng(42)
        x = rng.gamma(2.0, 0.01, size=100)
        t = np.sort(rng.uniform(A - 0.5, E, size=100))  # some spells precede the window
        sample = make_sample(x, t)
        from test_models import feasible_theta

        for spec in enumerate_models():
            theta = feasible_theta(spec, rng)
            naive = 0.0
            for xi, ti in zip(x, t):
                ti_clamped = min(max(ti, A), E)
                naive += instantiate(spec, theta, ti_clamped).logpdf(xi)
            got = log_likelihood(spec, theta, sample)
            assert got == pytest.approx(naive, rel=1e-10, abs=1e-10)

    def test_infeasible_theta_returns_neg_inf(self):
        spec = model_from_name("Exp.Lin")
        sample = make_sample([0.1, 0.2, 0.3])
        assert log_likelihood(spec, [0.1, 1.0], sample) == -math.inf
        spec = model_from_name("Gamma.Const.Const")
        assert log_likelihood(spec, [1.0, -2.0], sample) == -math.inf
        assert log_likelihood(spec, [math.nan, 1.0], sample) == -math.inf


class TestFit:
    def test_exp_const_closed_form(self):
        sample = make_sample([0.5, 0.5, 0.5, 0.5])
        result = fit(model_from_name("Exp.Const"), sample, FAST)
        assert result.theta[0] == pytest.approx(2.0, rel=1e-6)
        assert result.converged

    def test_exp_const_closed_form_random_samples(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(40, 400))
            x = rng.exponential(1.0 / rng.uniform(0.5, 300.0), size=n)
            sample = make_sample(x)
            result = fit(model_from_name("Exp.Const"), sample, FAST)
            assert result.theta[0] == pytest.approx(n / x.sum(), rel=1e-6)

    def test_gamma_recovery(self):
        sample = draws_sample(Gamma(2.0, 3.0), 50_000, seed=1)
        result = fit(model_from_name("Gamma.Const.Const"), sample, FAST)
        beta_hat, alpha_hat = result.theta
        assert alpha_hat == pytest.approx(2.0, rel=0.05)
        assert beta_hat == pytest.approx(3.0, rel=0.05)

    def test_gengam_fit_beats_mapped_truth(self):
        """On Gamma(4, 2) data the fitted GenGam.Const.Const log-likelihood
        is at least that of the exactly mapped truth, minus 2 nats."""
        sample = draws_sample(Gamma(4.0, 2.0), 20_000, seed=2)
        spec = model_from_name("GenGam.Const.Const")
        result = fit(spec, sample, FAST)
        true_ll = log_likelihood(spec, [2.0, 4.0, 0.5], sample)
        assert instantiate(spec, [2.0, 4.0, 0.5], -1.0) == GenGam(math.log(2.0), 0.5, 0.5)
        assert result.log_likelihood >= true_ll - 2.0

    def test_reported_loglik_recomputes(self):
        sample = draws_sample(Gamma(2.0, 100.0), 500, seed=3)
        result = fit(model_from_name("Gamma.Const.Const"), sample, FAST)
        assert result.log_likelihood == pytest.approx(
            log_likelihood(result.spec, result.theta, sample), rel=1e-12
        )

    def test_deterministic(self):
        sample = draws_sample(Gamma(2.0, 100.0), 500, seed=4)
        a = fit(model_from_name("Gamma.Const.Const"), sample, FAST)
        b = fit(model_from_name("Gamma.Const.Const"), sample, FAST)
        np.testing.assert_array_equal(a.theta, b.theta)
        assert a.log_likelihood == b.log_likelihood

    def test_insufficient_data(self):
        sample = make_sample([0.5, 0.5])
        with pytest.raises(InsufficientDataError):
            fit(model_from_name("Exp.Const"), sample, FitOptions(min_obs_per_param=10))

    @pytest.mark.parametrize("key, value", [
        ("max_evals", 0), ("f_tol", -1.0), ("x_tol", 0.0), ("f_tol", math.nan),
        ("restarts", -1), ("jitter_scale", -0.1), ("min_obs_per_param", 0),
    ])
    def test_options_that_break_the_fit_are_rejected(self, key, value):
        with pytest.raises(ParameterError, match=f"fit.{key}"):
            FitOptions(**{key: value})

    def test_json_roundtrip(self):
        sample = draws_sample(Gamma(2.0, 100.0), 300, seed=5)
        result = fit(model_from_name("Gamma.Const.Const"), sample, FAST)
        back = FittedModel.from_json(result.to_json())
        assert back.spec == result.spec
        np.testing.assert_array_equal(back.theta, result.theta)
        assert back.log_likelihood == result.log_likelihood
        assert back.converged == result.converged


class TestRestartRule:
    """Jittered restarts run for models with an Expon rate or shape function
    and for every start from the moment default, not for other donor starts."""

    def fits(self, name, sample, start_source):
        spec = model_from_name(name)
        kw = {"theta0": default_start(spec, sample), "start_source": start_source}
        return fit(spec, sample, **kw), fit(spec, sample, FitOptions(restarts=0), **kw)

    def test_no_restarts_from_a_donor_start(self):
        sample = draws_sample(Gamma(2.0, 100.0), 300, seed=10)
        default, single = self.fits("Gamma.Lin.Const", sample, "Gamma.Const.Const")
        np.testing.assert_array_equal(default.theta, single.theta)
        assert default.n_evals == single.n_evals

    def test_default_start_keeps_restarts(self):
        sample = draws_sample(Gamma(2.0, 100.0), 300, seed=10)
        default, single = self.fits("Gamma.Lin.Const", sample, "default")
        assert default.n_evals > single.n_evals
        assert default.log_likelihood >= single.log_likelihood

    def test_expon_models_keep_restarts(self):
        sample = draws_sample(Gamma(1.0, 100.0), 300, seed=11)
        default, single = self.fits("Exp.Expon", sample, "Exp.Const")
        assert default.n_evals > single.n_evals
        assert default.log_likelihood >= single.log_likelihood


class TestCascade:
    def test_order_puts_donors_first(self):
        specs = cascade_sort(enumerate_models())
        names = [s.name for s in specs]
        assert names.index("Exp.Const") < names.index("Exp.Expon")
        assert names.index("Exp.Lin") < names.index("Gamma.Lin.Const")
        assert names.index("Gamma.Lin.Lin") < names.index("GenGam.Lin.Lin")
        assert names.index("GenGam.Quadr.Expon") < names.index("GenF.Quadr.Expon")

    def test_nesting_chain_is_monotone(self):
        """Exactly nested model chains cannot lose likelihood, up to
        optimizer slack."""
        sample = draws_sample(Gamma(1.8, 120.0), 4_000, seed=6)
        names = ["Exp.Lin", "Gamma.Lin.Const", "GenGam.Lin.Const", "GenF.Lin.Const"]
        fits = fit_cascade([model_from_name(n) for n in names], sample, FAST)
        lls = [fits[n].log_likelihood for n in names]
        for weaker, stronger in zip(lls, lls[1:]):
            assert stronger >= weaker - 1e-4

    def test_insufficient_models_skipped(self):
        sample = draws_sample(Gamma(2.0, 100.0), 45, seed=7)
        specs = [model_from_name("Exp.Const"), model_from_name("GenF.Expon.Expon")]
        fits = fit_cascade(specs, sample, FitOptions(min_obs_per_param=10, restarts=0))
        assert "Exp.Const" in fits
        assert "GenF.Expon.Expon" not in fits  # needs 80 observations

    def test_preloaded_entries_reused(self):
        sample = draws_sample(Gamma(2.0, 100.0), 300, seed=8)
        spec = model_from_name("Exp.Const")
        first = fit_cascade([spec], sample, FAST)
        marker = FittedModel(
            spec=spec, theta=[123.0], log_likelihood=-1.0, converged=True
        )
        again = fit_cascade([spec], sample, FAST, preloaded={"Exp.Const": marker})
        assert again["Exp.Const"] is marker
        assert first["Exp.Const"].theta[0] != 123.0

    def test_default_start_feasible_for_all_models(self):
        rng = np.random.default_rng(9)
        sample = make_sample(rng.gamma(0.8, 0.02, size=400))
        for spec in enumerate_models():
            theta = default_start(spec, sample)
            assert math.isfinite(log_likelihood(spec, theta, sample))
