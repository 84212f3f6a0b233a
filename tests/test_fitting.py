"""Likelihood and optimizer checks against closed forms and nesting bounds."""

import json
import math
from datetime import date

import numpy as np
import pytest

from arrivalsim.errors import InsufficientDataError, ParameterError
import arrivalsim.fitting as fitting
from arrivalsim.fitting import (
    FitOptions,
    FittedModel,
    cascade_sort,
    default_start,
    fit,
    fit_cascade,
    log_likelihood,
    log_likelihood_and_score,
    warm_start_candidates,
)
from arrivalsim.ingest import (
    InterArrivalSample,
    build_series,
    merge_samples,
    parse_csv,
    slice_window,
)
from arrivalsim.models import FuncKind, enumerate_models, model_from_name
from arrivalsim.synth import synth_generate

A, E = -3.25, -0.5
FAST = FitOptions(min_obs_per_param=1, restarts=1)


def make_sample(x, t=None, days=1):
    x = np.asarray(x, dtype=float)
    if t is None:
        t = np.linspace(A, E, x.size, endpoint=False)
    return InterArrivalSample(x=x, t=np.asarray(t, float), window_start=A, window_end=E, days=days)


def draws_sample(shape, rate, n, seed, days=1):
    """n Gamma(shape, rate) inter-arrivals."""
    rng = np.random.default_rng(seed)
    return make_sample(rng.gamma(shape, 1.0 / rate, n), days=days)


class TestLogLikelihood:
    def test_exp_const_analytic(self):
        spec = model_from_name("Exp.Const")
        sample = make_sample([0.5, 0.5])
        assert log_likelihood(spec, [2.0], sample) == pytest.approx(
            2.0 * (math.log(2.0) - 1.0), rel=1e-12
        )

    def test_gamma_shape_one_reproduces_exp(self):
        sample = draws_sample(1.0, 2.0, 200, seed=0)
        ll_exp = log_likelihood(model_from_name("Exp.Const"), [2.0], sample)
        ll_gamma = log_likelihood(model_from_name("Gamma.Const.Const"), [2.0, 1.0], sample)
        assert ll_gamma == pytest.approx(ll_exp, rel=1e-12)

    def test_matches_term_by_term_oracle(self):
        """Vectorized total equals summing the scipy.stats log density one
        spell at a time, at the scalar oracle's parameters of the clamped
        spell start, for a random theta of every model."""
        rng = np.random.default_rng(42)
        x = rng.gamma(2.0, 0.01, size=100)
        t = np.sort(rng.uniform(A - 0.5, E, size=100))  # some spells precede the window
        sample = make_sample(x, t)
        from test_distributions import oracle
        from test_models import feasible_theta, instantiate

        for spec in enumerate_models():
            theta = feasible_theta(spec, rng)
            columns = np.array([instantiate(spec, theta, min(max(ti, A), E)) for ti in t]).T
            params = (*columns[:2], *columns[2:, 0])  # q and p are scalars
            naive = float(np.sum(oracle(spec.family, params).logpdf(x)))
            got = log_likelihood(spec, theta, sample)
            assert got == pytest.approx(naive, rel=1e-10, abs=1e-10)

    def test_infeasible_theta_returns_neg_inf(self):
        spec = model_from_name("Exp.Lin")
        sample = make_sample([0.1, 0.2, 0.3])
        assert log_likelihood(spec, [0.1, 1.0], sample) == -math.inf
        spec = model_from_name("Gamma.Const.Const")
        assert log_likelihood(spec, [1.0, -2.0], sample) == -math.inf
        assert log_likelihood(spec, [math.nan, 1.0], sample) == -math.inf


def score_sample(seed=42, n=300):
    rng = np.random.default_rng(seed)
    x = rng.gamma(2.0, 0.01, size=n)
    t = np.sort(rng.uniform(A - 0.5, E, size=n))  # some spells precede the window
    return make_sample(x, t)


def central_differences(spec, theta, sample):
    """Central differences with one Richardson step: error O(h**4)."""

    def diff(k, h):
        up, down = theta.copy(), theta.copy()
        up[k] += h
        down[k] -= h
        return (log_likelihood(spec, up, sample) - log_likelihood(spec, down, sample)) / (2 * h)

    out = []
    for k in range(theta.size):
        h = 1e-5 * max(abs(theta[k]), 1.0)
        out.append((4 * diff(k, h / 2) - diff(k, h)) / 3)
    return np.array(out)


class TestScore:
    """The analytic score against central differences of log_likelihood."""

    @pytest.mark.parametrize("spec", enumerate_models(), ids=lambda s: s.name)
    def test_matches_central_differences(self, spec):
        from test_models import feasible_theta

        sample = score_sample()
        rng = np.random.default_rng(7)
        thetas = [feasible_theta(spec, rng) for _ in range(2)]
        if spec.q_index is not None:  # q outside the lognormal band, both signs
            for q in (-0.7, 0.05, 1.5):
                theta = feasible_theta(spec, rng)
                theta[spec.q_index] = q
                thetas.append(theta)
        if spec.p_index is not None:
            for p in (1e-3, 0.5, 2.0):
                theta = feasible_theta(spec, rng)
                theta[spec.p_index] = p
                thetas.append(theta)
        for theta in thetas:
            value, grad = log_likelihood_and_score(spec, theta, sample)
            assert value == log_likelihood(spec, theta, sample)  # bitwise
            np.testing.assert_allclose(
                grad, central_differences(spec, theta, sample), rtol=1e-5, atol=1e-3,
                err_msg=f"{spec.name} at {theta}",
            )

    def test_lognormal_band_takes_the_limit(self):
        """Inside the band the value ignores q; its q-derivative is the limit
        -sum(w**3)/6 of the derivative outside it."""
        spec = model_from_name("GenGam.Lin.Const")
        sample = score_sample()
        inside = log_likelihood_and_score(spec, [50.0, -3.0, 1.5, 1e-6], sample)[1][-1]
        assert inside == log_likelihood_and_score(spec, [50.0, -3.0, 1.5, -1e-6], sample)[1][-1]
        outside = [
            log_likelihood_and_score(spec, [50.0, -3.0, 1.5, q], sample)[1][-1]
            for q in (-1e-3, 1e-3)
        ]
        assert inside == pytest.approx(np.mean(outside), rel=1e-5)
        h = 1e-3
        theta = np.array([50.0, -3.0, 1.5, 2e-3])
        up, down = theta.copy(), theta.copy()
        up[-1] += h
        down[-1] -= h
        fd = (log_likelihood(spec, up, sample) - log_likelihood(spec, down, sample)) / (2 * h)
        assert log_likelihood_and_score(spec, theta, sample)[1][-1] == pytest.approx(fd, rel=1e-4)

    @pytest.mark.parametrize("q", [-0.3, 0.0, 0.5, 1.5])
    def test_genf_p_derivative_at_zero_is_one_sided(self, q):
        """At the bound p = 0, where the value is the generalized gamma's, the
        P entry is the derivative from above (second-order forward
        difference)."""
        spec = model_from_name("GenF.Lin.Const")
        sample = score_sample()
        theta = np.array([50.0, -3.0, 1.5, q, 0.0])

        def ll(p):
            return log_likelihood(spec, np.r_[theta[:-1], p], sample)

        h = 1e-4
        fd = (-3 * ll(0.0) + 4 * ll(h) - ll(2 * h)) / (2 * h)
        score = log_likelihood_and_score(spec, theta, sample)[1][-1]
        assert score == pytest.approx(fd, rel=1e-3)

    def test_infeasible_theta_has_no_score(self):
        spec = model_from_name("Exp.Lin")
        sample = make_sample([0.1, 0.2, 0.3])
        assert log_likelihood_and_score(spec, [0.1, 1.0], sample) == (-math.inf, None)


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
        sample = draws_sample(2.0, 3.0, 50_000, seed=1)
        result = fit(model_from_name("Gamma.Const.Const"), sample, FAST)
        beta_hat, alpha_hat = result.theta
        assert alpha_hat == pytest.approx(2.0, rel=0.05)
        assert beta_hat == pytest.approx(3.0, rel=0.05)

    def test_gengam_fit_beats_mapped_truth(self):
        """On Gamma(4, 2) data the fitted GenGam.Const.Const log-likelihood
        is at least that of the exactly mapped truth, minus 2 nats."""
        sample = draws_sample(4.0, 2.0, 20_000, seed=2)
        spec = model_from_name("GenGam.Const.Const")
        result = fit(spec, sample, FAST)
        true_ll = log_likelihood(spec, [2.0, 4.0, 0.5], sample)
        params, _ = spec.params_at(np.array([2.0, 4.0, 0.5]), -1.0)
        assert [float(v) for v in params] == [math.log(2.0), 0.5, 0.5]
        assert result.log_likelihood >= true_ll - 2.0

    def test_reported_loglik_recomputes(self):
        sample = draws_sample(2.0, 100.0, 500, seed=3)
        result = fit(model_from_name("Gamma.Const.Const"), sample, FAST)
        assert result.log_likelihood == pytest.approx(
            log_likelihood(result.spec, result.theta, sample), rel=1e-12
        )

    def test_deterministic(self):
        sample = draws_sample(2.0, 100.0, 500, seed=4)
        a = fit(model_from_name("Gamma.Const.Const"), sample, FAST)
        b = fit(model_from_name("Gamma.Const.Const"), sample, FAST)
        np.testing.assert_array_equal(a.theta, b.theta)
        assert a.log_likelihood == b.log_likelihood

    def test_insufficient_data(self):
        sample = make_sample([0.5, 0.5])
        with pytest.raises(InsufficientDataError):
            fit(model_from_name("Exp.Const"), sample, FitOptions(min_obs_per_param=10))

    @pytest.mark.parametrize("key, value", [
        ("max_evals", 0), ("max_evals", 2.5), ("f_tol", -1.0), ("f_tol", math.nan),
        ("f_tol", math.inf), ("f_tol", True), ("f_tol", "1e-8"),
        ("restarts", -1), ("restarts", 1.5), ("restarts", True),
        ("min_obs_per_param", 0), ("min_obs_per_param", 10.0),
    ])
    def test_options_that_break_the_fit_are_rejected(self, key, value):
        with pytest.raises(ParameterError, match=f"fit.{key}"):
            FitOptions(**{key: value})

    @pytest.mark.parametrize("nm_fallbacks", [{"nm_fallbacks": 1}, {}])
    def test_reads_records_with_and_without_fallback_counts(self, nm_fallbacks):
        """Records that count Nelder-Mead runs, written before the fallback
        was retired, and records written before the count existed both load;
        a record written now does not carry the count."""
        text = json.dumps({
            "version": 1, "model": "Exp.Const", "theta": [2.0], "log_likelihood": -1.0,
            "n_obs": 10, "days": 1, "window": [-3.25, -0.5], "n_evals": 30,
            "converged": True, "start_source": "default", "fallback": False,
            **nm_fallbacks,
        })
        record = FittedModel.from_json(text)
        assert (record.theta.tolist(), record.n_evals, record.converged) == ([2.0], 30, True)
        assert "nm_fallbacks" not in json.loads(record.to_json())

    @pytest.mark.parametrize("edit, message", [
        (lambda record: [], "must be a JSON object"),
        (lambda record: {**record, "window": None}, "window must be two numbers"),
        (lambda record: {**record, "window": [-3.25]}, "window must be two numbers"),
        (lambda record: {**record, "theta": [2.0, 1.0]}, "needs 1 theta numbers"),
        (lambda record: {**record, "theta": ["2"]}, "needs 1 theta numbers"),
        (lambda record: {k: v for k, v in record.items() if k != "n_obs"}, "lacks \\['n_obs'\\]"),
        (lambda record: {**record, "model": 5}, "not a valid model name"),
        (lambda record: {**record, "n_obs": "many"}, "n_obs must be a non-negative integer"),
        (lambda record: {**record, "n_obs": 2.5}, "n_obs must be a non-negative integer"),
        (lambda record: {**record, "days": -3}, "days must be a non-negative integer"),
        (lambda record: {**record, "n_evals": True}, "n_evals must be a non-negative integer"),
        (lambda record: {**record, "converged": "yes"}, "converged must be true or false"),
        (lambda record: {**record, "fallback": 0}, "fallback must be true or false"),
        (lambda record: {**record, "log_likelihood": "x"}, "log_likelihood must be a number"),
        (lambda record: {**record, "start_source": [1, 2]}, "start_source must be a string"),
        (lambda record: {**record, "start_source": None}, "start_source must be a string"),
    ])
    def test_a_record_that_does_not_hold_is_a_parameter_error(self, edit, message):
        record = json.loads(FittedModel(
            model_from_name("Exp.Const"), [2.0], -1.0, n_obs=10, days=1, window=(-3.25, -0.5)
        ).to_json())
        with pytest.raises(ParameterError, match=message):
            FittedModel.from_json(json.dumps(edit(record)))

    def test_a_record_without_its_defaulted_keys_loads_their_defaults(self):
        record = json.loads(FittedModel(
            model_from_name("Exp.Const"), [2.0], -1.0, n_obs=10, days=1, window=(-3.25, -0.5)
        ).to_json())
        del record["start_source"], record["fallback"]
        loaded = FittedModel.from_json(json.dumps(record))
        assert (loaded.start_source, loaded.fallback) == ("", False)

    def test_text_that_is_not_json_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match="not JSON"):
            FittedModel.from_json("delivery_date,product,timestamp\n")

    def test_json_roundtrip(self):
        sample = draws_sample(2.0, 100.0, 300, seed=5)
        result = fit(model_from_name("Gamma.Const.Const"), sample, FAST)
        back = FittedModel.from_json(result.to_json())
        assert back.spec == result.spec
        np.testing.assert_array_equal(back.theta, result.theta)
        assert back.log_likelihood == result.log_likelihood
        assert back.converged == result.converged


class TestRestartRule:
    """Further starts run for models with an Expon rate or shape function and
    for every Gamma, GenGam or GenF fit whose best-ranked start is the moment
    default: the next-ranked distinct candidates where the likelihood is
    defined, up to ``restarts`` of them, and no other start."""

    def fits(self, name, sample, start_source):
        """Fits from two candidates, the moment default labelled
        ``start_source`` and that vector scaled by 1.1, with the default
        options and with ``restarts=0``."""
        spec = model_from_name(name)
        theta = default_start(spec, sample)
        starts = [(start_source, theta), ("scaled", 1.1 * theta)]
        return fit(spec, sample, starts=starts), fit(spec, sample, FitOptions(restarts=0), starts)

    def test_no_restarts_from_a_donor_start(self):
        sample = draws_sample(2.0, 100.0, 300, seed=10)
        default, single = self.fits("Gamma.Lin.Const", sample, "Gamma.Const.Const")
        np.testing.assert_array_equal(default.theta, single.theta)
        assert default.n_evals == single.n_evals

    def test_default_start_keeps_restarts(self):
        sample = draws_sample(2.0, 100.0, 300, seed=10)
        default, single = self.fits("Gamma.Lin.Const", sample, "default")
        assert default.n_evals > single.n_evals
        assert default.log_likelihood >= single.log_likelihood

    def test_expon_models_keep_restarts(self):
        sample = draws_sample(1.0, 100.0, 300, seed=11)
        default, single = self.fits("Exp.Expon", sample, "Exp.Const")
        assert default.n_evals > single.n_evals
        assert default.log_likelihood >= single.log_likelihood

    @pytest.mark.parametrize("name", ["Exp.Const", "Exp.Lin", "Exp.Quadr"])
    def test_concave_exp_models_take_no_restarts_from_the_default(self, name):
        """An Exp model with a Const, Lin or Quadr rate has a concave
        log-likelihood, so its fit from the moment default runs once: it
        takes the restarts=0 fit's evaluations and vector, and no single-start
        fit from a fixed perturbation of the default ends more than 1e-9
        relative higher."""
        rng = np.random.default_rng(13)
        t = np.linspace(A, E, 400, endpoint=False)
        sample = make_sample(rng.exponential(1.0 / (100.0 + 30.0 * (t - A))), t)
        default, single = self.fits(name, sample, "default")
        np.testing.assert_array_equal(default.theta, single.theta)
        assert default.n_evals == single.n_evals
        spec, theta0 = default.spec, default_start(default.spec, sample)
        lo, hi = spec.bounds()
        # coefficient k moves the rate by about 20% of its level at t = A
        scale = theta0[0] * abs(A) ** -np.arange(theta0.size)
        for _ in range(5):
            start = np.clip(theta0 + 0.2 * scale * rng.standard_normal(theta0.size), lo, hi)
            while not math.isfinite(log_likelihood(spec, start, sample)):
                start = 0.5 * (start + theta0)
            other = fit(spec, sample, FitOptions(restarts=0), [("perturbed", start)])
            assert other.log_likelihood - default.log_likelihood <= 1e-9 * abs(default.log_likelihood)

    def test_no_starts_means_the_moment_default(self):
        sample = draws_sample(1.0, 100.0, 300, seed=11)
        spec = model_from_name("Exp.Expon")
        lone = fit(spec, sample)
        given = fit(spec, sample, starts=[("default", default_start(spec, sample))])
        np.testing.assert_array_equal(lone.theta, given.theta)
        assert (lone.n_evals, lone.start_source) == (given.n_evals, "default")

    def test_the_further_starts_are_the_next_ranked_candidates(self):
        """With one further start and two candidates, the fit runs from
        exactly the two candidates and keeps the better optimum; the label
        stays the best-ranked one's."""
        sample = draws_sample(1.0, 100.0, 300, seed=12)
        spec = model_from_name("Exp.Expon")
        starts = [
            ("Exp.Const", np.array([1e-3, 4.0, 0.0])),
            ("default", default_start(spec, sample)),
        ]
        both = fit(spec, sample, FitOptions(restarts=1), starts)
        alone = [fit(spec, sample, FitOptions(restarts=0), [start]) for start in starts]
        assert both.n_evals == sum(f.n_evals for f in alone)
        assert both.log_likelihood == max(f.log_likelihood for f in alone)
        assert both.start_source == "Exp.Const"

    def test_repeated_and_infeasible_candidates_are_passed_over(self):
        """A candidate equal to an earlier one, or where the likelihood is
        undefined, takes no start: the fit runs as from its best-ranked
        start alone."""
        sample = draws_sample(1.0, 100.0, 300, seed=12)
        spec = model_from_name("Exp.Expon")
        best = ("Exp.Const", default_start(spec, sample))
        infeasible = ("default", np.array([1e-3, 1e4, 0.0]))
        assert log_likelihood(spec, infeasible[1], sample) == -math.inf
        passed_over = fit(spec, sample, starts=[best, best, infeasible])
        lone = fit(spec, sample, starts=[best])
        np.testing.assert_array_equal(passed_over.theta, lone.theta)
        assert passed_over.n_evals == lone.n_evals

    @pytest.mark.parametrize("restarts", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_k_candidates_give_at_most_k_minus_one_more_starts(self, monkeypatch, restarts, k):
        """With k distinct candidates where the likelihood is defined, among
        repeated and infeasible ones, the fit runs from exactly the first
        min(restarts, k - 1) + 1 of them, in their ranked order."""
        sample = draws_sample(1.0, 100.0, 300, seed=12)
        spec = model_from_name("Exp.Expon")
        theta = default_start(spec, sample)
        defined = [theta * (1.0 + 0.05 * j) for j in range(k)]
        ranked = [("best", defined[0]), ("repeat", defined[0].copy())]
        for j, candidate in enumerate(defined[1:]):
            ranked += [(f"candidate {j}", candidate), ("infeasible", np.array([1e-3, 1e4, 0.0]))]
        started = []
        quasi_newton = fitting._quasi_newton
        monkeypatch.setattr(
            fitting, "_quasi_newton",
            lambda spec, sample, x, options: started.append(x) or quasi_newton(spec, sample, x, options),
        )
        fit(spec, sample, FitOptions(restarts=restarts), ranked)
        assert len(started) == 1 + min(restarts, k - 1)
        for x, candidate in zip(started, defined):
            np.testing.assert_array_equal(x, candidate)

    def test_each_start_runs_one_quasi_newton_run(self, monkeypatch):
        """A run that stops at ``max_evals``, short of convergence, is the
        start's result: no further run continues it, and the record holds
        the best run's end point, its value and the runs' summed
        evaluations, flagged unconverged."""
        sample = draws_sample(1.0, 100.0, 300, seed=12)
        spec = model_from_name("Exp.Expon")
        theta = default_start(spec, sample)
        runs = []
        quasi_newton = fitting._quasi_newton

        def counted(spec, sample, x, options):
            runs.append(quasi_newton(spec, sample, x, options))
            return runs[-1]

        monkeypatch.setattr(fitting, "_quasi_newton", counted)
        options = FitOptions(max_evals=8, restarts=1)
        result = fit(spec, sample, options, [("default", theta), ("scaled", 1.1 * theta)])
        assert len(runs) == 2
        assert not any(converged for _, _, converged, _ in runs)
        x, f, _, _ = min(runs, key=lambda run: run[1])
        np.testing.assert_array_equal(result.theta, x)
        assert result.log_likelihood == -f
        assert result.n_evals == sum(evals for *_, evals in runs) == 2 * options.max_evals
        assert not result.converged


@pytest.fixture(scope="module")
def synthetic_cell(tmp_path_factory):
    """A 7-day synth_generate sample and its 37-model cascade."""
    path = synth_generate(
        model_from_name("GenF.Lin.Const"), [60.0, -5.0, 1.0, 0.5, 1.0],
        days=7, seed=0, out_path=tmp_path_factory.mktemp("cell") / "raw.csv", gen_start=-4.25,
    )
    series = build_series(parse_csv(path))
    sample = merge_samples([slice_window(s, A) for s in series.values()])
    return sample, fit_cascade(enumerate_models(), sample)


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
        sample = draws_sample(1.8, 120.0, 4_000, seed=6)
        names = ["Exp.Lin", "Gamma.Lin.Const", "GenGam.Lin.Const", "GenF.Lin.Const"]
        fits = fit_cascade([model_from_name(n) for n in names], sample, FAST)
        lls = [fits[n].log_likelihood for n in names]
        for weaker, stronger in zip(lls, lls[1:]):
            assert stronger >= weaker - 1e-4

    def test_insufficient_models_skipped(self):
        sample = draws_sample(2.0, 100.0, 45, seed=7)
        specs = [model_from_name("Exp.Const"), model_from_name("GenF.Expon.Expon")]
        fits = fit_cascade(specs, sample, FitOptions(min_obs_per_param=10, restarts=0))
        assert "Exp.Const" in fits
        assert "GenF.Expon.Expon" not in fits  # needs 80 observations

    def test_preloaded_entries_reused(self):
        sample = draws_sample(2.0, 100.0, 300, seed=8)
        spec = model_from_name("Exp.Const")
        first = fit_cascade([spec], sample, FAST)
        marker = FittedModel(
            spec=spec, theta=[123.0], log_likelihood=-1.0, converged=True
        )
        again = fit_cascade([spec], sample, FAST, preloaded={"Exp.Const": marker})
        assert again["Exp.Const"] is marker
        assert first["Exp.Const"].theta[0] != 123.0

    def test_the_donors_are_the_models_whose_fits_give_candidates(self, synthetic_cell):
        """Every donor of a model gives it a candidate start, so the donors
        that fit_cascade fits for a spec list that leaves them out are the
        models whose fits warm_start_candidates embeds."""
        sample, fits = synthetic_cell
        t_ref = 0.5 * (sample.window_start + sample.window_end)
        for spec in enumerate_models():
            labels = {label for label, _ in warm_start_candidates(spec, fits, t_ref)}
            assert labels == {d.name for d in enumerate_models() if fitting._is_donor(d, spec)}

    @pytest.mark.parametrize(
        "name", ["Exp.Expon", "Gamma.Expon.Const", "GenGam.Expon.Expon", "GenF.Quadr.Expon"]
    )
    def test_a_model_fitted_alone_fits_as_in_the_full_cascade(self, synthetic_cell, name):
        """Asked for alone, as `arrivalsim fit --model` asks, a model is fitted
        after its donors, so it takes the same starts and ends bitwise where
        the 37-model cascade ends; only that model is returned."""
        sample, fits = synthetic_cell
        alone = fit_cascade([model_from_name(name)], sample)
        assert list(alone) == [name]
        np.testing.assert_array_equal(alone[name].theta, fits[name].theta)
        assert alone[name].log_likelihood == fits[name].log_likelihood
        assert (alone[name].n_evals, alone[name].start_source) == (
            fits[name].n_evals, fits[name].start_source
        )

    def test_preloaded_models_need_no_donors(self, monkeypatch):
        """A preloaded record is taken as-is, so its donors are not fitted."""
        fitted = []
        monkeypatch.setattr(
            fitting, "fit", lambda spec, *args: fitted.append(spec.name) or fit(spec, *args)
        )
        sample = draws_sample(2.0, 100.0, 300, seed=8)
        spec = model_from_name("GenF.Const.Const")
        record = FittedModel(spec=spec, theta=default_start(spec, sample), log_likelihood=-1.0)
        names = ["GenF.Const.Const", "GenF.Lin.Const"]
        fits = fit_cascade(
            [model_from_name(n) for n in names], sample, FAST, preloaded={spec.name: record}
        )
        assert list(fits) == names and fits["GenF.Const.Const"] is record
        # GenF.Lin.Const's donors: GenGam.Lin.Const and the preloaded GenF.Const.Const
        assert fitted == [
            "Exp.Const", "Exp.Lin", "Gamma.Const.Const", "Gamma.Lin.Const",
            "GenGam.Const.Const", "GenGam.Lin.Const", "GenF.Lin.Const",
        ]

    def test_full_cascade_on_a_synthetic_cell_needs_no_fallback(self, synthetic_cell):
        """All 37 models on one 7-day synth_generate cell: every fit converges
        along the score, without a fallback record."""
        _, fits = synthetic_cell
        assert len(fits) == 37
        assert [name for name, f in fits.items() if f.fallback] == []
        assert [name for name, f in fits.items() if not f.converged] == []

    def test_every_record_holds_the_likelihood_of_its_vector(self, synthetic_cell):
        """The record's log-likelihood is the winning run's own value: bitwise
        what log_likelihood gives at the fitted vector."""
        sample, fits = synthetic_cell
        for name, fitted in fits.items():
            assert fitted.log_likelihood == log_likelihood(fitted.spec, fitted.theta, sample), name

    def test_a_cascade_evaluates_each_distinct_start_once(self, monkeypatch):
        """Exp.Const runs once from its moment default, the maximum itself, and
        Exp.Lin's donor embedding repeats its default: the cascade evaluates
        one start of each model, value only, and nothing more."""
        calls = []
        monkeypatch.setattr(
            fitting, "log_likelihood",
            lambda spec, theta, sample: calls.append(spec.name) or log_likelihood(spec, theta, sample),
        )
        sample = draws_sample(1.0, 100.0, 300, seed=14)
        fits = fit_cascade([model_from_name("Exp.Const"), model_from_name("Exp.Lin")], sample)
        assert calls == ["Exp.Const", "Exp.Lin"]
        assert fits["Exp.Lin"].start_source == "Exp.Const"

    def test_lbfgsb_from_each_fit_finds_no_higher_likelihood(self, synthetic_cell):
        """An independent optimizer, scipy's L-BFGS-B on the same score and
        box, started at each of the 37 fitted vectors, gains at most 1e-6 of
        the log-likelihood."""
        from scipy import optimize

        sample, fits = synthetic_cell
        for name, fitted in fits.items():
            spec = fitted.spec

            def objective(theta):
                value, score = log_likelihood_and_score(spec, theta, sample)
                return (-value, -score) if score is not None else (1e300, np.zeros_like(theta))

            res = optimize.minimize(
                objective, fitted.theta, jac=True, method="L-BFGS-B",
                bounds=optimize.Bounds(*spec.bounds()),
            )
            gain = -float(res.fun) - fitted.log_likelihood
            assert gain <= 1e-6 * abs(fitted.log_likelihood), (name, gain)

    def test_a_parameter_at_its_bound_stops_the_fit_there(self):
        """GenF.Const.Const on gamma draws: from its GenGam donor, P = 0 is
        optimal with the score pushing P below its bound, so the fit stops
        at once, after its curvature probe, with P exactly 0."""
        sample = draws_sample(2.0, 100.0, 2_000, seed=2)
        names = ["Exp.Const", "Gamma.Const.Const", "GenGam.Const.Const", "GenF.Const.Const"]
        fitted = fit_cascade([model_from_name(n) for n in names], sample)["GenF.Const.Const"]
        assert fitted.theta[-1] == 0.0
        assert fitted.converged and fitted.start_source == "GenGam.Const.Const"
        assert fitted.n_evals == 1 + fitted.spec.n_params
        assert log_likelihood_and_score(fitted.spec, fitted.theta, sample)[1][-1] < -1.0

    def test_expon_fits_reach_the_optima_of_their_ranked_starts(self, tmp_path):
        """On a 7-day GenF.Const.Const cell, each Expon model of the 37-model
        cascade ends at least as high as a single-start fit from each of its
        restarts + 1 best-ranked candidate starts."""
        path = synth_generate(
            model_from_name("GenF.Const.Const"), [80.0, 1.0, 0.5, 1.0],
            days=8, seed=0, out_path=tmp_path / "raw.csv", gen_start=-4.25,
        )
        series = build_series(parse_csv(path))
        sample = merge_samples(
            [slice_window(s, A) for (day, _), s in series.items() if day < date(2017, 9, 10)]
        )
        assert (sample.n, sample.days) == (984, 7)
        options = FitOptions()
        fits = fit_cascade(enumerate_models(), sample, options)
        t_ref = 0.5 * (sample.window_start + sample.window_end)
        for spec in enumerate_models():
            if FuncKind.EXPON not in (spec.rate_kind, spec.shape_kind):
                continue
            starts = warm_start_candidates(spec, fits, t_ref)
            starts.append(("default", default_start(spec, sample)))
            starts.sort(key=lambda start: log_likelihood(spec, start[1], sample), reverse=True)
            for start in starts[: options.restarts + 1]:
                single = fit(spec, sample, FitOptions(restarts=0), [start])
                assert fits[spec.name].log_likelihood >= single.log_likelihood, spec.name

    def test_a_cascade_draws_no_random_numbers(self, monkeypatch):
        """Every start is a ranked candidate, so a 37-model cascade whose
        Expon models have fewer candidates than starts builds no generator
        (one that did would leave a fallback record)."""
        sample = draws_sample(1.5, 100.0, 400, seed=15)
        built = []

        def refused(*args, **kwargs):
            built.append(args)
            raise AssertionError("fit_cascade built a random generator")

        monkeypatch.setattr(np.random, "default_rng", refused)
        fits = fit_cascade(enumerate_models(), sample)
        assert built == []
        assert len(fits) == 37 and not any(f.fallback for f in fits.values())

    def test_failed_fit_is_logged_as_a_fallback(self, monkeypatch, caplog):
        def broken(*args, **kwargs):
            raise FloatingPointError("broken score")

        monkeypatch.setattr(fitting, "fit", broken)
        sample = draws_sample(2.0, 100.0, 300, seed=8)
        with caplog.at_level("WARNING", logger="arrivalsim.fitting"):
            fits = fit_cascade([model_from_name("Exp.Const")], sample, FAST)
        assert fits["Exp.Const"].fallback
        assert "Exp.Const: fit failed" in caplog.text
        assert "FloatingPointError: broken score" in caplog.text

    def test_default_start_feasible_for_all_models(self):
        rng = np.random.default_rng(9)
        sample = make_sample(rng.gamma(0.8, 0.02, size=400))
        for spec in enumerate_models():
            theta = default_start(spec, sample)
            assert math.isfinite(log_likelihood(spec, theta, sample))
