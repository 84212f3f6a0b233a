"""Maximum-likelihood estimation of time-varying inter-arrival models.

The log-likelihood of a model on a pooled multi-day sample is the sum of
the family log-density at each inter-arrival, with the parameter functions
evaluated at the spell start (the previous arrival time), clamped into the
modeling window.  Infeasible parameter vectors (non-positive rate or shape
anywhere they are evaluated) score ``-inf`` so the optimizer retreats
instead of crashing.

Optimization follows the analytic score: :func:`log_likelihood_and_score`
returns the likelihood and its gradient in one vectorized pass, and
L-BFGS-B climbs it inside the box bounds, each coordinate scaled by the
score's curvature along it.  A bounded Nelder-Mead simplex runs only as a
logged fallback, counted on the fit record, when a gradient run stops
short of convergence.  The likelihood surfaces are low dimensional (at
most 8 parameters) but can be multimodal, so richer models are
warm-started from simpler ones (see :func:`fit_cascade`).  The 16 models
with an Expon rate or shape function, and any fit from the moment default,
also run from the next-ranked candidate starts.  On synthetic cells,
skipping those starts lost up to 2.8 LL units on Expon models and up to 3.0
on GenF models started from the default, while every other model started
from a fitted donor reached its multi-start optimum to within 3e-6 LL.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import optimize

from .distributions import KERNELS
from .errors import InsufficientDataError, ParameterError
from .ingest import InterArrivalSample
from .models import Family, FuncKind, ModelSpec, model_from_name

__all__ = [
    "FitOptions",
    "FittedModel",
    "log_likelihood",
    "log_likelihood_and_score",
    "fit",
    "default_start",
    "warm_start_candidates",
    "fit_cascade",
    "cascade_sort",
]

logger = logging.getLogger(__name__)

_BIG = 1e300  # finite stand-in for +inf so line searches stay well-defined
_GRADIENT_RUNS = 4  # L-BFGS-B runs per start before the Nelder-Mead fallback
_EXPON_SMALL_C = 1e-3
_SHAPE_ONE_EXPON_A1 = math.log(1e-8)
# fixed perturbations of the best start fill the starts candidates leave empty
_JITTER_SEED = 0
_JITTER_SCALE = 0.1


@dataclass(frozen=True)
class FitOptions:
    max_evals: int = 20_000
    f_tol: float = 1e-8
    x_tol: float = 1e-8
    restarts: int = 3
    polish: bool = True
    min_obs_per_param: int = 10

    def __post_init__(self):
        for name, ok, rule in (
            ("max_evals", self.max_evals >= 1, ">= 1"),
            ("f_tol", self.f_tol > 0, "> 0"),
            ("x_tol", self.x_tol > 0, "> 0"),
            ("restarts", self.restarts >= 0, ">= 0"),
            ("min_obs_per_param", self.min_obs_per_param >= 1, ">= 1"),
        ):
            if not ok:
                raise ParameterError(f"fit.{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class FittedModel:
    """A model spec with its estimate and fit diagnostics."""

    spec: ModelSpec
    theta: np.ndarray
    log_likelihood: float | None
    n_obs: int = 0
    days: int = 0
    window: tuple[float, float] = (math.nan, math.nan)
    n_evals: int = 0
    converged: bool = False
    start_source: str = ""
    fallback: bool = False
    nm_fallbacks: int = 0

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": 1,
                "model": self.spec.name,
                "theta": [float(v) for v in self.theta],
                "log_likelihood": self.log_likelihood,
                "n_obs": self.n_obs,
                "days": self.days,
                "window": [self.window[0], self.window[1]],
                "n_evals": self.n_evals,
                "converged": self.converged,
                "start_source": self.start_source,
                "fallback": self.fallback,
                "nm_fallbacks": self.nm_fallbacks,
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FittedModel":
        """The record of :meth:`to_json` text.  Raises
        :class:`ParameterError` for text that is not JSON, a record that is
        not an object or lacks a key, a ``window`` that is not two numbers
        and a ``theta`` that is not ``spec.n_params`` numbers."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"fit record is not JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ParameterError(f"fit record must be a JSON object, got {type(data).__name__}")
        if data.get("version") != 1:
            raise ParameterError(f"unsupported fit record version {data.get('version')!r}")
        missing = [key for key in _RECORD_KEYS if key not in data]
        if missing:
            raise ParameterError(f"fit record lacks {missing}")
        spec, theta, window = model_from_name(data["model"]), data["theta"], data["window"]
        if not _numbers(window, 2):
            raise ParameterError(f"fit record window must be two numbers, got {window!r}")
        if not _numbers(theta, spec.n_params):
            raise ParameterError(
                f"{spec.name} fit record needs {spec.n_params} theta numbers, got {theta!r}"
            )
        return cls(
            spec=spec,
            theta=np.asarray(theta, dtype=float),
            log_likelihood=data["log_likelihood"],
            n_obs=data["n_obs"],
            days=data["days"],
            window=(window[0], window[1]),
            n_evals=data["n_evals"],
            converged=data["converged"],
            start_source=data.get("start_source", ""),
            fallback=data.get("fallback", False),
            nm_fallbacks=data.get("nm_fallbacks", 0),
        )

    def save(self, path: str | Path) -> None:
        """Write the record through a temporary file in the same directory,
        so that a study killed mid-write leaves the old record or none."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(self.to_json())
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str | Path) -> "FittedModel":
        return cls.from_json(Path(path).read_text())


# the keys of a fit record that have no default
_RECORD_KEYS = ("model", "theta", "log_likelihood", "n_obs", "days", "window", "n_evals", "converged")


def _numbers(values, n: int) -> bool:
    """Whether a JSON value is a list of n numbers."""
    return isinstance(values, list) and len(values) == n and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    )


def log_likelihood(spec: ModelSpec, theta, sample: InterArrivalSample) -> float:
    """Pooled log-likelihood; ``-inf`` when ``theta`` is infeasible."""
    return _log_likelihood(spec, theta, sample)[0]


def _log_likelihood(spec: ModelSpec, theta, sample: InterArrivalSample):
    """The log-likelihood and the family parameters on the clamped spell
    starts; ``(-inf, None)`` when ``theta`` is infeasible."""
    if sample.empty:
        raise ParameterError("cannot evaluate the likelihood of an empty sample")
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        return -math.inf, None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        params, ok = spec.params_at(theta, sample.t_clamped)
        if not ok:
            return -math.inf, None
        total = float(np.sum(KERNELS[spec.family].logpdf(sample.x, *params)))
    return (total, params) if math.isfinite(total) else (-math.inf, None)


def log_likelihood_and_score(
    spec: ModelSpec, theta, sample: InterArrivalSample
) -> tuple[float, np.ndarray | None]:
    """Pooled log-likelihood and its gradient in ``theta``.

    One pass over the spells: the value is :func:`log_likelihood`'s, and
    the gradient chains the family log-density's derivatives in its
    parameters through :meth:`ModelSpec.params_at`'s map and each parameter
    function's coefficients.  Returns ``(-inf, None)`` when ``theta`` is
    infeasible.  For a GenF at ``p`` below ``GENGAM_P_EPS``, where the
    value is the generalized gamma's, the P entry is the one-sided
    derivative at ``p = 0``.
    """
    total, params = _log_likelihood(spec, theta, sample)
    if params is None:
        return total, None
    theta = np.asarray(theta, dtype=float)
    t = sample.t_clamped
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d_rate, d_shape, extras = KERNELS[spec.family].score(sample.x, sample.log_x, *params)
        grad = _coeff_scores(spec.rate_kind, theta[spec.rate_slice], t, d_rate)
        if spec.shape_kind is not None:
            grad += _coeff_scores(spec.shape_kind, theta[spec.shape_slice], t, d_shape)
    return total, np.array(grad + extras)


def _coeff_scores(kind: FuncKind, coeffs: np.ndarray, t: np.ndarray, g: np.ndarray) -> list[float]:
    """Sums of per-spell derivatives ``g`` in a function's value, chained to
    its coefficients: Const 1, Lin (1, t), Quadr (1, t, t^2), Expon (1, e, t e)."""
    if kind is FuncKind.CONST:
        return [float(np.sum(g))]
    if kind is FuncKind.LIN:
        return [float(np.sum(g)), float(g @ t)]
    gt = g * (t if kind is FuncKind.QUADR else np.exp(coeffs[1] + coeffs[2] * t))
    return [float(np.sum(g)), float(np.sum(gt)), float(gt @ t)]


def _const_level_coeffs(kind: FuncKind, level: float) -> list[float]:
    """Coefficients making the function approximately the constant ``level``."""
    if kind is FuncKind.CONST:
        return [level]
    if kind is FuncKind.LIN:
        return [level, 0.0]
    if kind is FuncKind.QUADR:
        return [level, 0.0, 0.0]
    return [_EXPON_SMALL_C, math.log(max(level, 1e-3)), 0.0]


def _shape_one_coeffs(kind: FuncKind) -> list[float]:
    """Coefficients pinning the shape function to (approximately) one."""
    if kind is FuncKind.EXPON:
        return [1.0, _SHAPE_ONE_EXPON_A1, 0.0]
    return _const_level_coeffs(kind, 1.0)


def default_start(spec: ModelSpec, sample: InterArrivalSample) -> np.ndarray:
    """Moment-based starting vector; for Exp.Const this is the exact MLE."""
    xbar = float(np.mean(sample.x))
    pooled_rate = 1.0 / xbar
    if spec.family is Family.EXP:
        theta = _const_level_coeffs(spec.rate_kind, pooled_rate)
    else:
        var = float(np.var(sample.x))
        alpha0 = xbar * xbar / var if var > 0 else 1.0
        alpha0 = min(max(alpha0, 0.05), 100.0)
        theta = _const_level_coeffs(spec.rate_kind, alpha0 * pooled_rate)
        theta += _const_level_coeffs(spec.shape_kind, alpha0)
        if spec.family in (Family.GENGAM, Family.GENF):
            theta.append(1.0 / math.sqrt(alpha0))
        if spec.family is Family.GENF:
            theta.append(0.0)
    lo, hi = spec.bounds()
    return np.clip(np.asarray(theta, dtype=float), lo, hi)


def _embed_func(kind_from: FuncKind, coeffs: np.ndarray, kind_to: FuncKind) -> list[float] | None:
    """Re-express a fitted simpler function inside a richer kind, if possible."""
    c = [float(v) for v in coeffs]
    if kind_from is kind_to:
        return c
    if kind_from is FuncKind.CONST:
        return _const_level_coeffs(kind_to, c[0])
    if kind_from is FuncKind.LIN and kind_to is FuncKind.QUADR:
        return [c[0], c[1], 0.0]
    return None


def warm_start_candidates(
    spec: ModelSpec,
    fitted: dict[str, FittedModel],
    t_ref: float,
) -> list[tuple[str, np.ndarray]]:
    """Starting vectors embedding already-fitted simpler models.

    Donors are models of the same family with an embeddable simpler rate or
    shape function, and the same-functions model of the next-simpler family
    lifted through the nesting maps (``t_ref`` anchors the gamma-shape to Q
    conversion, exact when the donor's shape is constant).
    """
    out: list[tuple[str, np.ndarray]] = []
    lo, hi = spec.bounds()

    def push(label: str, theta: list[float]) -> None:
        out.append((label, np.clip(np.asarray(theta, dtype=float), lo, hi)))

    for donor in fitted.values():
        d = donor.spec
        if donor.log_likelihood is None or not np.all(np.isfinite(donor.theta)):
            continue
        if d.family is spec.family:
            same_shape = d.shape_kind == spec.shape_kind
            same_rate = d.rate_kind == spec.rate_kind
            extras = [float(v) for v in donor.theta[d.rate_kind.n_coeffs + (d.shape_kind.n_coeffs if d.shape_kind else 0):]]
            if same_shape and not same_rate:
                rate = _embed_func(d.rate_kind, donor.theta[d.rate_slice], spec.rate_kind)
                if rate is not None:
                    shape = list(donor.theta[d.shape_slice]) if d.shape_kind else []
                    push(d.name, rate + [float(v) for v in shape] + extras)
            elif same_rate and not same_shape and spec.shape_kind is not None:
                shape = _embed_func(d.shape_kind, donor.theta[d.shape_slice], spec.shape_kind)
                if shape is not None:
                    push(d.name, list(donor.theta[d.rate_slice]) + shape + extras)
        elif d.rate_kind is spec.rate_kind:
            rate = [float(v) for v in donor.theta[d.rate_slice]]
            if d.family is Family.EXP and spec.family is Family.GAMMA:
                push(d.name, rate + _shape_one_coeffs(spec.shape_kind))
            elif (
                d.family is Family.GAMMA
                and spec.family is Family.GENGAM
                and d.shape_kind is spec.shape_kind
            ):
                params, ok = d.params_at(donor.theta, t_ref)
                if ok:  # params = (shape, rate)
                    push(
                        d.name,
                        [float(v) for v in donor.theta] + [1.0 / math.sqrt(params[0])],
                    )
            elif (
                d.family is Family.GENGAM
                and spec.family is Family.GENF
                and d.shape_kind is spec.shape_kind
            ):
                push(d.name, [float(v) for v in donor.theta] + [0.0])
    return out


def _minimize(spec: ModelSpec, sample: InterArrivalSample, theta0: np.ndarray, options: FitOptions):
    """One optimizer run from ``theta0``: (theta, -LL, converged, evals, Nelder-Mead runs).

    L-BFGS-B climbs the analytic score.  A run has converged when the
    projected score at its end, through L-BFGS-B's own inverse-Hessian
    model, promises less than ``options.f_tol`` more log-likelihood.  An
    unconverged run that still gained at least ``f_tol`` is continued by a
    fresh run from its end, up to ``_GRADIENT_RUNS`` runs.  Then a bounded
    Nelder-Mead simplex (``options.x_tol``, ``options.f_tol``) runs from
    that end, or from ``theta0`` where the likelihood is undefined, then
    one more L-BFGS-B run when ``options.polish`` is set, and the best
    point wins.  Every run stops after ``options.max_evals`` evaluations.
    """
    lo, hi = spec.bounds()

    def value_and_grad(theta):
        value, grad = log_likelihood_and_score(spec, theta, sample)
        if grad is None or not np.all(np.isfinite(grad)):
            return _BIG, np.zeros_like(theta)
        return -value, -grad

    def gradient_run(start):
        f, g = value_and_grad(start)
        evals = 1
        if f >= _BIG:
            return start, f, False, evals
        # scale each coordinate by the score's own curvature along it, so
        # that the first step is a diagonal Newton step instead of a unit
        # step along the score
        size = np.maximum(np.abs(start), 1.0)
        curv = np.empty_like(start)
        for k in range(start.size):
            h = 1e-6 * size[k] * (1.0 if start[k] + 1e-6 * size[k] <= hi[k] else -1.0)
            moved = start.copy()
            moved[k] += h
            curv[k] = abs((value_and_grad(moved)[1][k] - g[k]) / h)
        evals += start.size
        scale = 1.0 / np.sqrt(np.maximum.reduce([curv, np.abs(g) / size, 1e-12 / size ** 2]))
        base = [start, f, g]  # the current iterate
        last = [start, f, g]  # the latest feasible evaluation

        def scaled(y):
            theta = y * scale
            f, g = value_and_grad(theta)
            if f < _BIG:
                last[:] = theta, f, g
                return f, g * scale
            # past the feasible region the objective rises by the decrease
            # the current iterate's score predicts, so the line search
            # backtracks by a bounded factor instead of collapsing its step
            theta_b, f_b, g_b = base
            return f_b + abs(float(g_b @ (theta - theta_b))), np.zeros_like(y)

        def new_iterate(_):
            base[:] = last

        res = optimize.minimize(
            scaled,
            start / scale,
            jac=True,
            method="L-BFGS-B",
            bounds=optimize.Bounds(lo / scale, hi / scale),
            callback=new_iterate,
            options={"maxfun": options.max_evals, "maxiter": options.max_evals,
                     "ftol": 0.0, "gtol": 1e-8},
        )
        x = np.clip(res.x * scale, lo, hi)
        f, g = value_and_grad(x)
        evals += int(res.nfev) + 1
        if f >= _BIG:
            return x, f, False, evals
        pg = np.where(((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0)), 0.0, g) * scale
        gain = 0.5 * float(pg @ res.hess_inv.matvec(pg))
        return x, f, gain <= options.f_tol, evals

    x, f, ok, evals = gradient_run(theta0)
    for _ in range(_GRADIENT_RUNS - 1):
        if ok or f >= _BIG:
            break
        x_new, f_new, ok_new, more = gradient_run(x)
        evals += more
        gained = f - f_new
        if gained >= 0:
            x, f, ok = x_new, f_new, ok_new
        if not ok and gained < options.f_tol:
            break
    if ok:
        return x, f, True, evals, 0
    logger.info("%s: L-BFGS-B stopped at -LL %.12g, unconverged; Nelder-Mead fallback", spec.name, f)

    def objective(theta):
        value = log_likelihood(spec, theta, sample)
        return -value if math.isfinite(value) else _BIG

    res = optimize.minimize(
        objective,
        x,
        method="Nelder-Mead",
        bounds=optimize.Bounds(lo, hi),
        options={
            "maxfev": options.max_evals,
            "fatol": options.f_tol,
            "xatol": options.x_tol,
            "adaptive": len(theta0) > 3,
        },
    )
    evals += int(res.nfev)
    best = (x, f, False) if f <= float(res.fun) else (res.x, float(res.fun), bool(res.success))
    if options.polish and best[1] < _BIG:
        x, f, ok, more = gradient_run(best[0])
        evals += more
        if f <= best[1]:
            best = (x, f, ok or best[2])
    return *best, evals, 1


def fit(
    spec: ModelSpec,
    sample: InterArrivalSample,
    options: FitOptions = FitOptions(),
    starts: list[tuple[str, np.ndarray]] | None = None,
) -> FittedModel:
    """Maximize the log-likelihood of ``spec`` over its box bounds.

    ``starts`` holds ``(label, theta)`` candidates, best-ranked first (see
    :func:`fit_cascade`); ``None`` means the moment default alone.  The
    best-ranked start always runs and labels the record's ``start_source``.
    When the rate or shape function is Expon, or that start is the moment
    default, up to ``options.restarts`` more run: the next-ranked distinct
    candidates where the likelihood is defined, then fixed perturbations of
    the best start, each moved halfway back toward it until the likelihood
    is defined.  Other models run from their donor start alone, since more
    starts did not improve those optima (see the module docstring).  Each
    start runs :func:`_minimize` and the best local optimum wins;
    ``nm_fallbacks`` counts the starts that needed Nelder-Mead.  A model
    that never converged is still returned, flagged, with the best vector.
    """
    if sample.n < options.min_obs_per_param * spec.n_params:
        raise InsufficientDataError(
            f"{spec.name}: {sample.n} observations for {spec.n_params} parameters "
            f"(need >= {options.min_obs_per_param} per parameter)"
        )
    lo, hi = spec.bounds()
    start_source, theta0 = starts[0] if starts else ("default", default_start(spec, sample))
    theta0 = np.clip(np.asarray(theta0, dtype=float), lo, hi)
    expon = FuncKind.EXPON in (spec.rate_kind, spec.shape_kind)
    n_starts = 1 + (options.restarts if expon or start_source == "default" else 0)
    runs = [theta0]
    for _, theta in (starts or [])[1:]:
        theta = np.clip(np.asarray(theta, dtype=float), lo, hi)
        if len(runs) < n_starts and not any(np.array_equal(theta, run) for run in runs):
            if math.isfinite(log_likelihood(spec, theta, sample)):
                runs.append(theta)
    rng = np.random.default_rng(_JITTER_SEED)
    scale = np.maximum(np.abs(theta0), 1.0)
    theta0_feasible = len(runs) < n_starts and math.isfinite(log_likelihood(spec, theta0, sample))
    while len(runs) < n_starts:
        jitter = np.clip(theta0 + _JITTER_SCALE * scale * rng.standard_normal(len(theta0)), lo, hi)
        # a gradient run needs a feasible start: move an infeasible jitter
        # back toward theta0 until the likelihood is defined
        while theta0_feasible and not math.isfinite(log_likelihood(spec, jitter, sample)):
            jitter = 0.5 * (jitter + theta0)
        runs.append(jitter)

    results = [_minimize(spec, sample, start, options) for start in runs]
    best, converged = None, False
    for x, f, success, _, _ in results:
        if best is None or f < best[1]:
            best, converged = (x, f), success
        elif success and math.isclose(f, best[1], rel_tol=1e-9, abs_tol=1e-9):
            converged = True
    theta_hat = np.asarray(best[0], dtype=float)
    return FittedModel(
        spec=spec,
        theta=theta_hat,
        log_likelihood=log_likelihood(spec, theta_hat, sample),
        n_obs=sample.n,
        days=sample.days,
        window=(sample.window_start, sample.window_end),
        n_evals=sum(r[3] for r in results),
        converged=converged,
        start_source=start_source,
        nm_fallbacks=sum(r[4] for r in results),
    )


def cascade_sort(specs: list[ModelSpec]) -> list[ModelSpec]:
    """Order specs so every potential warm-start donor precedes its user."""
    families, kinds = list(Family), list(FuncKind)
    return sorted(
        specs,
        key=lambda s: (
            families.index(s.family),
            s.rate_kind.complexity,
            kinds.index(s.rate_kind),
            s.shape_kind.complexity if s.shape_kind else 0,
            kinds.index(s.shape_kind) if s.shape_kind else 0,
        ),
    )


def fit_cascade(
    specs: list[ModelSpec],
    sample: InterArrivalSample,
    options: FitOptions = FitOptions(),
    preloaded: dict[str, FittedModel] | None = None,
) -> dict[str, FittedModel]:
    """Fit a set of models, warm-starting each from its fitted ancestors.

    Candidate starts (donor embeddings plus the moment default) are ranked
    by their likelihood and :func:`fit` takes them in that order.  Entries
    in ``preloaded`` are taken as-is (they still act as donors).  Models
    with too few observations are skipped; if an optimizer run fails
    outright, the best candidate start is returned as a flagged fallback so
    model comparisons stay balanced.
    """
    t_ref = 0.5 * (sample.window_start + sample.window_end)
    fitted: dict[str, FittedModel] = {}
    preloaded = preloaded or {}
    for spec in cascade_sort(specs):
        if spec.name in preloaded:
            fitted[spec.name] = preloaded[spec.name]
            continue
        candidates = warm_start_candidates(spec, fitted, t_ref)
        candidates.append(("default", default_start(spec, sample)))
        scored = sorted(
            ((log_likelihood(spec, theta, sample), label, theta) for label, theta in candidates),
            key=lambda item: item[0], reverse=True,
        )
        ll0, label0, theta0 = scored[0]
        try:
            result = fit(spec, sample, options, [(label, theta) for _, label, theta in scored])
        except InsufficientDataError as exc:
            logger.warning("skipping %s", exc)
            continue
        except Exception:  # optimizer blow-up: fall back to the donor start
            logger.warning(
                "%s: fit failed; keeping its %s start as a fallback", spec.name, label0,
                exc_info=True,
            )
            result = FittedModel(
                spec=spec,
                theta=theta0,
                log_likelihood=ll0 if math.isfinite(ll0) else None,
                n_obs=sample.n,
                days=sample.days,
                window=(sample.window_start, sample.window_end),
                n_evals=0,
                converged=False,
                start_source=label0,
                fallback=True,
            )
        fitted[spec.name] = result
    return fitted
