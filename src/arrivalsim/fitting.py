"""Maximum-likelihood estimation of time-varying inter-arrival models.

The log-likelihood of a model on a pooled multi-day sample is the sum of
the family log-density at each inter-arrival, with the parameter functions
evaluated at the spell start (the previous arrival time), clamped into the
modeling window.  Infeasible parameter vectors (non-positive rate or shape
anywhere they are evaluated) score ``-inf`` so the optimizer retreats
instead of crashing.

Optimization is a bounded Nelder-Mead simplex followed by an L-BFGS-B
polish; the likelihood surfaces are low dimensional (at most 8 parameters)
but can be multimodal, so richer models are warm-started from simpler ones
(see :func:`fit_cascade`).  Jittered restarts run for the 16 models with
an Expon rate or shape function and for any start from the moment default.
On synthetic cells, skipping them lost up to 2.8 LL units on Expon models
and up to 3.0 on GenF models started from the default, while every other
model started from a fitted donor reached its restart optimum to within
3e-6 LL from that start alone.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import optimize

from .distributions import exp_logpdf, gamma_logpdf, gengam_logpdf, genf_logpdf
from .errors import InsufficientDataError, ParameterError
from .ingest import InterArrivalSample
from .models import Family, FuncKind, ModelSpec, model_from_name

__all__ = [
    "FitOptions",
    "FittedModel",
    "log_likelihood",
    "fit",
    "default_start",
    "warm_start_candidates",
    "fit_cascade",
    "cascade_sort",
]

logger = logging.getLogger(__name__)

_BIG = 1e300  # finite stand-in for +inf so line searches stay well-defined
_EXPON_SMALL_C = 1e-3
_SHAPE_ONE_EXPON_A1 = math.log(1e-8)


@dataclass(frozen=True)
class FitOptions:
    max_evals: int = 20_000
    f_tol: float = 1e-8
    x_tol: float = 1e-8
    restarts: int = 3
    jitter_scale: float = 0.1
    polish: bool = True
    seed: int = 0
    min_obs_per_param: int = 10

    def __post_init__(self):
        for name, ok, rule in (
            ("max_evals", self.max_evals >= 1, ">= 1"),
            ("f_tol", self.f_tol > 0, "> 0"),
            ("x_tol", self.x_tol > 0, "> 0"),
            ("restarts", self.restarts >= 0, ">= 0"),
            ("jitter_scale", self.jitter_scale >= 0, ">= 0"),
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
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FittedModel":
        data = json.loads(text)
        if data.get("version") != 1:
            raise ParameterError(f"unsupported fit record version {data.get('version')!r}")
        return cls(
            spec=model_from_name(data["model"]),
            theta=np.asarray(data["theta"], dtype=float),
            log_likelihood=data["log_likelihood"],
            n_obs=data["n_obs"],
            days=data["days"],
            window=(data["window"][0], data["window"][1]),
            n_evals=data["n_evals"],
            converged=data["converged"],
            start_source=data.get("start_source", ""),
            fallback=data.get("fallback", False),
        )

    def save(self, path: str | Path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "FittedModel":
        return cls.from_json(Path(path).read_text())


_LOGPDF = {
    Family.EXP: exp_logpdf,
    Family.GAMMA: gamma_logpdf,
    Family.GENGAM: gengam_logpdf,
    Family.GENF: genf_logpdf,
}


def log_likelihood(spec: ModelSpec, theta, sample: InterArrivalSample) -> float:
    """Pooled log-likelihood; ``-inf`` when ``theta`` is infeasible."""
    if sample.empty:
        raise ParameterError("cannot evaluate the likelihood of an empty sample")
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        return -math.inf
    t = np.clip(sample.t, sample.window_start, sample.window_end)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        params, ok = spec.params_at(theta, t)
        if not ok:
            return -math.inf
        terms = _LOGPDF[spec.family](sample.x, *params)
    total = float(np.sum(terms))
    return total if math.isfinite(total) else -math.inf


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
        if kind_to is FuncKind.LIN:
            return [c[0], 0.0]
        if kind_to is FuncKind.QUADR:
            return [c[0], 0.0, 0.0]
        if kind_to is FuncKind.EXPON:
            return [_EXPON_SMALL_C, math.log(max(c[0], 1e-3)), 0.0]
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


def _minimize(objective, theta0, bounds, options: FitOptions):
    res = optimize.minimize(
        objective,
        theta0,
        method="Nelder-Mead",
        bounds=bounds,
        options={
            "maxfev": options.max_evals,
            "fatol": options.f_tol,
            "xatol": options.x_tol,
            "adaptive": len(theta0) > 3,
        },
    )
    evals = int(res.nfev)
    best_x, best_f, success = res.x, float(res.fun), bool(res.success)
    if options.polish and best_f < _BIG:
        polish = optimize.minimize(
            objective,
            best_x,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-10},
        )
        evals += int(polish.nfev)
        if float(polish.fun) <= best_f:
            best_x, best_f = polish.x, float(polish.fun)
            success = success or bool(polish.success)
    return best_x, best_f, success, evals


def fit(
    spec: ModelSpec,
    sample: InterArrivalSample,
    options: FitOptions = FitOptions(),
    theta0: np.ndarray | None = None,
    start_source: str = "default",
) -> FittedModel:
    """Maximize the log-likelihood of ``spec`` over its box bounds.

    The optimizer runs from ``theta0`` (or a moment-based default).  When
    the rate or shape function is Expon, or ``start_source`` is
    ``"default"``, it also runs from ``options.restarts`` jittered copies of
    it and the best local optimum wins; a non-Expon model started from a
    donor runs from ``theta0`` alone, since restarts did not improve those
    optima (see the module docstring).  A model that never converged is
    still returned, flagged, with the best vector found.
    """
    if sample.n < options.min_obs_per_param * spec.n_params:
        raise InsufficientDataError(
            f"{spec.name}: {sample.n} observations for {spec.n_params} parameters "
            f"(need >= {options.min_obs_per_param} per parameter)"
        )
    lo, hi = spec.bounds()
    bounds = optimize.Bounds(lo, hi)
    if theta0 is None:
        theta0 = default_start(spec, sample)
        start_source = "default"
    theta0 = np.clip(np.asarray(theta0, dtype=float), lo, hi)

    def objective(theta):
        value = log_likelihood(spec, theta, sample)
        return -value if math.isfinite(value) else _BIG

    rng = np.random.default_rng(options.seed)
    starts = [theta0]
    scale = np.maximum(np.abs(theta0), 1.0)
    expon = FuncKind.EXPON in (spec.rate_kind, spec.shape_kind)
    restarts = options.restarts if expon or start_source == "default" else 0
    for _ in range(restarts):
        jitter = theta0 + options.jitter_scale * scale * rng.standard_normal(len(theta0))
        starts.append(np.clip(jitter, lo, hi))

    best = None
    total_evals = 0
    converged = False
    for start in starts:
        x, f, success, evals = _minimize(objective, start, bounds, options)
        total_evals += evals
        if best is None or f < best[1]:
            best = (x, f)
            converged = success
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
        n_evals=total_evals,
        converged=converged,
        start_source=start_source,
    )


def cascade_sort(specs: list[ModelSpec]) -> list[ModelSpec]:
    """Order specs so every potential warm-start donor precedes its user."""
    family_rank = {Family.EXP: 0, Family.GAMMA: 1, Family.GENGAM: 2, Family.GENF: 3}
    kind_rank = {FuncKind.CONST: 0, FuncKind.LIN: 1, FuncKind.QUADR: 2, FuncKind.EXPON: 3}
    return sorted(
        specs,
        key=lambda s: (
            family_rank[s.family],
            s.rate_kind.complexity,
            kind_rank[s.rate_kind],
            s.shape_kind.complexity if s.shape_kind else 0,
            kind_rank[s.shape_kind] if s.shape_kind else 0,
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
    by their likelihood and the best one seeds the optimizer.  Entries in
    ``preloaded`` are taken as-is (they still act as donors).  Models with
    too few observations are skipped; if an optimizer run fails outright,
    the best candidate start is returned as a flagged fallback so model
    comparisons stay balanced.
    """
    t_ref = 0.5 * (sample.window_start + sample.window_end)
    fitted: dict[str, FittedModel] = {}
    preloaded = preloaded or {}
    for spec in cascade_sort(specs):
        if spec.name in preloaded:
            fitted[spec.name] = preloaded[spec.name]
            continue
        if sample.n < options.min_obs_per_param * spec.n_params:
            logger.warning(
                "skipping %s: %d observations for %d parameters",
                spec.name,
                sample.n,
                spec.n_params,
            )
            continue
        candidates = warm_start_candidates(spec, fitted, t_ref)
        candidates.append(("default", default_start(spec, sample)))
        scored = [
            (log_likelihood(spec, theta, sample), label, theta)
            for label, theta in candidates
        ]
        scored.sort(key=lambda item: item[0], reverse=True)
        ll0, label0, theta0 = scored[0]
        try:
            result = fit(spec, sample, options, theta0=theta0, start_source=label0)
        except Exception:  # optimizer blow-up: fall back to the donor start
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
