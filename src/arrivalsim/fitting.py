"""Maximum-likelihood estimation of time-varying inter-arrival models.

The log-likelihood of a model on a pooled multi-day sample is the sum of
the family log-density at each inter-arrival, with the parameter functions
evaluated at the spell start (the previous arrival time), clamped into the
modeling window.  Infeasible parameter vectors (non-positive rate or shape
anywhere they are evaluated) score ``-inf`` so the optimizer retreats
instead of crashing.

Optimization follows the analytic score: :func:`log_likelihood_and_score`
returns the likelihood and its gradient in one vectorized pass, and a
projected quasi-Newton run climbs it inside the box bounds.  Its model
Hessian starts as forward differences of the score, one evaluation per
parameter, and BFGS updates it after each step.  A start whose runs stop
short of convergence keeps their end point, flagged unconverged on the fit
record.  The likelihood surfaces are low dimensional (at most 8
parameters) but can be multimodal, so richer models are
warm-started from simpler ones (see :func:`fit_cascade`).  The 16 models
with an Expon rate or shape function, and any Gamma, GenGam or GenF fit
from the moment default, also run from the next-ranked candidate starts.
On synthetic cells, skipping those starts lost up to 2.8 LL units on Expon
models and up to 3.0 on GenF models started from the default, while every
other model started from a fitted donor reached its multi-start optimum to
within 3e-6 LL.  An Exp model with a Const, Lin or Quadr rate needs no
further start from anywhere: its rate is linear in θ, so its
log-likelihood, the sum of ``log λ(t_i) - λ(t_i) x_i``, is concave in θ
on a convex feasible set (the box, cut by ``λ > 0`` at every spell start),
and every local optimum is the global one.  For Exp.Const the moment
default is the maximum itself.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distributions import KERNELS
from .errors import InsufficientDataError, ParameterError, is_int, is_real
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

_GRADIENT_RUNS = 4  # quasi-Newton runs per start, each from the end of the last
_HALVINGS = 40  # step halvings before a quasi-Newton run gives up
_EIG_FLOOR = 1e-10  # smallest model-Hessian eigenvalue, relative to the largest
# a run steps on until its step promises this fraction of f_tol; stopping
# at f_tol itself left some Expon models on lower optima along flat valleys
_STOP = 1e-3
_EXPON_SMALL_C = 1e-3
_SHAPE_ONE_EXPON_A1 = math.log(1e-8)
# fixed perturbations of the best start fill the starts candidates leave empty
_JITTER_SEED = 0
_JITTER_SCALE = 0.1


@dataclass(frozen=True)
class FitOptions:
    max_evals: int = 20_000
    f_tol: float = 1e-8
    restarts: int = 3
    min_obs_per_param: int = 10

    def __post_init__(self):
        for name, low in (("max_evals", 1), ("restarts", 0), ("min_obs_per_param", 1)):
            value = getattr(self, name)
            if not is_int(value) or value < low:
                raise ParameterError(f"fit.{name} must be an integer >= {low}, got {value!r}")
        if not (is_real(self.f_tol) and 0 < self.f_tol < math.inf):
            raise ParameterError(f"fit.f_tol must be a finite number > 0, got {self.f_tol!r}")


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
        """The record of :meth:`to_json` text.  Raises :class:`ParameterError`
        for text that is not JSON, a record that is not an object or lacks a
        key, a ``theta`` that is not ``spec.n_params`` numbers, and a value
        that its check in ``_RECORD_TYPES`` refuses."""
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
        if not _numbers(theta, spec.n_params):
            raise ParameterError(
                f"{spec.name} fit record needs {spec.n_params} theta numbers, got {theta!r}"
            )
        data.setdefault("fallback", False)
        for key, holds, meaning in _RECORD_TYPES:
            if not holds(data[key]):
                raise ParameterError(f"fit record {key} must be {meaning}, got {data[key]!r}")
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
            fallback=data["fallback"],
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


# what :meth:`FittedModel.from_json` checks of each key but model and theta
_RECORD_TYPES = (
    ("window", lambda v: _numbers(v, 2), "two numbers"),
    *((key, lambda v: is_int(v) and v >= 0, "a non-negative integer")
      for key in ("n_obs", "days", "n_evals")),
    *((key, lambda v: isinstance(v, bool), "true or false") for key in ("converged", "fallback")),
    ("log_likelihood", lambda v: v is None or is_real(v), "a number or null"),
)


def _numbers(values, n: int) -> bool:
    """Whether a JSON value is a list of n numbers."""
    return isinstance(values, list) and len(values) == n and all(map(is_real, values))


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
    """One optimizer run from ``theta0``: (theta, -LL, converged, evals).

    The -LL is the negated value of :func:`log_likelihood` at that theta,
    bitwise, or ``inf`` where the likelihood is undefined.

    A projected quasi-Newton run climbs the analytic score inside the box
    (:func:`_quasi_newton`).  An unconverged run that still gained at
    least ``options.f_tol`` is continued by a fresh run from its end, up
    to ``_GRADIENT_RUNS`` runs; if the last one stops short of
    convergence, its best point is returned unconverged.  Every run stops
    after ``options.max_evals`` evaluations.
    """
    x, f, ok, evals = _quasi_newton(spec, sample, theta0, options)
    for _ in range(_GRADIENT_RUNS - 1):
        if ok or f == math.inf:
            break
        x_new, f_new, ok_new, more = _quasi_newton(spec, sample, x, options)
        evals += more
        gained = f - f_new
        if gained >= 0:
            x, f, ok = x_new, f_new, ok_new
        if not ok and gained < options.f_tol:
            break
    return x, f, ok, evals


def _quasi_newton(spec: ModelSpec, sample: InterArrivalSample, x: np.ndarray, options: FitOptions):
    """One projected quasi-Newton run on -LL from ``x``: (theta, -LL, converged, evals).

    The model Hessian H starts as forward differences of the score, one
    evaluation per coordinate k at a step of ``1e-6 max(|x_k|, 1)`` (down
    where up would leave the box), symmetrized, with its eigenvalues taken
    in absolute value and floored at ``_EIG_FLOOR`` of the largest; BFGS
    updates it after each step with ``s'y > 0``.  A coordinate whose own
    Newton step ``|g_k| / H_kk`` reaches a bound that the score pushes it
    to is pinned there, and the others take the Newton step given that
    move, except those at a bound that it would cross.  The step is
    projected into the box and halved until the likelihood is defined and
    higher.  The run steps on until its Newton step promises a gain of at
    most ``_STOP * options.f_tol`` (``g' H^-1 g / 2`` when nothing is
    pinned), until ``_HALVINGS`` halvings gain nothing or until
    ``options.max_evals`` evaluations of value and score, the probe's
    included; it has converged if that last promise is at most
    ``options.f_tol``.  A probe outside the feasible region ends the run
    unconverged.
    """
    lo, hi = spec.bounds()

    def evaluate(theta):
        value, score = log_likelihood_and_score(spec, theta, sample)
        if score is None or not np.all(np.isfinite(score)):
            return math.inf, None
        return -value, -score

    f, g = evaluate(x)
    evals = 1
    if g is None or evals + x.size > options.max_evals:
        return x, f, False, evals
    size = np.maximum(np.abs(x), 1.0)
    h = 1e-6 * size * np.where(x + 1e-6 * size <= hi, 1.0, -1.0)
    probes = [evaluate(x + moved)[1] for moved in np.diag(h)]
    evals += x.size
    if any(g_k is None for g_k in probes):  # no curvature model on the edge of feasibility
        return x, f, False, evals
    hess = (np.array(probes) - g) / h[:, None]
    # the symmetric part, its eigenvalues in absolute value and floored
    w, v = np.linalg.eigh(0.5 * (hess + hess.T))
    w = np.abs(w)
    hess = (v * np.maximum(w, _EIG_FLOOR * w.max())) @ v.T
    while True:
        reach = np.abs(g) / np.diag(hess)
        pinned = ((g > 0) & (x - lo <= reach)) | ((g < 0) & (hi - x <= reach))
        step = _newton_step(hess, g, ~pinned, np.where(pinned, np.where(g > 0, lo, hi) - x, 0.0))
        gain = -float(g @ step + 0.5 * step @ hess @ step)
        if gain <= _STOP * options.f_tol:
            break
        free = ~pinned  # less the coordinates at a bound that the step would cross
        blocked = free & (((x <= lo) & (step < 0)) | ((x >= hi) & (step > 0)))
        while blocked.any():
            free &= ~blocked
            step[blocked] = 0.0
            step = _newton_step(hess, g, free, step)
            blocked = free & (((x <= lo) & (step < 0)) | ((x >= hi) & (step > 0)))
        f_t = math.inf
        for halving in range(_HALVINGS):
            if evals >= options.max_evals:
                break
            trial = np.clip(x + 0.5 ** halving * step, lo, hi)
            f_t, g_t = evaluate(trial)
            evals += 1
            if f_t < f:
                break
        if not f_t < f:
            break
        s, y = trial - x, g_t - g
        sy = float(s @ y)
        if sy > 0:
            hs = hess @ s
            hess += np.outer(y, y) / sy - np.outer(hs, hs) / float(s @ hs)
        x, f, g = trial, f_t, g_t
    return x, f, gain <= options.f_tol, evals


def _newton_step(hess: np.ndarray, g: np.ndarray, free: np.ndarray, step: np.ndarray) -> np.ndarray:
    """``step`` with its ``free`` coordinates replaced by the Newton step of
    gradient ``g`` given the moves of the others."""
    if free.all():
        return -np.linalg.solve(hess, g)
    step = step.copy()
    if free.any():
        r = g[free] + hess[np.ix_(free, ~free)] @ step[~free]
        step[free] = -np.linalg.solve(hess[np.ix_(free, free)], r)
    return step


def fit(
    spec: ModelSpec,
    sample: InterArrivalSample,
    options: FitOptions = FitOptions(),
    starts: list[tuple] | None = None,
) -> FittedModel:
    """Maximize the log-likelihood of ``spec`` over its box bounds.

    ``starts`` holds ``(label, theta)`` candidates, best-ranked first (see
    :func:`fit_cascade`); ``None`` means the moment default alone.  A
    candidate inside the box may carry its log-likelihood as a third entry,
    ``(label, theta, ll)``, which is then not evaluated again.  The
    best-ranked start always runs and labels the record's
    ``start_source``.  When the rate or shape function is Expon, or that
    start is the moment default of a Gamma, GenGam or GenF model, up to
    ``options.restarts`` more run: the next-ranked distinct candidates
    where the likelihood is defined, then fixed perturbations of the best
    start, each moved halfway back toward it until the likelihood is
    defined.  Other models run from their best start alone: more starts
    did not improve the optima of models started from a donor, and an Exp
    model with a Const, Lin or Quadr rate has a concave log-likelihood,
    whose one local optimum any start reaches (see the module docstring).
    Each start runs :func:`_minimize` and the best local optimum wins; its
    value is the record's log-likelihood.  A model that never converged is
    still returned, flagged, with the best vector.
    """
    if sample.n < options.min_obs_per_param * spec.n_params:
        raise InsufficientDataError(
            f"{spec.name}: {sample.n} observations for {spec.n_params} parameters "
            f"(need >= {options.min_obs_per_param} per parameter)"
        )
    lo, hi = spec.bounds()
    ranked = starts or [("default", default_start(spec, sample))]
    start_source, theta0, *known0 = ranked[0]
    theta0 = np.clip(np.asarray(theta0, dtype=float), lo, hi)
    restart = FuncKind.EXPON in (spec.rate_kind, spec.shape_kind) or (
        start_source == "default" and spec.family is not Family.EXP
    )
    n_starts = 1 + (options.restarts if restart else 0)

    def defined(theta, known) -> bool:
        return math.isfinite(known[0] if known else log_likelihood(spec, theta, sample))

    runs = [theta0]
    for _, theta, *known in ranked[1:]:
        if len(runs) == n_starts:
            break
        theta = np.clip(np.asarray(theta, dtype=float), lo, hi)
        if not any(np.array_equal(theta, run) for run in runs) and defined(theta, known):
            runs.append(theta)
    if len(runs) < n_starts:
        rng = np.random.default_rng(_JITTER_SEED)
        scale = np.maximum(np.abs(theta0), 1.0)
        theta0_feasible = defined(theta0, known0)
        while len(runs) < n_starts:
            jitter = np.clip(theta0 + _JITTER_SCALE * scale * rng.standard_normal(len(theta0)), lo, hi)
            # a gradient run needs a feasible start: move an infeasible jitter
            # back toward theta0 until the likelihood is defined
            while theta0_feasible and not math.isfinite(log_likelihood(spec, jitter, sample)):
                jitter = 0.5 * (jitter + theta0)
            runs.append(jitter)

    results = [_minimize(spec, sample, start, options) for start in runs]
    best, converged = None, False
    for x, f, success, _ in results:
        if best is None or f < best[1]:
            best, converged = (x, f), success
        elif success and math.isclose(f, best[1], rel_tol=1e-9, abs_tol=1e-9):
            converged = True
    return FittedModel(
        spec=spec,
        theta=np.asarray(best[0], dtype=float),
        log_likelihood=-best[1],  # -inf where no start had a defined likelihood
        n_obs=sample.n,
        days=sample.days,
        window=(sample.window_start, sample.window_end),
        n_evals=sum(r[3] for r in results),
        converged=converged,
        start_source=start_source,
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

    The distinct candidate starts (donor embeddings plus the moment
    default) are ranked by their likelihood, evaluated once each, and
    :func:`fit` takes them in that order with those values.  Entries
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
        distinct: list[tuple[str, np.ndarray]] = []
        for label, theta in warm_start_candidates(spec, fitted, t_ref) + [
            ("default", default_start(spec, sample))
        ]:
            if not any(np.array_equal(theta, kept) for _, kept in distinct):
                distinct.append((label, theta))
        ranked = sorted(
            ((label, theta, log_likelihood(spec, theta, sample)) for label, theta in distinct),
            key=lambda start: start[2], reverse=True,
        )
        label0, theta0, ll0 = ranked[0]
        try:
            result = fit(spec, sample, options, ranked)
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
