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
parameter, and BFGS updates it after each step.  Each start runs once: a
run that stops short of convergence keeps its end point, flagged
unconverged on the fit record.  The likelihood surfaces are low
dimensional (at most 8 parameters) but can be multimodal, so richer models
are warm-started from simpler ones (see :func:`fit_cascade`).  The 16
models with an Expon rate or shape function, and any Gamma, GenGam or GenF
fit from the moment default, also run from the next-ranked candidate
starts.  On twelve synthetic 37-model cells, those starts raised 17 of the
444 fits above the run from their best-ranked start, by up to 11.26 LL
units, while on each of the 250 fits that take no further start, single
runs from up to four of its best-ranked candidates reached at most 1e-8
LL higher.  A model's candidates come from its donors, so a model asked for
alone is fitted after them.  An Exp model with a Const, Lin or Quadr
rate needs no further start from anywhere: its rate is linear in θ, so
its log-likelihood, the sum of ``log λ(t_i) - λ(t_i) x_i``, is concave
in θ on a convex feasible set (the box, cut by ``λ > 0`` at every spell
start), and every local optimum is the global one.  For Exp.Const the
moment default is the maximum itself.
"""

from __future__ import annotations

import functools
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
from .models import Family, FuncKind, ModelSpec, enumerate_models, model_from_name

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

_HALVINGS = 40  # step halvings before a quasi-Newton run gives up
_EIG_FLOOR = 1e-10  # smallest model-Hessian eigenvalue, relative to the largest
# a run steps on until its step promises this fraction of f_tol; stopping
# at f_tol itself left some Expon models on lower optima along flat valleys
_STOP = 1e-3
_EXPON_SMALL_C = 1e-3
_SHAPE_ONE_EXPON_A1 = math.log(1e-8)
_CATALOGUE = enumerate_models()


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
        data = {"fallback": False, "start_source": "", **data}
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
            start_source=data["start_source"],
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
    ("start_source", lambda v: isinstance(v, str), "a string"),
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


def _embed_func(kind_from: FuncKind, coeffs: list[float], kind_to: FuncKind) -> list[float]:
    """Re-express a fitted Const function, or a Lin one in Quadr, as ``kind_to``."""
    if kind_from is FuncKind.CONST:
        return _const_level_coeffs(kind_to, coeffs[0])
    return [coeffs[0], coeffs[1], 0.0]


def _is_donor(d: ModelSpec, spec: ModelSpec) -> bool:
    """Whether a fit of ``d`` embeds in ``spec``: the same family with one
    function simpler (Const in any kind, Lin in Quadr), or the next-simpler
    family with the same functions (any shape from Exp)."""
    if d.family is spec.family:
        if d.shape_kind is spec.shape_kind:
            kinds = (d.rate_kind, spec.rate_kind)
        elif d.rate_kind is spec.rate_kind:
            kinds = (d.shape_kind, spec.shape_kind)
        else:
            return False
        return kinds[0] is not kinds[1] and (
            kinds[0] is FuncKind.CONST or kinds == (FuncKind.LIN, FuncKind.QUADR)
        )
    families = list(Family)
    return (
        d.rate_kind is spec.rate_kind
        and families.index(d.family) + 1 == families.index(spec.family)
        and (d.family is Family.EXP or d.shape_kind is spec.shape_kind)
    )


@functools.cache
def _donors(name: str) -> tuple[ModelSpec, ...]:
    """The catalogue's models whose fits embed in model ``name``."""
    spec = model_from_name(name)
    return tuple(d for d in _CATALOGUE if _is_donor(d, spec))


def warm_start_candidates(
    spec: ModelSpec,
    fitted: dict[str, FittedModel],
    t_ref: float,
) -> list[tuple[str, np.ndarray]]:
    """Starting vectors embedding the already-fitted donors of ``spec``
    (see :func:`_is_donor`), lifted through the nesting maps (``t_ref``
    anchors the gamma-shape to Q conversion, exact when the donor's shape
    is constant).
    """
    out: list[tuple[str, np.ndarray]] = []
    lo, hi = spec.bounds()

    def push(label: str, theta: list[float]) -> None:
        out.append((label, np.clip(np.asarray(theta, dtype=float), lo, hi)))

    for donor in fitted.values():
        d = donor.spec
        if donor.log_likelihood is None or not np.all(np.isfinite(donor.theta)):
            continue
        if not _is_donor(d, spec):
            continue
        theta = [float(v) for v in donor.theta]
        if d.family is spec.family:
            n_rate = d.rate_kind.n_coeffs
            n_coeffs = n_rate + (d.shape_kind.n_coeffs if d.shape_kind else 0)
            rate, shape, extras = theta[:n_rate], theta[n_rate:n_coeffs], theta[n_coeffs:]
            if d.rate_kind is spec.rate_kind:
                push(d.name, rate + _embed_func(d.shape_kind, shape, spec.shape_kind) + extras)
            else:
                push(d.name, _embed_func(d.rate_kind, rate, spec.rate_kind) + shape + extras)
        elif d.family is Family.EXP:
            push(d.name, theta + _shape_one_coeffs(spec.shape_kind))
        elif d.family is Family.GENGAM:
            push(d.name, theta + [0.0])
        else:  # Gamma in GenGam
            params, ok = d.params_at(donor.theta, t_ref)
            if ok:  # params = (shape, rate)
                push(d.name, theta + [1.0 / math.sqrt(params[0])])
    return out


def _quasi_newton(spec: ModelSpec, sample: InterArrivalSample, x: np.ndarray, options: FitOptions):
    """One projected quasi-Newton run on -LL from ``x``: (theta, -LL, converged, evals).

    The -LL is the negated value of :func:`log_likelihood` at that theta,
    bitwise, or ``inf`` where the likelihood is undefined.

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
    :func:`fit_cascade`, which fits a model's donors first to make them);
    ``None`` means the moment default alone, from which no further start
    runs.  A candidate inside the box may carry its log-likelihood as a
    third entry, ``(label, theta, ll)``, which is then not evaluated
    again.  The best-ranked start always runs and labels the record's
    ``start_source``.  When the rate or shape function is Expon, or that
    start is the moment default of a Gamma, GenGam or GenF model, up to
    ``options.restarts`` more run from the next-ranked distinct candidates
    where the likelihood is defined; with fewer such candidates, fewer run.
    Other models run from their best start alone: more starts did not
    improve the optima of models started from a donor, and an Exp model
    with a Const, Lin or Quadr rate has a concave log-likelihood, whose one
    local optimum any start reaches (see the module docstring).  Each start
    runs :func:`_quasi_newton` once and the best local optimum wins; its
    value is the record's log-likelihood.  A run that stops short of
    convergence ends at its best point, and a model none of whose runs
    converged is still returned, flagged, with the best vector.
    """
    if sample.n < options.min_obs_per_param * spec.n_params:
        raise InsufficientDataError(
            f"{spec.name}: {sample.n} observations for {spec.n_params} parameters "
            f"(need >= {options.min_obs_per_param} per parameter)"
        )
    lo, hi = spec.bounds()
    ranked = starts or [("default", default_start(spec, sample))]
    start_source, theta0, *_ = ranked[0]
    theta0 = np.clip(np.asarray(theta0, dtype=float), lo, hi)
    restart = FuncKind.EXPON in (spec.rate_kind, spec.shape_kind) or (
        start_source == "default" and spec.family is not Family.EXP
    )
    n_starts = 1 + (options.restarts if restart else 0)

    runs = [theta0]
    for _, theta, *known in ranked[1:]:
        if len(runs) == n_starts:
            break
        theta = np.clip(np.asarray(theta, dtype=float), lo, hi)
        if any(np.array_equal(theta, run) for run in runs):
            continue
        if math.isfinite(known[0] if known else log_likelihood(spec, theta, sample)):
            runs.append(theta)

    results = [_quasi_newton(spec, sample, start, options) for start in runs]
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

    The donors of each model to fit are fitted first, also where ``specs``
    leaves them out, so a model's fit does not depend on which other
    models are asked for; only the models of ``specs`` are returned.  The
    distinct candidate starts (donor embeddings plus the moment default)
    are ranked by their likelihood, evaluated once each, and :func:`fit`
    takes them in that order with those values.  Entries in ``preloaded``
    are taken as-is (they still act as donors, and need none).  Models
    with too few observations are skipped; if an optimizer run fails
    outright, the best candidate start is returned as a flagged fallback so
    model comparisons stay balanced.
    """
    t_ref = 0.5 * (sample.window_start + sample.window_end)
    fitted: dict[str, FittedModel] = {}
    preloaded = preloaded or {}
    todo = {spec.name: spec for spec in specs}
    users = [spec.name for spec in specs if spec.name not in preloaded]
    while users:
        for donor in _donors(users.pop()):
            if donor.name not in todo:
                todo[donor.name] = donor
                users.append(donor.name)
    for spec in cascade_sort(list(todo.values())):
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
    return {spec.name: fitted[spec.name] for spec in cascade_sort(specs) if spec.name in fitted}
