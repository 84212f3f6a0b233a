"""Time-varying parameter functions and the catalogue of candidate models.

A model couples one of the four distribution families with deterministic
functions of time-to-delivery for its rate parameter (and, beyond the
exponential family, its shape parameter).  Shape functions may not use
more coefficients than rate functions, which prunes the grid of
(rate kind, shape kind) pairs to 11 per multi-parameter family and yields
37 models in total, named ``Family.RateKind.ShapeKind`` (``Family.RateKind``
for the exponential family).

For the generalized families the gamma-style functions ``shape(t)`` and
``rate(t)`` are mapped into location/scale via
``mu(t) = log(shape(t)) - log(rate(t))`` and ``sigma(t) = shape(t)**-0.5``,
with the extra shape parameters held constant over time.
:meth:`ModelSpec.params_at` is the one place that performs this mapping:
the likelihood, the feasibility check and every simulation step, the
first gap included, read the family parameters from it and pass them to
the family kernels of :mod:`arrivalsim.distributions`.  A simulation step
reads them in :func:`join` of the specs that share its lockstep, where
:meth:`ModelSpec.embed` lays each model's θ out so that they are bitwise
its own.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ParameterError

__all__ = [
    "FuncKind",
    "eval_func",
    "Family",
    "ModelSpec",
    "enumerate_models",
    "model_from_name",
    "feasible_on_grid",
    "join",
]

# Box bounds used by the fitting module.
CONST_BOUNDS = (1e-6, 1e6)
SLOPE_BOUNDS = (-1e4, 1e4)
Q_BOUNDS = (-5.0, 5.0)
P_BOUNDS = (0.0, 50.0)


_N_COEFFS = {"Const": 1, "Lin": 2, "Quadr": 3, "Expon": 3}


class FuncKind(str, enum.Enum):
    """Shape of a deterministic parameter function of time, declared in the
    catalogue's order, which :func:`enumerate_models` and the fit cascade
    iterate."""

    CONST = "Const"
    LIN = "Lin"
    QUADR = "Quadr"
    EXPON = "Expon"

    @property
    def n_coeffs(self) -> int:
        return _N_COEFFS[self.value]

    @property
    def complexity(self) -> int:
        # quadratic and exponential count as equally complex
        return self.n_coeffs

    @property
    def coeff_names(self) -> tuple[str, ...]:
        return {
            "Const": ("c",),
            "Lin": ("c", "b1"),
            "Quadr": ("c", "b1", "b2"),
            "Expon": ("c", "a1", "a2"),
        }[self.value]


class _QuadrExpon:
    """The kind of the function ``c + b1 t + b2 t t + exp(a1 + a2 t)``,
    which holds a Quadr function as a1 = -inf, a2 = 0 and an Expon one as
    b1 = b2 = 0, bitwise at finite t (a Quadr value of -0 comes out +0;
    zero is infeasible either way).  Only :func:`join` lays parameters out
    in it: the catalogue, :func:`model_from_name` and the fit know the four
    :class:`FuncKind` members alone."""

    value = "Quadr+Expon"
    n_coeffs = 5
    complexity = 3  # as complex as its two parts
    coeff_names = ("c", "b1", "b2", "a1", "a2")


QUADR_EXPON = _QuadrExpon()


def eval_func(kind: FuncKind, coeffs, t):
    """Evaluate a parameter function at time(s) ``t`` (hours to delivery).

    Vectorized over ``t``, and over coefficients given as arrays shaped
    like ``t``; exponential overflow yields ``inf`` which callers treat as
    infeasible.
    """
    t = np.asarray(t, dtype=float)
    if kind is FuncKind.CONST:
        return np.full(t.shape, coeffs[0]) if t.ndim else float(coeffs[0])
    if kind is FuncKind.LIN:
        return coeffs[0] + coeffs[1] * t
    if kind is FuncKind.QUADR:
        return coeffs[0] + coeffs[1] * t + coeffs[2] * t * t
    with np.errstate(over="ignore"):
        if kind is QUADR_EXPON:
            return coeffs[0] + coeffs[1] * t + coeffs[2] * t * t + np.exp(coeffs[3] + coeffs[4] * t)
        out = coeffs[0] + np.exp(coeffs[1] + coeffs[2] * t)
    return out


def _positive_finite(values) -> bool:
    values = np.asarray(values)
    return np.count_nonzero((values > 0.0) & (values < math.inf)) == values.size


class Family(str, enum.Enum):
    """Inter-arrival family, declared in nesting order (each extends the
    one before), which :func:`enumerate_models` and the fit cascade
    iterate."""

    EXP = "Exp"
    GAMMA = "Gamma"
    GENGAM = "GenGam"
    GENF = "GenF"

    @property
    def extra_shape_params(self) -> tuple[str, ...]:
        # constant-over-time distribution shape parameters
        return {"Exp": (), "Gamma": (), "GenGam": ("Q",), "GenF": ("Q", "P")}[self.value]


@dataclass(frozen=True)
class ModelSpec:
    """One point of the model space: family plus parameter-function kinds.

    The parameter vector layout is fixed as
    ``[rate coefficients | shape coefficients | Q | P]`` with the trailing
    entries present only for the families that use them.  The layout
    properties are computed once per spec: :meth:`params_at` reads them on
    every simulation step.
    """

    family: Family
    rate_kind: FuncKind
    shape_kind: FuncKind | None = field(default=None)

    def __post_init__(self):
        if self.family is Family.EXP:
            if self.shape_kind is not None:
                raise ParameterError("exponential models have no shape function")
        else:
            if self.shape_kind is None:
                raise ParameterError(f"{self.family.value} models need a shape function")
            if self.shape_kind.complexity > self.rate_kind.complexity:
                raise ParameterError(
                    "shape function cannot be more complex than the rate function: "
                    f"{self.rate_kind.value}.{self.shape_kind.value}"
                )

    @property
    def name(self) -> str:
        if self.family is Family.EXP:
            return f"Exp.{self.rate_kind.value}"
        return f"{self.family.value}.{self.rate_kind.value}.{self.shape_kind.value}"

    @cached_property
    def rate_slice(self) -> slice:
        return slice(0, self.rate_kind.n_coeffs)

    @cached_property
    def shape_slice(self) -> slice | None:
        if self.shape_kind is None:
            return None
        start = self.rate_kind.n_coeffs
        return slice(start, start + self.shape_kind.n_coeffs)

    @cached_property
    def q_index(self) -> int | None:
        if self.family in (Family.GENGAM, Family.GENF):
            return self.rate_kind.n_coeffs + self.shape_kind.n_coeffs
        return None

    @cached_property
    def p_index(self) -> int | None:
        if self.family is Family.GENF:
            return self.q_index + 1
        return None

    def embed(self, theta, layout: ModelSpec) -> np.ndarray:
        """``theta`` in the parameter layout of ``layout``, a :func:`join`
        of this spec, by parameter name: an ``a1`` this spec lacks is -inf,
        an Exp's ``shape.c`` is 1 and any other missing entry is 0.
        ``layout.params_at`` then gives bitwise this spec's parameters at
        finite t, a GenGam's with p = 0 appended and an Exp's with a shape
        of 1 before its rate."""
        fill = {name: -math.inf if name.endswith(".a1") else 0.0 for name in layout.param_names}
        if self.shape_kind is None and layout.shape_kind is not None:
            fill["shape.c"] = 1.0
        fill.update(zip(self.param_names, theta))
        return np.array([fill[name] for name in layout.param_names])

    @property
    def n_params(self) -> int:
        n = self.rate_kind.n_coeffs
        if self.shape_kind is not None:
            n += self.shape_kind.n_coeffs
        return n + len(self.family.extra_shape_params)

    @property
    def param_names(self) -> tuple[str, ...]:
        names = [f"rate.{c}" for c in self.rate_kind.coeff_names]
        if self.shape_kind is not None:
            names += [f"shape.{c}" for c in self.shape_kind.coeff_names]
        names += list(self.family.extra_shape_params)
        return tuple(names)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Box bounds (lower, upper) aligned with the parameter layout, as
        read-only arrays built once per spec."""
        return self._bounds

    @cached_property
    def _bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = [], []
        for name in self.param_names:
            if name == "Q":
                b = Q_BOUNDS
            elif name == "P":
                b = P_BOUNDS
            elif name.endswith(".c"):
                b = CONST_BOUNDS
            else:
                b = SLOPE_BOUNDS
            lo.append(b[0])
            hi.append(b[1])
        lo, hi = np.array(lo), np.array(hi)
        lo.flags.writeable = hi.flags.writeable = False
        return lo, hi

    def params_at(self, theta, t) -> tuple[tuple, bool]:
        """Family parameters at time(s) ``t`` and whether they are feasible.

        The parameters are ``(rate,)``, ``(shape, rate)``, ``(mu, sigma, q)``
        or ``(mu, sigma, q, p)`` in the argument order of the family's
        kernels (:data:`arrivalsim.distributions.KERNELS`), with the
        time-varying entries shaped like ``t`` and
        ``mu = log(shape) - log(rate)``, ``sigma = shape**-0.5``.  The
        flag is false, and the parameters empty, when the rate or shape is
        non-positive or non-finite anywhere on ``t`` or when ``p < 0``.
        ``theta`` is taken as given: callers outside the likelihood check
        it first with :func:`feasible_on_grid`.  It is one parameter
        vector, or an ``(n_params, n)`` array whose columns pair with the n
        entries of ``t``; then ``q`` and ``p`` are rows too.
        """
        rate = eval_func(self.rate_kind, theta[self.rate_slice], t)
        if not _positive_finite(rate):
            return (), False
        if self.family is Family.EXP:
            return (rate,), True
        shape = eval_func(self.shape_kind, theta[self.shape_slice], t)
        if not _positive_finite(shape):
            return (), False
        if self.family is Family.GAMMA:
            return (shape, rate), True
        mu = np.log(shape) - np.log(rate)
        sigma = shape ** -0.5
        q = theta[self.q_index]
        if self.family is Family.GENGAM:
            return (mu, sigma, q), True
        p = theta[self.p_index]
        if np.count_nonzero(p >= 0.0) < np.size(p):
            return (), False
        return (mu, sigma, q, p), True


def enumerate_models() -> list[ModelSpec]:
    """The full 37-model catalogue in canonical (table) order."""
    specs: list[ModelSpec] = []
    for family in Family:
        if family is Family.EXP:
            specs.extend(ModelSpec(family, k) for k in FuncKind)
            continue
        for rate_kind in FuncKind:
            for shape_kind in FuncKind:
                if shape_kind.complexity <= rate_kind.complexity:
                    specs.append(ModelSpec(family, rate_kind, shape_kind))
    return specs


def join(specs) -> ModelSpec:
    """The narrowest spec whose parameter layout holds each of ``specs``,
    which share a step kernel (Exp and Gamma, or GenGam and GenF), for
    :meth:`ModelSpec.embed`.

    A function kind that every spec with that function shares stays;
    otherwise Const, Lin and Quadr functions widen to Quadr and Expon
    stays, and the two join as ``Quadr+Expon``.  Exp specs alone keep the
    Exp family, and beside a Gamma take its layout with a constant shape
    of 1, which they add no kind to; GenGam and GenF take the GenF
    layout, GenGam with p = 0.
    """
    specs = list(specs)

    def joined(kinds):
        kinds = {k for k in kinds if k is not None}
        if len(kinds) <= 1:
            return kinds.pop() if kinds else None
        wide = {k if k is FuncKind.EXPON else FuncKind.QUADR for k in kinds}
        return wide.pop() if len(wide) == 1 else QUADR_EXPON

    family = max((s.family for s in specs), key=list(Family).index)
    return ModelSpec(
        Family.GENF if family is Family.GENGAM else family,
        joined(s.rate_kind for s in specs),
        joined(s.shape_kind for s in specs),
    )


def model_from_name(name: str) -> ModelSpec:
    """Parse a canonical ``Family.RateKind[.ShapeKind]`` name."""
    parts = str(name).split(".")
    try:
        family = Family(parts[0])
        if family is Family.EXP:
            if len(parts) != 2:
                raise ValueError
            return ModelSpec(family, FuncKind(parts[1]))
        if len(parts) != 3:
            raise ValueError
        return ModelSpec(family, FuncKind(parts[1]), FuncKind(parts[2]))
    except ValueError as exc:
        raise ParameterError(f"not a valid model name: {name!r}") from exc


def feasible_on_grid(spec: ModelSpec, theta, t_grid) -> bool:
    """True when every entry of ``theta`` is finite and the parameters of
    ``spec`` are feasible everywhere on ``t_grid``.

    ``params_at`` checks the rate, the shape and ``p``; a non-finite ``q``
    is caught here.  Raises :class:`ParameterError` when ``theta`` does not
    have ``spec.n_params`` entries.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (spec.n_params,):
        raise ParameterError(
            f"{spec.name} expects {spec.n_params} parameters, got shape {theta.shape}"
        )
    return bool(np.isfinite(theta).all()) and spec.params_at(theta, t_grid)[1]
