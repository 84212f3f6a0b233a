"""Inter-arrival distribution kernels.

Four nested families of positive continuous distributions:

* ``Exp(rate)`` -- exponential,
* ``Gamma(shape, rate)`` -- gamma,
* ``GenGam(mu, sigma, q)`` -- generalized gamma in the Prentice
  (location/scale/shape) form,
* ``GenF(mu, sigma, q, p)`` -- generalized F.

Each extends the previous one: ``Exp(lam) == Gamma(1, lam)``,
``Gamma(a, b) == GenGam(-log(b/a), 1/sqrt(a), 1/sqrt(a))`` and
``GenGam(mu, sigma, q) == GenF(mu, sigma, q, 0)``.

All density math happens in log space.  The module-level ``*_logpdf``
helpers broadcast over array-valued parameters, which is what the
likelihood code needs when parameters vary along the time axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, ParameterError, TailExhaustedError

__all__ = [
    "Exp",
    "Gamma",
    "GenGam",
    "GenF",
    "DistParams",
    "exp_logpdf",
    "gamma_logpdf",
    "gengam_logpdf",
    "genf_logpdf",
    "LOGNORMAL_Q_EPS",
    "GENGAM_P_EPS",
]

# Below this |q| the generalized gamma is evaluated through its lognormal
# limit; the underlying gamma shape q**-2 exceeds 1e10 and the normalizing
# constant cancels catastrophically.
LOGNORMAL_Q_EPS = 1e-5

# Below this p the generalized F collapses to the generalized gamma
# (one of the beta-prime shapes diverges like 2/p as p -> 0).
GENGAM_P_EPS = 1e-8


# ---------------------------------------------------------------------------
# vectorized log-density kernels (no argument validation; used by fitting)
# ---------------------------------------------------------------------------

def exp_logpdf(x, rate):
    """log density of Exp(rate); broadcasts over x and rate."""
    x = np.asarray(x, dtype=float)
    return np.log(rate) - rate * x


def gamma_logpdf(x, shape, rate):
    """log density of Gamma(shape, rate); broadcasts over all arguments."""
    x = np.asarray(x, dtype=float)
    return (
        special.xlogy(shape, rate)
        - special.gammaln(shape)
        + special.xlogy(shape - 1.0, x)
        - rate * x
    )


def gengam_logpdf(x, mu, sigma, q):
    """log density of the Prentice generalized gamma.

    ``q`` must be a scalar; ``x``, ``mu`` and ``sigma`` broadcast.  The
    lognormal limit is substituted for |q| < LOGNORMAL_Q_EPS.
    """
    x = np.asarray(x, dtype=float)
    logx = np.log(x)
    w = (logx - mu) / sigma
    if abs(q) < LOGNORMAL_Q_EPS:
        return -np.log(sigma) - logx - 0.5 * math.log(2.0 * math.pi) - 0.5 * w * w
    a = q ** -2
    with np.errstate(over="ignore"):
        core = a * (q * w - np.exp(q * w))
    return (
        math.log(abs(q))
        + a * math.log(a)
        - special.gammaln(a)
        - np.log(sigma)
        - logx
        + core
    )


def _genf_shapes(q: float, p: float) -> tuple[float, float, float]:
    """delta and the two beta-prime shapes (s1, s2) for GenF(q, p), p > 0.

    The smaller of ``delta + q`` and ``delta - q`` is taken as ``2p`` over
    the larger, which stays exact as p -> 0, where its shape grows like 2/p.
    """
    delta = math.sqrt(q * q + 2.0 * p)
    if q >= 0.0:
        plus = delta + q
        minus = 2.0 * p / plus
    else:
        minus = delta - q
        plus = 2.0 * p / minus
    return delta, 2.0 / (delta * plus), 2.0 / (delta * minus)


def genf_logpdf(x, mu, sigma, q, p):
    """log density of the generalized F.

    ``q`` and ``p`` must be scalars; ``x``, ``mu`` and ``sigma`` broadcast.
    ``p`` below GENGAM_P_EPS falls through to the generalized gamma.
    """
    if p < GENGAM_P_EPS:
        return gengam_logpdf(x, mu, sigma, q)
    x = np.asarray(x, dtype=float)
    logx = np.log(x)
    delta, s1, s2 = _genf_shapes(q, p)
    log_ratio = math.log(s1 / s2)
    w = (logx - mu) * (delta / sigma)
    return (
        math.log(delta)
        + s1 * log_ratio
        + s1 * w
        - np.log(sigma)
        - logx
        - (s1 + s2) * np.logaddexp(0.0, w + log_ratio)
        - special.betaln(s1, s2)
    )


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

def _check_positive(name: str, value: float) -> None:
    if not (np.isfinite(value) and value > 0.0):
        raise ParameterError(f"{name} must be finite and > 0, got {value!r}")


def _check_finite(name: str, value: float) -> None:
    if not np.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")


def _check_x(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.size and (np.any(arr <= 0.0) or not np.all(np.isfinite(arr))):
        raise DomainError("x must be strictly positive and finite")
    return arr


def _check_u(u) -> np.ndarray:
    arr = np.asarray(u, dtype=float)
    if arr.size and (np.any(arr <= 0.0) or np.any(arr >= 1.0)):
        raise DomainError("probability must lie strictly inside (0, 1)")
    return arr


def _scalarize(value, x):
    """Return a python float when the input x was scalar."""
    return float(value) if np.ndim(x) == 0 else value


def _polish_quantile(params, x, u, iters: int = 2):
    """Newton steps in log-x sharpening an inverse-cdf solution.

    The incomplete gamma/beta inverses are only accurate to ~1e-8 in the
    worst corners; two corrections push cdf(quantile(u)) - u near machine
    precision.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    for _ in range(iters):
        with np.errstate(all="ignore"):
            slope = np.exp(params.logpdf(x)) * x  # dF/dlog(x)
            step = (params.cdf(x) - u) / slope
            good = np.isfinite(step) & (np.abs(step) < 1.0)
            x = np.where(good, x * np.exp(-np.where(good, step, 0.0)), x)
    return x


class _Dist:
    """Shared behaviour of the four parameter containers."""

    def pdf(self, x):
        return _scalarize(np.exp(self.logpdf(x)), x)

    def truncated_quantile(self, y: float, u):
        """Quantile at probability ``u`` of the distribution conditioned on exceeding ``y``.

        Inverse transform on the truncated cdf: ``quantile(F(y) + u*(1-F(y)))``.
        """
        if y < 0.0:
            raise DomainError("truncation point must be >= 0")
        fy = 0.0 if y == 0.0 else float(self.cdf(y))
        if fy > 1.0 - 1e-12:
            raise TailExhaustedError(
                f"cdf({y}) = {fy}; truncated tail carries no usable mass"
            )
        return self.quantile(fy + u * (1.0 - fy))

    def sample_truncated(self, y: float, rng: np.random.Generator, size=None):
        """Draw from the distribution conditioned on exceeding ``y``."""
        return self.truncated_quantile(y, rng.uniform(size=size))


@dataclass(frozen=True)
class Exp(_Dist):
    """Exponential with rate > 0."""

    rate: float

    def __post_init__(self):
        _check_positive("rate", self.rate)

    def logpdf(self, x):
        return _scalarize(exp_logpdf(_check_x(x), self.rate), x)

    def cdf(self, x):
        return _scalarize(-np.expm1(-self.rate * _check_x(x)), x)

    def quantile(self, u):
        return _scalarize(-np.log1p(-_check_u(u)) / self.rate, u)

    def sample(self, rng: np.random.Generator, size=None):
        return rng.exponential(1.0 / self.rate, size=size)

    def mean(self) -> float:
        return 1.0 / self.rate


@dataclass(frozen=True)
class Gamma(_Dist):
    """Gamma with shape > 0 and rate > 0."""

    shape: float
    rate: float

    def __post_init__(self):
        _check_positive("shape", self.shape)
        _check_positive("rate", self.rate)

    def logpdf(self, x):
        return _scalarize(gamma_logpdf(_check_x(x), self.shape, self.rate), x)

    def cdf(self, x):
        return _scalarize(special.gammainc(self.shape, self.rate * _check_x(x)), x)

    def quantile(self, u):
        return _scalarize(special.gammaincinv(self.shape, _check_u(u)) / self.rate, u)

    def sample(self, rng: np.random.Generator, size=None):
        return rng.gamma(self.shape, 1.0 / self.rate, size=size)

    def mean(self) -> float:
        return self.shape / self.rate


@dataclass(frozen=True)
class GenGam(_Dist):
    """Generalized gamma, Prentice parametrization.

    ``x = exp(mu + sigma*w)`` where ``w = log(q**2 * g)/q`` and
    ``g ~ Gamma(q**-2, 1)``; ``q = 0`` is the lognormal limit.
    """

    mu: float
    sigma: float
    q: float

    def __post_init__(self):
        _check_finite("mu", self.mu)
        _check_positive("sigma", self.sigma)
        _check_finite("q", self.q)

    @property
    def _lognormal(self) -> bool:
        return abs(self.q) < LOGNORMAL_Q_EPS

    def logpdf(self, x):
        return _scalarize(gengam_logpdf(_check_x(x), self.mu, self.sigma, self.q), x)

    def cdf(self, x):
        w = (np.log(_check_x(x)) - self.mu) / self.sigma
        if self._lognormal:
            return _scalarize(special.ndtr(w), x)
        a = self.q ** -2
        with np.errstate(over="ignore"):
            z = a * np.exp(self.q * w)
        if self.q > 0:
            return _scalarize(special.gammainc(a, z), x)
        return _scalarize(special.gammaincc(a, z), x)

    def quantile(self, u):
        uu = _check_u(u)
        if self._lognormal:
            w = special.ndtri(uu)
            return _scalarize(np.exp(self.mu + self.sigma * w), u)
        a = self.q ** -2
        z = special.gammaincinv(a, uu) if self.q > 0 else special.gammainccinv(a, uu)
        w = np.log(z / a) / self.q
        x = np.exp(self.mu + self.sigma * w)
        return _scalarize(_polish_quantile(self, x, uu), u)

    def sample(self, rng: np.random.Generator, size=None):
        if self._lognormal:
            w = rng.standard_normal(size=size)
        else:
            a = self.q ** -2
            w = np.log(rng.gamma(a, 1.0, size=size) / a) / self.q
        return np.exp(self.mu + self.sigma * w)

    def mean(self) -> float:
        if self._lognormal:
            return math.exp(self.mu + 0.5 * self.sigma ** 2)
        a = self.q ** -2
        k = self.sigma / self.q
        if a + k <= 0.0:
            return math.inf
        return math.exp(
            self.mu - k * math.log(a) + special.gammaln(a + k) - special.gammaln(a)
        )


@dataclass(frozen=True)
class GenF(_Dist):
    """Generalized F; ``p = 0`` reduces to the generalized gamma."""

    mu: float
    sigma: float
    q: float
    p: float

    def __post_init__(self):
        _check_finite("mu", self.mu)
        _check_positive("sigma", self.sigma)
        _check_finite("q", self.q)
        if not (np.isfinite(self.p) and self.p >= 0.0):
            raise ParameterError(f"p must be finite and >= 0, got {self.p!r}")

    def _reduced(self) -> GenGam | None:
        if self.p < GENGAM_P_EPS:
            return GenGam(self.mu, self.sigma, self.q)
        return None

    def logpdf(self, x):
        return _scalarize(
            genf_logpdf(_check_x(x), self.mu, self.sigma, self.q, self.p), x
        )

    def cdf(self, x):
        reduced = self._reduced()
        if reduced is not None:
            return reduced.cdf(x)
        delta, s1, s2 = _genf_shapes(self.q, self.p)
        w = (np.log(_check_x(x)) - self.mu) * (delta / self.sigma)
        v = np.atleast_1d(w + math.log(s1 / s2))
        # evaluate from whichever tail of the beta argument resolves in floats
        out = np.empty_like(v)
        low = v <= 0.0
        out[low] = special.betainc(s1, s2, special.expit(v[low]))
        out[~low] = 1.0 - special.betainc(s2, s1, special.expit(-v[~low]))
        return _scalarize(out[0] if np.ndim(x) == 0 else out, x)

    def quantile(self, u):
        reduced = self._reduced()
        if reduced is not None:
            return reduced.quantile(u)
        uu = np.atleast_1d(_check_u(u))
        delta, s1, s2 = _genf_shapes(self.q, self.p)
        # solve the beta quantile from whichever tail resolves in floats
        logit_ub = np.empty_like(uu)
        low = uu <= 0.5
        ub = special.betaincinv(s1, s2, uu[low])
        logit_ub[low] = np.log(ub) - np.log1p(-ub)
        vb = special.betaincinv(s2, s1, 1.0 - uu[~low])
        logit_ub[~low] = np.log1p(-vb) - np.log(vb)
        w = logit_ub - math.log(s1 / s2)
        x = np.exp(self.mu + self.sigma * w / delta)
        x = _polish_quantile(self, x, uu)
        return _scalarize(x[0] if np.ndim(u) == 0 else x, u)

    def sample(self, rng: np.random.Generator, size=None):
        reduced = self._reduced()
        if reduced is not None:
            return reduced.sample(rng, size=size)
        delta, s1, s2 = _genf_shapes(self.q, self.p)
        g1 = rng.gamma(s1, 1.0, size=size)
        g2 = rng.gamma(s2, 1.0, size=size)
        v = (s2 / s1) * (g1 / g2)
        return np.exp(self.mu + self.sigma * np.log(v) / delta)

    def mean(self) -> float:
        reduced = self._reduced()
        if reduced is not None:
            return reduced.mean()
        delta, s1, s2 = _genf_shapes(self.q, self.p)
        k = self.sigma / delta
        if s2 <= k or s1 + k <= 0.0:
            return math.inf
        return math.exp(
            self.mu
            + k * math.log(s2 / s1)
            + special.gammaln(s1 + k)
            + special.gammaln(s2 - k)
            - special.gammaln(s1)
            - special.gammaln(s2)
        )


DistParams = Exp | Gamma | GenGam | GenF
