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

Each family is three kernels -- ``*_logpdf``, ``*_cdf`` and
``*_quantile`` -- gathered in :data:`KERNELS`, keyed by
:class:`~arrivalsim.models.Family`.  They take the family parameters in
the order :meth:`ModelSpec.params_at` returns them, ``x`` or ``u`` first:
the time-varying entries broadcast, ``q`` and ``p`` are scalars.  They do
not validate their arguments: ``params_at`` decides feasibility, and
:class:`~arrivalsim.ingest.InterArrivalSample` keeps every ``x`` positive
and finite.  The likelihood reads the logpdf kernels and the simulator's
first gap reads :func:`truncated_quantile`.  All density math happens in
log space.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np
from scipy import special

from .errors import DomainError, TailExhaustedError
from .models import Family

__all__ = [
    "Kernels",
    "KERNELS",
    "truncated_quantile",
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


def _polish_quantile(logpdf, cdf, x, u, params, iters: int = 2):
    """Newton steps in log-x sharpening an inverse-cdf solution.

    The incomplete gamma/beta inverses are only accurate to ~1e-8 in the
    worst corners; two corrections push cdf(quantile(u)) - u near machine
    precision.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    for _ in range(iters):
        with np.errstate(all="ignore"):
            slope = np.exp(logpdf(x, *params)) * x  # dF/dlog(x)
            step = (cdf(x, *params) - u) / slope
            good = np.isfinite(step) & (np.abs(step) < 1.0)
            x = np.where(good, x * np.exp(-np.where(good, step, 0.0)), x)
    return x


def exp_cdf(x, rate):
    return -np.expm1(-rate * np.asarray(x, dtype=float))


def exp_quantile(u, rate):
    return -np.log1p(-np.asarray(u, dtype=float)) / rate


def gamma_cdf(x, shape, rate):
    return special.gammainc(shape, rate * np.asarray(x, dtype=float))


def gamma_quantile(u, shape, rate):
    return special.gammaincinv(shape, np.asarray(u, dtype=float)) / rate


def gengam_cdf(x, mu, sigma, q):
    w = (np.log(np.asarray(x, dtype=float)) - mu) / sigma
    if abs(q) < LOGNORMAL_Q_EPS:
        return special.ndtr(w)
    a = q ** -2
    with np.errstate(over="ignore"):
        z = a * np.exp(q * w)
    if q > 0:
        return special.gammainc(a, z)
    return special.gammaincc(a, z)


def gengam_quantile(u, mu, sigma, q):
    u = np.asarray(u, dtype=float)
    if abs(q) < LOGNORMAL_Q_EPS:
        return np.exp(mu + sigma * special.ndtri(u))
    a = q ** -2
    z = special.gammaincinv(a, u) if q > 0 else special.gammainccinv(a, u)
    w = np.log(z / a) / q
    x = np.exp(mu + sigma * w)
    return _polish_quantile(gengam_logpdf, gengam_cdf, x, u, (mu, sigma, q))


def genf_cdf(x, mu, sigma, q, p):
    if p < GENGAM_P_EPS:
        return gengam_cdf(x, mu, sigma, q)
    delta, s1, s2 = _genf_shapes(q, p)
    w = (np.log(np.asarray(x, dtype=float)) - mu) * (delta / sigma)
    v = np.atleast_1d(w + math.log(s1 / s2))
    # evaluate from whichever tail of the beta argument resolves in floats
    out = np.empty_like(v)
    low = v <= 0.0
    out[low] = special.betainc(s1, s2, special.expit(v[low]))
    out[~low] = 1.0 - special.betainc(s2, s1, special.expit(-v[~low]))
    return out.reshape(np.shape(w))


def genf_quantile(u, mu, sigma, q, p):
    if p < GENGAM_P_EPS:
        return gengam_quantile(u, mu, sigma, q)
    uu = np.atleast_1d(np.asarray(u, dtype=float))
    delta, s1, s2 = _genf_shapes(q, p)
    # solve the beta quantile from whichever tail resolves in floats
    logit_ub = np.empty_like(uu)
    low = uu <= 0.5
    ub = special.betaincinv(s1, s2, uu[low])
    logit_ub[low] = np.log(ub) - np.log1p(-ub)
    vb = special.betaincinv(s2, s1, 1.0 - uu[~low])
    logit_ub[~low] = np.log1p(-vb) - np.log(vb)
    w = logit_ub - math.log(s1 / s2)
    x = np.exp(mu + sigma * w / delta)
    x = _polish_quantile(genf_logpdf, genf_cdf, x, uu, (mu, sigma, q, p))
    return x.reshape(np.broadcast_shapes(np.shape(u), np.shape(mu), np.shape(sigma)))


class Kernels(NamedTuple):
    """The kernels of one family: ``logpdf(x, *params)``,
    ``cdf(x, *params)`` and ``quantile(u, *params)``."""

    logpdf: Callable
    cdf: Callable
    quantile: Callable


KERNELS = {
    Family.EXP: Kernels(exp_logpdf, exp_cdf, exp_quantile),
    Family.GAMMA: Kernels(gamma_logpdf, gamma_cdf, gamma_quantile),
    Family.GENGAM: Kernels(gengam_logpdf, gengam_cdf, gengam_quantile),
    Family.GENF: Kernels(genf_logpdf, genf_cdf, genf_quantile),
}

# The largest double below 1.  A probability that rounds up to 1 is
# clipped to it, so the quantile stays finite; smaller ones keep their bits.
_BELOW_ONE = math.nextafter(1.0, 0.0)


def truncated_quantile(family: Family, params, y: float, u):
    """Quantile at probabilities ``u`` in [0, 1) of ``family`` at scalar
    ``params``, conditioned on exceeding ``y >= 0``.

    Inverse transform on the truncated cdf: ``quantile(F(y) + u*(1-F(y)))``.
    Raises :class:`TailExhaustedError` when ``F(y)`` exceeds ``1 - 1e-12``,
    where the truncated tail carries no usable mass.
    """
    if y < 0.0:
        raise DomainError("truncation point must be >= 0")
    u = np.asarray(u, dtype=float)
    if u.size and (np.any(u < 0.0) or np.any(u >= 1.0)):
        raise DomainError("probability must lie in [0, 1)")
    kernels = KERNELS[family]
    fy = 0.0 if y == 0.0 else float(kernels.cdf(y, *params))
    if fy > 1.0 - 1e-12:
        raise TailExhaustedError(
            f"cdf({y}) = {fy}; truncated tail carries no usable mass"
        )
    return kernels.quantile(np.minimum(fy + u * (1.0 - fy), _BELOW_ONE), *params)
