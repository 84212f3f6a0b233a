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

Each family is six kernels -- its log-density, cdf, quantile, score,
innovation sampler and simulation step (see :class:`Kernels`) -- gathered
in :data:`KERNELS`, keyed by :class:`~arrivalsim.models.Family`; this
module is the one place that defines a family.  The kernels take the
family parameters in the order :meth:`ModelSpec.params_at` returns them:
the time-varying entries broadcast, ``q`` and ``p`` are scalars (rows,
in a simulation step).  They do not validate their arguments:
``params_at`` decides feasibility, and
:class:`~arrivalsim.ingest.InterArrivalSample` keeps every ``x`` positive
and finite.  The likelihood reads the logpdf and score kernels; the
simulator's first gap reads :func:`truncated_quantile` and every later
step the innovations and step kernels.  All density math happens in log
space.
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


def exp_score(x, log_x, rate):
    return 1.0 / rate - x, None, []


def gamma_score(x, log_x, shape, rate):
    return shape / rate - x, np.log(rate) - special.digamma(shape) + log_x, []


def gengam_score(x, log_x, mu, sigma, q):
    u = (log_x - mu) / sigma
    d_u, d_q = _gengam_scores(u, q)
    return _gamma_style_scores(mu, sigma, u, d_u, [d_q])


def genf_score(x, log_x, mu, sigma, q, p):
    u = (log_x - mu) / sigma
    if p >= GENGAM_P_EPS:
        d_u, extras = _genf_scores(u, q, p)
    else:
        d_u, d_q = _gengam_scores(u, q)
        extras = [d_q, _genf_p0_score(u, q)]
    return _gamma_style_scores(mu, sigma, u, d_u, extras)


def _gamma_style_scores(mu, sigma, u, d_u, extras):
    """The score of a GenGam or GenF in the rate and the shape, from its
    derivative ``d_u`` in ``u = (log x - mu) / sigma``."""
    # mu = log(shape) - log(rate) and sigma = shape**-0.5
    d_rate = d_u * sigma * np.exp(mu)
    d_shape = sigma * (0.5 * sigma * (1.0 + u * d_u) - d_u)
    return d_rate, d_shape, extras


def _gengam_scores(u: np.ndarray, q: float) -> tuple[np.ndarray, float]:
    """Generalized gamma: per-spell derivative in u, and the summed one in q.

    With z = q u the log-density is ``-log(sigma x) - log(2 pi)/2 - R(q**-2)
    - u**2 phi(z)``, ``phi(z) = (e**z - 1 - z) / z**2`` and R the Stirling
    remainder of ``gammaln``; in the lognormal band the q-derivative is its
    limit, ``-u**3 / 6``.
    """
    if abs(q) < LOGNORMAL_Q_EPS:
        return -u, -float(np.sum(u * u * u)) / 6.0
    z = q * u
    d_q = 2.0 * q * u.size * _stirling_slope(q) - float(np.sum(u * u * u * _dphi(z)))
    return -np.expm1(z) / q, d_q


def _dphi(z: np.ndarray) -> np.ndarray:
    """phi'(z) for phi(z) = (e**z - 1 - z) / z**2, by its series near 0."""
    out = ((z - 2.0) * np.exp(z) + z + 2.0) / (z * z * z)
    small = np.abs(z) < 0.1
    if np.any(small):
        zs = z[small]
        out[small] = 1 / 6 + zs * (1 / 12 + zs * (1 / 40 + zs * (
            1 / 180 + zs * (1 / 1008 + zs * (1 / 6720 + zs * (1 / 51840 + zs / 453600))))))
    return out


def _stirling_slope(q: float) -> float:
    """R'(q**-2) / q**4 for the Stirling remainder R(a) = gammaln(a) - (a - 1/2)
    log a + a - log(2 pi)/2, by its asymptotic series for small q."""
    if abs(q) < 0.1:
        q4 = q ** 4
        return -1 / 12 + q4 * (1 / 120 + q4 * (-1 / 252 + q4 / 240))
    a = q ** -2
    return (float(special.digamma(a)) - math.log(a) + 0.5 / a) / q ** 4


def _genf_p0_score(u: np.ndarray, q: float) -> float:
    """d/dp at p = 0+ of the generalized F log-density, summed over spells.

    It is ``u**4 Z(q u) / 4 + 3 R'(q**-2) / (2 q**4)`` per spell, with
    ``Z(z) = (e**2z + 4 e**z - 4 z e**z - 2 z - 5) / z**4``, the first-order
    term of the density's expansion in p; Z is taken from its series near 0.
    """
    z = q * u
    ez, z2 = np.exp(z), z * z
    with np.errstate(divide="ignore", invalid="ignore"):
        zz = (ez * (ez + 4.0 - 4.0 * z) - 2.0 * z - 5.0) / (z2 * z2)
    small = np.abs(z) < 0.1
    if np.any(small):
        zs = z[small]
        zz[small] = 1 / 6 + zs * (2 / 15 + zs * (11 / 180 + zs * (13 / 630 + zs * (
            19 / 3360 + zs * (1 / 756 + zs * (247 / 907200 + zs * 251 / 4989600))))))
    u2 = u * u
    return float(np.sum(u2 * u2 * zz)) / 4.0 + 1.5 * u.size * _stirling_slope(q)


def _genf_scores(u: np.ndarray, q: float, p: float) -> tuple[np.ndarray, list[float]]:
    """Generalized F: per-spell derivative in u, and the summed ones in (q, p).

    The log-density is ``log(delta / (sigma x)) + s1 v - (s1 + s2)
    softplus(v) - betaln(s1, s2)`` with ``v = delta u + log(s1 / s2)``; its
    partials in (delta, s1, s2) chain through ``d s1/dq = -2 / delta**3 =
    -d s2/dq`` and ``d s_i/dp = -s_i**2 (2 delta +- q) / (2 delta)``.
    """
    delta, s1, s2 = _genf_shapes(q, p)
    v = delta * u + math.log(s1 / s2)
    # each shape's terms in the tail where it dominates, so that neither
    # cancels when the other shape grows like 2/p
    up, down = special.expit(v), special.expit(-v)
    h = s1 * down - s2 * up  # d/dv
    n = u.size
    d_delta = n / delta + float(h @ u)
    d_s1 = float(np.sum(down - np.logaddexp(0.0, -v))) - s2 / s1 * float(np.sum(up))
    d_s2 = float(np.sum(up - np.logaddexp(0.0, v))) - s1 / s2 * float(np.sum(down))
    d_s1 += n * _digamma_step(s1, s2)
    d_s2 += n * _digamma_step(s2, s1)
    d_q = d_delta * q / delta + 2.0 * (d_s2 - d_s1) / delta ** 3
    if min(s1, s2) > 1e5:
        # both shapes ~ 1/p: the (s1, s2) partials cancel to O(1/p**2), so
        # the first-order expansion in p is the more accurate derivative
        return delta * h, [d_q, _genf_p0_score(u, q)]
    d_p = (
        d_delta / delta
        - d_s1 * s1 * s1 * (2.0 * delta + q) / (2.0 * delta)
        - d_s2 * s2 * s2 * (2.0 * delta - q) / (2.0 * delta)
    )
    return delta * h, [d_q, d_p]


def _digamma_step(x: float, s: float) -> float:
    """digamma(x + s) - digamma(x), accurate relative to its size for large x."""
    if x < 1e3:
        return float(special.digamma(x + s) - special.digamma(x))
    y = x + s
    xy = x * y
    return (
        math.log1p(s / x)
        + 0.5 * s / xy
        + s * (x + y) / (12.0 * xy * xy)
        - s * (x + y) * (x * x + y * y) / (120.0 * (xy * xy) ** 2)
    )


def exp_innovations(rate):
    return lambda r, n: r.exponential(1.0, n)


def gamma_innovations(shape, rate):
    return lambda r, n: r.gamma(shape, 1.0, n)


def gengam_innovations(mu, sigma, q):
    if abs(q) >= LOGNORMAL_Q_EPS:
        a = q ** -2
        return lambda r, n: np.log(r.gamma(a, 1.0, n) / a) / q
    return lambda r, n: r.standard_normal(n)


def genf_innovations(mu, sigma, q, p):
    if p < GENGAM_P_EPS:
        return gengam_innovations(mu, sigma, q)
    delta, s1, s2 = _genf_shapes(q, p)
    ratio = s2 / s1
    return lambda r, n: np.log(ratio * r.gamma(s1, 1.0, n) / r.gamma(s2, 1.0, n)) / delta


def _rate_step(w, *params):
    """Exp and Gamma: the innovation over the rate, the last parameter."""
    return w / params[-1]


def _location_scale_step(w, mu, sigma, *shapes):
    """GenGam and GenF: the innovation in log-x, located and scaled."""
    return np.exp(mu + sigma * w)


class Kernels(NamedTuple):
    """The six kernels of one family, on the parameters of ``params_at``.

    ``logpdf(x, *params)``, ``cdf(x, *params)``, ``quantile(u, *params)``;
    ``score(x, log_x, *params)``: the per-spell derivatives of the
    log-density in the gamma-style rate and shape that ``params_at`` maps
    from (None for Exp's shape), and a list of the summed derivatives in
    Q and P; ``innovations(*params)``: ``draw(rng, n)``, n standardized
    innovations, reading only the constant entries (Gamma's shape, q and
    p); ``step(w, *params)``: the inter-arrivals of innovations ``w``.
    """

    logpdf: Callable
    cdf: Callable
    quantile: Callable
    score: Callable
    innovations: Callable
    step: Callable


KERNELS = {
    Family.EXP: Kernels(
        exp_logpdf, exp_cdf, exp_quantile, exp_score, exp_innovations, _rate_step),
    Family.GAMMA: Kernels(
        gamma_logpdf, gamma_cdf, gamma_quantile, gamma_score, gamma_innovations, _rate_step),
    Family.GENGAM: Kernels(gengam_logpdf, gengam_cdf, gengam_quantile, gengam_score,
                           gengam_innovations, _location_scale_step),
    Family.GENF: Kernels(genf_logpdf, genf_cdf, genf_quantile, genf_score,
                         genf_innovations, _location_scale_step),
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
