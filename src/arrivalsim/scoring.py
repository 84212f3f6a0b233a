"""Functional evaluation of simulated counting processes.

The unified loss ``rho(z) = (eta*z**p + (1-eta)*|z|**p) * |tau - 1(z<0)|``
turns pointwise sample statistics (mean, median, tau-quantile) and
evaluation integrals into special cases of one formula.  Estimates and
observations are compared on a minute grid over the forecast horizon
``[T1, T2)``: criteria integrate the pointwise loss with left-endpoint
weights ``dt = 1/60`` hour and apply an outer ``1/p`` root per day, then
average across days.  The pinball criterion averaged over an equidistant
probability grid approximates the functional CRPS, which also feeds the
multivariate Diebold-Mariano comparison across products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DegenerateSeriesError, ParameterError

__all__ = [
    "LossSpec",
    "rho",
    "minute_grid",
    "argmin_process",
    "eval_functional",
    "CellScores",
    "score_cell",
    "ProductCriteria",
    "product_criteria",
    "default_tau_grid",
    "DMResult",
    "dm_test",
    "ScoreReport",
]

MINUTES_PER_HOUR = 60
DT = 1.0 / MINUTES_PER_HOUR

@dataclass(frozen=True)
class LossSpec:
    """Parameters (eta, tau, p) of the unified loss."""

    eta: int
    tau: float
    p: float

    def __post_init__(self):
        if self.eta not in (0, 1):
            raise ParameterError(f"eta must be 0 or 1, got {self.eta!r}")
        if not 0.0 < self.tau < 1.0:
            raise ParameterError(f"tau must lie in (0, 1), got {self.tau!r}")
        if not self.p >= 1.0:
            raise ParameterError(f"p must be >= 1, got {self.p!r}")
        if self.eta == 1 and self.p != int(self.p):
            raise ParameterError("eta=1 requires an integer exponent p")

    def as_tuple(self) -> tuple[int, float, float]:
        return (self.eta, self.tau, self.p)


LOSS_MEAN = LossSpec(0, 0.5, 2)  # the mean process's loss, and RMSE's
LOSS_MEDIAN = LossSpec(0, 0.5, 1)  # the median process's loss, and MAE's
LOSS_BIAS = LossSpec(1, 0.5, 1)


def _as_loss(loss) -> LossSpec:
    if isinstance(loss, LossSpec):
        return loss
    return LossSpec(*loss)


def rho(loss, z):
    """The unified loss evaluated elementwise."""
    spec = _as_loss(loss)
    zz = np.asarray(z, dtype=float)
    weight = np.abs(spec.tau - (zz < 0.0))
    power = zz ** spec.p if spec.eta == 1 else np.abs(zz) ** spec.p
    out = power * weight
    return float(out) if np.ndim(z) == 0 else out


def minute_grid(t1: float, t2: float) -> np.ndarray:
    """Left-endpoint minute grid of [t1, t2): includes t1, excludes t2."""
    if not t1 < t2:
        raise ParameterError(f"need t1 < t2, got {t1}, {t2}")
    n = int(round((t2 - t1) * MINUTES_PER_HOUR))
    if n < 1 or abs(n - (t2 - t1) * MINUTES_PER_HOUR) > 1e-9:
        raise ParameterError(f"[{t1}, {t2}) is not a whole number of minutes")
    return t1 + np.arange(n) / MINUTES_PER_HOUR


def lower_quantile_index(tau: float | np.ndarray, m: int) -> int | np.ndarray:
    """0-based order-statistic index of the smallest pinball minimizer.

    The minimizer set of ``sum_m rho_(0,tau,1)(z_m - z)`` is the order
    statistic of rank ceil(tau*m) when tau*m is fractional and the whole
    interval [z_(tau*m), z_(tau*m+1)] when it is an integer; the smallest
    minimizer is returned in both cases.  An array of taus gives an array
    of indices.
    """
    k = np.clip(np.ceil(np.asarray(tau, dtype=float) * m - 1e-9), 1, m).astype(np.intp) - 1
    return int(k) if k.ndim == 0 else k


def _sample_paths(sims_sorted: np.ndarray, taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower tau-quantile paths and the median path of a sorted sample.

    ``sims_sorted`` is an (M, J) sample sorted along its first axis.  Row r
    of the first result is the lower ``taus[r]``-quantile path, except that
    a tau of 0.5 gives the midpoint median, the second result, which is
    np.median's.
    """
    m = sims_sorted.shape[0]
    median = 0.5 * (sims_sorted[(m - 1) // 2] + sims_sorted[m // 2])
    paths = sims_sorted[lower_quantile_index(taus, m)]
    paths[taus == 0.5] = median
    return paths, median


def argmin_process(sims: np.ndarray, loss) -> np.ndarray:
    """Pointwise rho-estimate of a simulation sample.

    ``sims`` is the (M, J) matrix of simulated counting paths on a shared
    grid.  Supported losses: (eta, 0.5, 2) for the mean process, (0, 0.5, 1)
    for the (midpoint) median process and (0, tau, 1) for the lower sample
    tau-quantile process; anything else is rejected.
    """
    spec = _as_loss(loss)
    sims = np.asarray(sims, dtype=float)
    if sims.ndim != 2 or sims.shape[0] < 1:
        raise ParameterError("sims must be an (M, J) matrix with M >= 1")
    if spec.tau == 0.5 and spec.p == 2:
        return sims.mean(axis=0)
    if spec.eta != 0 or spec.p != 1:
        raise ParameterError(f"unsupported argmin loss {spec.as_tuple()}")
    paths, _ = _sample_paths(np.sort(sims, axis=0), np.array([spec.tau]))
    return paths[0]


def eval_functional(observed, estimate, loss, dt: float = DT) -> float:
    """Left-endpoint loss integral between two paths, to the power 1/p.

    ``observed`` and ``estimate`` are counting-path values on one shared grid.
    """
    spec = _as_loss(loss)
    obs = np.asarray(observed, dtype=float)
    est = np.asarray(estimate, dtype=float)
    if obs.shape != est.shape:
        raise ParameterError(f"grid length mismatch: {obs.shape} vs {est.shape}")
    total = float(np.sum(rho(spec, obs - est)) * dt)
    if spec.p == 1:
        return total
    return total ** (1.0 / spec.p)


def default_tau_grid(size: int = 99) -> np.ndarray:
    """Equidistant probabilities 1/(size+1) .. size/(size+1)."""
    return np.arange(1, size + 1) / (size + 1)


@dataclass(frozen=True)
class CellScores:
    """Per-day, per-product evaluation pieces (pre day-averaging)."""

    bias: float
    mae: float
    rmse: float
    pb: np.ndarray  # one pinball integral per tau in the grid

    @property
    def crps(self) -> float:
        return float(np.mean(self.pb))


def score_cell(obs: np.ndarray, sims: np.ndarray, taus: np.ndarray) -> CellScores:
    """Evaluate one forecast cell: observed path vs a simulation sample.

    ``obs`` is the (J,) observed counting path, ``sims`` the (M, J) matrix
    of simulated paths, both counted from the horizon start on the shared
    minute grid.
    """
    obs = np.asarray(obs, dtype=float)
    sims = np.asarray(sims, dtype=float)
    taus = np.asarray(taus, dtype=float)
    if sims.ndim != 2 or obs.shape != sims.shape[1:]:
        raise ParameterError("obs (J,) and sims (M, J) must share the grid length")
    mean_path = argmin_process(sims, LOSS_MEAN)
    paths, median_path = _sample_paths(np.sort(sims, axis=0), taus)

    bias = 2.0 * eval_functional(obs, mean_path, LOSS_BIAS)
    mae = 2.0 * eval_functional(obs, median_path, LOSS_MEDIAN)
    rmse = 2.0 * eval_functional(obs, mean_path, LOSS_MEAN)

    # the pinball integral of every tau-quantile path at once: |z| weighted
    # by 1 - tau below the path and tau above it, which is |tau - (z < 0)|
    # bitwise for tau in [0, 1]
    z = obs - paths
    weight = np.where(z < 0.0, (1.0 - taus)[:, None], taus[:, None])
    np.abs(z, out=z)
    z *= weight
    pb = np.sum(z, axis=1) * DT
    return CellScores(bias=bias, mae=mae, rmse=rmse, pb=pb)


@dataclass(frozen=True)
class ProductCriteria:
    """Day-averaged criteria of one model on one product."""

    bias: float
    mae: float
    rmse: float
    pb: np.ndarray
    crps: float
    daily_crps: np.ndarray  # nan where the day's cell is missing
    n_days: int
    n_missing: int


def product_criteria(cells: list[CellScores | None], n_taus: int) -> ProductCriteria:
    """Average per-day scores, excluding missing cells (reported by count)."""
    present = [c for c in cells if c is not None]
    daily = np.array([c.crps if c is not None else math.nan for c in cells])
    if not present:
        nan = math.nan
        return ProductCriteria(nan, nan, nan, np.full(n_taus, np.nan), nan, daily, 0, len(cells))
    pb = np.mean([c.pb for c in present], axis=0)
    return ProductCriteria(
        bias=float(np.mean([c.bias for c in present])),
        mae=float(np.mean([c.mae for c in present])),
        rmse=float(np.mean([c.rmse for c in present])),
        pb=pb,
        crps=float(np.mean(pb)),
        daily_crps=daily,
        n_days=len(present),
        n_missing=len(cells) - len(present),
    )


@dataclass(frozen=True)
class DMResult:
    """Multivariate Diebold-Mariano comparison of two loss series."""

    statistic: float
    p_h0_le: float  # null: E(delta) <= 0, i.e. "A no worse"; small => B better
    p_h0_ge: float  # null: E(delta) >= 0, i.e. "B no worse"; small => A better
    n_days: int


def dm_test(loss_a: np.ndarray, loss_b: np.ndarray, q: int = 1) -> DMResult:
    """DM test on the daily norm differential of two loss matrices.

    ``loss_a`` and ``loss_b`` hold per-day loss vectors across products,
    shape (N,) or (N, S).  The differential is
    ``delta_d = ||loss_a[d]||_q - ||loss_b[d]||_q`` and the statistic
    ``sqrt(N) * mean(delta) / sd(delta)`` is compared against a standard
    normal; the two one-sided p-values are complementary.  The normal
    approximation is asymptotic, so small N (< 30 or so) is unreliable.
    """
    a = np.atleast_2d(np.asarray(loss_a, dtype=float).T).T
    b = np.atleast_2d(np.asarray(loss_b, dtype=float).T).T
    if a.shape != b.shape:
        raise ParameterError(f"loss series shapes differ: {a.shape} vs {b.shape}")
    if a.shape[0] < 2:
        raise ParameterError("need at least two days of losses")
    statistic, degenerate = _dm_rows((_day_norms(a, q) - _day_norms(b, q))[None])
    if degenerate[0]:
        raise DegenerateSeriesError(
            "loss differential has zero variance; forecasts indistinguishable"
        )
    return DMResult(
        statistic=float(statistic[0]),
        p_h0_le=float(special.ndtr(-statistic[0])),
        p_h0_ge=float(special.ndtr(statistic[0])),
        n_days=a.shape[0],
    )


def _day_norms(loss: np.ndarray, q: int) -> np.ndarray:
    """q-norm of every day's loss vector (the last axis)."""
    if q == 1:
        return np.abs(loss).sum(axis=-1)
    if q == 2:
        return np.sqrt((loss * loss).sum(axis=-1))
    raise ParameterError(f"q must be 1 or 2, got {q!r}")


def _dm_rows(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """DM statistic of every row of a (P, n) daily loss differential.

    Returns the statistics and the rows with zero variance, whose statistic
    is nan.  ``delta`` must be C-contiguous: a reduction along the
    contiguous last axis adds each row in the order a 1-d row would, so a
    row's statistic does not depend on the rows beside it.
    """
    sd = np.std(delta, axis=1, ddof=1)
    degenerate = sd == 0.0
    statistic = np.divide(
        math.sqrt(delta.shape[1]) * np.mean(delta, axis=1), sd,
        out=np.full_like(sd, np.nan), where=~degenerate,
    )
    return statistic, degenerate


@dataclass(frozen=True)
class ScoreReport:
    """Study-level scores: per model and product, plus daily loss entries."""

    models: list[str]
    products: list[int]
    taus: np.ndarray
    day_labels: list[str]
    bias: np.ndarray  # (K, S)
    mae: np.ndarray
    rmse: np.ndarray
    crps: np.ndarray
    pb: np.ndarray  # (K, S, R)
    daily_crps: np.ndarray  # (K, N, S), nan for missing cells
    missing: np.ndarray  # (K, S) int

    def aggregate(self, criterion: str) -> np.ndarray:
        """Product-averaged criterion values, one per model."""
        return getattr(self, criterion).mean(axis=1)

    def dm_matrix(self, q: int = 1) -> np.ndarray:
        """Pairwise p-values: entry (i, j) small means model i beats model j.

        Days with a missing cell in either model are dropped pairwise;
        undefined comparisons (diagonal, degenerate series, < 2 shared
        days) are nan.  The pairs i < j that share the same number of days
        are tested together: each one's differential over its shared days
        is a row of one C-contiguous (pairs, days) array, so every pair gets
        the statistic it would get alone.
        """
        k = len(self.models)
        rows, cols = np.triu_indices(k, 1)
        norms = _day_norms(self.daily_crps, q)  # (K, N)
        delta = norms[rows] - norms[cols]  # (pairs, N)
        present = ~np.isnan(self.daily_crps).any(axis=2)  # (K, N)
        shared = present[rows] & present[cols]
        counts = shared.sum(axis=1)
        statistic = np.full(rows.size, np.nan)
        for n in np.unique(counts[counts >= 2]):
            pairs = np.flatnonzero(counts == n)
            statistic[pairs] = _dm_rows(delta[pairs][shared[pairs]].reshape(pairs.size, n))[0]
        out = np.full((k, k), np.nan)
        # swapping a pair negates its differential exactly, so (j, i) holds
        # the other one-sided p-value of (i, j)
        out[rows, cols] = special.ndtr(statistic)
        out[cols, rows] = special.ndtr(-statistic)
        return out
