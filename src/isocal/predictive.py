"""Predictive distributions for a scalar target, one by one or as columns.

A forecaster reports either Gaussian parameters or an ensemble of sampled
values. `ForecastColumns` holds n forecasts of one kind as arrays (means
and stds, or sorted samples n x k), and its kernels answer CDF, quantile
and variance queries for all n at once. `Gaussian` and `Empirical` wrap a
single forecast; `cdf`, `quantile` and `variance` on them run the same
kernels on one row. Every operation is pure, so instances can be shared
freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

__all__ = [
    "Gaussian",
    "Empirical",
    "ForecastColumns",
    "PredictiveDist",
    "std_normal_cdf",
    "std_normal_quantile",
    "cdf",
    "quantile",
    "variance",
    "from_samples",
    "columns_by_kind",
    "forecast_arrays",
    "level_blocks",
]

# Upper bound on the quantiles a kernel caller holds at once (n x levels).
_BLOCK = 1 << 16


def std_normal_cdf(x):
    """Standard normal CDF.

    Backed by the Cephes ``ndtr`` routine (erfc-based); absolute error is
    at machine precision, far below the 1e-12 contract of `cdf`. Accepts
    scalars or arrays.
    """
    return ndtr(x)


def std_normal_quantile(p):
    """Standard normal quantile (inverse CDF).

    Backed by the Cephes ``ndtri`` rational approximation; absolute error
    is below 1e-13 for p in [1e-8, 1 - 1e-8]. Accepts scalars or arrays;
    p must lie strictly inside (0, 1).
    """
    return ndtri(p)


def forecast_arrays(means=None, stds=None, samples=None) -> dict[str, np.ndarray]:
    """Read-only float64 copies of one kind of forecast parameters, by name:
    ``means`` and ``stds``, or ``samples``. Every value must be finite and
    every std positive."""
    if (means is None) != (stds is None) or (means is None) == (samples is None):
        raise ValueError("provide either means and stds, or samples")
    given = {"samples": samples} if means is None else {"means": means, "stds": stds}
    arrays = {name: np.array(value, dtype=np.float64) for name, value in given.items()}
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise ValueError(f"invalid input value: non-finite forecast {name}")
        arr.flags.writeable = False
    if means is not None and (arrays["stds"] <= 0.0).any():
        raise ValueError(f"nonpositive std: {arrays['stds'][arrays['stds'] <= 0.0][0]}")
    return arrays


@dataclass(frozen=True)
class Gaussian:
    """Normal predictive distribution with strictly positive spread."""

    mean: float
    std: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.std)):
            raise ValueError("invalid input value: non-finite Gaussian parameter")
        if self.std <= 0.0:
            raise ValueError(f"nonpositive std: {self.std}")


@dataclass(frozen=True, eq=False)
class Empirical:
    """Ensemble predictive distribution.

    Samples are stored sorted ascending. The CDF follows the interpolated
    plotting-position convention: piecewise linear through the points
    (x_(i), (i - 0.5)/n) over the sample range, 0 below the smallest
    sample and 1 above the largest. The quantile function is its inverse
    on the sample range, clamped to the extreme samples outside it.
    """

    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("invalid input value: empirical samples must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("invalid input value: non-finite sample")
        arr = np.sort(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)


PredictiveDist = Gaussian | Empirical


def level_blocks(n_rows: int, n_levels: int) -> list[slice]:
    """Consecutive level ranges small enough that n_rows x range quantiles
    stay within a fixed budget."""
    step = max(1, _BLOCK // max(n_rows, 1))
    return [slice(start, start + step) for start in range(0, n_levels, step)]


@dataclass(frozen=True, eq=False)
class ForecastColumns:
    """n forecasts of one kind as arrays, the form every kernel works on.

    Gaussian forecasts carry 1-d ``means`` and ``stds``; ensembles carry
    ``samples``, n x k members, stored sorted along each row. Row i is
    forecast i, and kernels return one row per forecast.
    """

    means: np.ndarray | None = None
    stds: np.ndarray | None = None
    samples: np.ndarray | None = None

    def __post_init__(self):
        samples = None if self.samples is None else np.sort(self.samples, axis=-1)
        arrays = forecast_arrays(self.means, self.stds, samples)
        if samples is None:
            if not (arrays["means"].ndim == 1 and arrays["means"].shape == arrays["stds"].shape):
                raise ValueError("means and stds must be 1-d arrays of equal length")
        elif not (samples.ndim == 2 and samples.shape[1] > 0):
            raise ValueError("samples must be an n x k array with k >= 1")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.means if self.samples is None else self.samples)

    def __getitem__(self, rows) -> ForecastColumns:
        """The forecasts at ``rows``, a slice or an array of row indices."""
        if not isinstance(rows, slice) and np.ndim(rows) == 0:
            raise TypeError("rows must be a slice or an array of row indices")
        if self.samples is None:
            return _checked_columns(means=self.means[rows], stds=self.stds[rows])
        return _checked_columns(samples=self.samples[rows])

    @staticmethod
    def concat(parts) -> ForecastColumns:
        """Rows of several columns of the same kind, one after another."""
        parts = list(parts)
        if parts[0].samples is None:
            return _checked_columns(means=np.concatenate([c.means for c in parts]),
                                    stds=np.concatenate([c.stds for c in parts]))
        return _checked_columns(samples=np.concatenate([c.samples for c in parts]))

    def cdf(self, y) -> np.ndarray:
        """Each forecast's CDF at its own outcome: ``y`` has one entry per row.

        Ensembles follow the interpolated plotting-position convention:
        piecewise linear through (x_(j), (j - 0.5)/k), 0 below the smallest
        member and 1 above the largest.
        """
        y = np.asarray(y, dtype=np.float64)
        if self.samples is None:
            return std_normal_cdf((y - self.means) / self.stds)
        xs = self.samples
        k = xs.shape[1]
        rows = np.arange(len(xs))
        at_or_below = np.count_nonzero(xs <= y[:, None], axis=1)
        lo = xs[rows, np.maximum(at_or_below - 1, 0)]
        hi = xs[rows, np.minimum(at_or_below, k - 1)]
        p_lo = (at_or_below - 0.5) / k
        p_hi = (at_or_below + 0.5) / k
        between = (at_or_below > 0) & (at_or_below < k) & (lo != y)
        frac = np.where(between, y - lo, 0.0) / np.where(between, hi - lo, 1.0)
        out = p_lo + frac * (p_hi - p_lo)  # p_lo itself where y is a member
        out[at_or_below == 0] = 0.0
        out[(at_or_below == k) & (lo != y)] = 1.0
        return out

    def quantiles(self, p) -> np.ndarray:
        """Quantile of every forecast at every level in ``p``: n x len(p).

        Ensembles interpolate linearly through (x_(j), (j - 0.5)/k), with the
        arithmetic of ``np.interp``, and clamp to the extreme members outside
        that range; every row shares the k plotting positions.
        """
        p = np.asarray(p, dtype=np.float64)
        if self.samples is None:
            return self.means[:, None] + self.stds[:, None] * std_normal_quantile(p)
        xs = self.samples
        k = xs.shape[1]
        if k == 1:
            return np.repeat(xs, p.size, axis=1)
        positions = (np.arange(k) + 0.5) / k
        j = np.searchsorted(positions, p, side="right") - 1
        at = np.maximum(j, 0)
        between = (j >= 0) & (j < k - 1) & (positions[at] != p)
        j = np.minimum(at, k - 2)
        lo = xs[:, j]
        slope = (xs[:, j + 1] - lo) / (positions[j + 1] - positions[j])
        return np.where(between, slope * (p - positions[j]) + lo, xs[:, at])

    def variance(self) -> np.ndarray:
        """Each forecast's variance: std**2, or the population variance of
        its members (two-pass, so a common shift leaves it unchanged)."""
        if self.samples is None:
            return self.stds * self.stds
        dev = self.samples - self.samples.mean(axis=1, keepdims=True)
        return (dev * dev).mean(axis=1)

    def level_variance(self, p) -> np.ndarray:
        """Each forecast's variance of its quantiles over the levels ``p``.

        Gaussian quantiles are m + s z(p), so this is s**2 Var(z) in closed
        form. Ensembles take two passes over blocks of levels, the mean and
        then the centred squares, and never hold all n x len(p) quantiles.
        """
        p = np.asarray(p, dtype=np.float64)
        if self.samples is None:
            return self.stds * self.stds * np.var(std_normal_quantile(p))
        blocks = level_blocks(len(self), p.size)
        mean = sum(self.quantiles(p[b]).sum(axis=1) for b in blocks) / p.size
        squares = sum(np.square(self.quantiles(p[b]) - mean[:, None]).sum(axis=1) for b in blocks)
        return squares / p.size


def _checked_columns(**arrays) -> ForecastColumns:
    """`ForecastColumns` over arrays that already meet its checks (rows of
    checked columns or of `Gaussian`/`Empirical` objects), without
    repeating them."""
    cols = object.__new__(ForecastColumns)
    for name in ("means", "stds", "samples"):
        arr = arrays.get(name)
        if arr is not None:
            arr.flags.writeable = False
        object.__setattr__(cols, name, arr)
    return cols


def columns_by_kind(forecasts) -> list[tuple[slice | np.ndarray, ForecastColumns]]:
    """Forecasts as (positions, columns) pairs, one pair per kind.

    A `ForecastColumns`, or a sequence of one kind, is a single pair covering
    every position. A mixed sequence splits into its Gaussians and its
    ensembles of each size, with the positions each pair came from.
    """
    if isinstance(forecasts, ForecastColumns):
        return [(slice(None), forecasts)]
    groups: dict[int, list[int]] = {}
    for i, d in enumerate(forecasts):
        groups.setdefault(0 if isinstance(d, Gaussian) else d.samples.size, []).append(i)
    pairs = []
    for size, positions in groups.items():
        dists = [forecasts[i] for i in positions]
        cols = (_checked_columns(samples=np.stack([d.samples for d in dists])) if size else
                _checked_columns(means=np.array([d.mean for d in dists]),
                                 stds=np.array([d.std for d in dists])))
        pairs.append((slice(None) if len(groups) == 1 else np.asarray(positions), cols))
    return pairs


def _columns(d: PredictiveDist) -> ForecastColumns:
    return columns_by_kind([d])[0][1]


def cdf(d: PredictiveDist, y: float) -> float:
    """Probability the outcome does not exceed ``y`` under forecast ``d``."""
    if not math.isfinite(y):
        raise ValueError("invalid input value: y must be finite")
    return float(_columns(d).cdf([y])[0])


def quantile(d: PredictiveDist, p: float) -> float:
    """Smallest value whose forecast CDF reaches level ``p``, 0 < p < 1."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"quantile level out of range: {p}")
    return float(_columns(d).quantiles([p])[0, 0])


def variance(d: PredictiveDist) -> float:
    """Variance of the forecast: std**2, or population variance of samples."""
    return float(_columns(d).variance()[0])


def from_samples(samples, fit_gaussian: bool = False) -> PredictiveDist:
    """Build a predictive distribution from at least two forecast samples.

    By default returns an `Empirical` over the sorted samples. With
    ``fit_gaussian`` a `Gaussian` is fitted instead (mean and standard
    deviation with the n-1 divisor); constant samples are rejected in that
    case because the spread would degenerate to zero.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("invalid input value: need at least 2 samples")
    if not np.all(np.isfinite(arr)):
        raise ValueError("invalid input value: non-finite sample")
    if not fit_gaussian:
        return Empirical(arr)
    std = float(np.std(arr, ddof=1))
    if std <= 0.0:
        raise ValueError("nonpositive std: samples are constant")
    return Gaussian(float(np.mean(arr)), std)
