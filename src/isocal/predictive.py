"""Predictive distributions for a scalar target, one by one or as columns.

A forecaster reports either Gaussian parameters or an ensemble of sampled
values. `ForecastColumns` holds n forecasts of one kind as arrays (means
and stds, or sorted samples n x k), and its kernels answer CDF, quantile
and variance queries for all n at once. `Gaussian` and `Empirical` wrap a
single forecast; `cdf`, `quantile` and `variance` on them run the same
kernels on one row. Every container of forecasts checks its arrays
through `forecast_arrays`. Every operation is pure, so instances can be
shared freely across threads.

The standard normal CDF (libm's erfc) and quantile (Wichura's AS241) are
implemented here on numpy alone; every stage, `synth` included, calls
these two functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    "per_kind",
    "paired_outcomes",
    "forecast_arrays",
    "forecast_fields",
]

# Levels per step of the normal quantile, which holds about 80 bytes of
# temporaries per level.
_AS241_BLOCK = 1 << 14

_SQRT2 = math.sqrt(2.0)
_erfc = np.frompyfunc(math.erfc, 1, 1)



def _pairs(num, den) -> np.ndarray:
    return np.array([num, den]).T[:, :, None]


# AS241 (PPND16) coefficients, highest power first, as (numerator,
# denominator) pairs: the central branch, then the tails for r <= 5 and r > 5.
_AS241_CENTRAL = _pairs(
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0))
_AS241_NEAR = _pairs(
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e+0, 3.64784832476320460504e+0, 5.76949722146069140550e+0,
     4.63033784615654529590e+0, 1.42343711074968357734e+0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e+0,
     2.05319162663775882187e+0, 1.0))
_AS241_FAR = _pairs(
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e+0,
     5.46378491116411436990e+0, 6.65790464350110377720e+0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0))


def _horner(coeffs: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Both polynomials of a coefficient table at r: 2 x len(r)."""
    acc = coeffs[0] * r + coeffs[1]
    for c in coeffs[2:]:
        acc = acc * r + c
    return acc


def std_normal_cdf(x):
    """Standard normal CDF, as 0.5 * erfc(-x / sqrt(2)) with libm's ``erfc``.

    Absolute error is within about one unit in the last place (1.1e-16 on
    the tested range), far below the 1e-12 contract of `cdf`; unlike
    1 + erf, erfc does not cancel to 0 in the lower tail. Accepts scalars
    or arrays: a scalar gives a numpy scalar, and x = -inf / +inf give 0 / 1.
    """
    z = np.negative(x, dtype=np.float64) / _SQRT2
    return 0.5 * np.asarray(_erfc(z), dtype=np.float64)


def std_normal_quantile(p):
    """Standard normal quantile (inverse CDF), by Wichura's algorithm AS241.

    AS241 (PPND16, Applied Statistics 37, 1988) is a rational approximation
    in three branches: |p - 0.5| <= 0.425, and the tails split at
    r = sqrt(-log(min(p, 1 - p))) = 5; relative error is about 1e-16 for
    p down to 1e-300. Accepts scalars or arrays: a scalar gives a numpy
    scalar. p = 0 gives -inf, p = 1 gives inf, and p outside [0, 1] or NaN
    gives NaN, all without a floating-point warning.
    """
    p = np.asarray(p, dtype=np.float64)
    flat = p.reshape(-1)
    out = np.empty(flat.shape)
    for start in range(0, flat.size, _AS241_BLOCK):
        out[start:start + _AS241_BLOCK] = _as241(flat[start:start + _AS241_BLOCK])
    return out.reshape(p.shape)[()]


def _as241(flat: np.ndarray) -> np.ndarray:
    q = flat - 0.5
    out = np.full(flat.shape, np.nan)
    central = np.abs(q) <= 0.425
    if central.any():
        qc = q[central]
        num, den = _horner(_AS241_CENTRAL, 0.180625 - qc * qc)
        out[central] = num * qc / den
    tail = ~central & (flat > 0.0) & (flat < 1.0)
    if tail.any():
        qt = q[tail]
        r = np.sqrt(-np.log(np.where(qt <= 0.0, flat[tail], 1.0 - flat[tail])))
        near = r <= 5.0
        x = np.empty(r.shape)
        for branch, shift, coeffs in ((near, 1.6, _AS241_NEAR), (~near, 5.0, _AS241_FAR)):
            if branch.any():
                num, den = _horner(coeffs, r[branch] - shift)
                x[branch] = num / den
        out[tail] = np.where(qt < 0.0, -x, x)
    out[flat == 0.0] = -np.inf
    out[flat == 1.0] = np.inf
    return out


def forecast_arrays(axes: int, means=None, stds=None, samples=None) -> dict[str, np.ndarray]:
    """Read-only float64 copies of one kind of forecast parameters, by name,
    for forecasts indexed by ``axes`` leading axes: ``means`` and ``stds``
    of one shape with that many axes, or ``samples`` with one more axis
    holding each ensemble's members, at least one. Every value must be
    finite, every std positive, and the members of each ensemble no further
    apart than the largest double, as its CDF and quantiles divide by the
    member gaps. This is the one check of forecast arrays; each container
    adds only its own rules."""
    if (means is None) != (stds is None) or (means is None) == (samples is None):
        raise ValueError("provide either means and stds, or samples")
    given = {"samples": samples} if means is None else {"means": means, "stds": stds}
    arrays = {name: np.array(value, dtype=np.float64) for name, value in given.items()}
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise ValueError(f"invalid input value: non-finite forecast {name}")
        arr.flags.writeable = False
    if means is None:
        members = arrays["samples"]
        if not (members.ndim == axes + 1 and members.shape[-1]):
            raise ValueError(f"samples need ndim {axes + 1}, the last axis holding at least one member")
        lo, hi = members.min(axis=-1), members.max(axis=-1)
        with np.errstate(over="ignore"):
            wide = np.flatnonzero(np.isinf(hi - lo))
        if wide.size:
            raise ValueError(f"invalid input value: ensemble members from {lo.flat[wide[0]].item()!r} "
                             f"to {hi.flat[wide[0]].item()!r} span more than the double range")
        return arrays
    stds = arrays["stds"]
    if not (arrays["means"].ndim == axes and arrays["means"].shape == stds.shape):
        raise ValueError(f"means and stds need one shape with ndim {axes}")
    if (stds <= 0.0).any():
        raise ValueError(f"nonpositive std: {stds[stds <= 0.0][0]}")
    return arrays


def forecast_fields(forecasts) -> dict[str, np.ndarray]:
    """The forecast arrays a container holds, by name: ``means`` and
    ``stds``, or ``samples``."""
    return {name: getattr(forecasts, name) for name in ("means", "stds", "samples")
            if getattr(forecasts, name) is not None}


@dataclass(frozen=True)
class Gaussian:
    """Normal predictive distribution with strictly positive spread."""

    mean: float
    std: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.std) and self.std > 0.0):
            forecast_arrays(0, self.mean, self.std)  # raises the broken rule's message


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
        arr = np.sort(forecast_arrays(0, samples=self.samples)["samples"])
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)


PredictiveDist = Gaussian | Empirical


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
        arrays = forecast_arrays(1, self.means, self.stds, self.samples)
        if self.samples is not None:
            arrays["samples"] = np.sort(arrays["samples"], axis=-1)
            arrays["samples"].flags.writeable = False
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(next(iter(forecast_fields(self).values())))

    def __getitem__(self, rows) -> ForecastColumns:
        """The forecasts at ``rows``, a slice or an array of row indices."""
        if not isinstance(rows, slice) and np.ndim(rows) == 0:
            raise TypeError("rows must be a slice or an array of row indices")
        return _checked_columns(**{name: arr[rows] for name, arr in forecast_fields(self).items()})

    def cdf(self, y, strict: bool = False) -> np.ndarray:
        """Each forecast's CDF at its own outcome: ``y`` has one entry per row.

        Ensembles follow the interpolated plotting-position convention:
        piecewise linear through (x_(j), (j - 0.5)/k), 0 below the smallest
        member and 1 above the largest. With ``strict`` an ensemble gives
        P(X < y): members equal to y count as above it, so y at a member
        takes the first equal member's position, and 0 at the smallest.
        """
        y = np.asarray(y, dtype=np.float64)
        if self.samples is None:
            with np.errstate(over="ignore"):  # a z of +-inf is a PIT of 1 or 0
                return std_normal_cdf((y - self.means) / self.stds)
        xs = self.samples
        k = xs.shape[1]
        rows = np.arange(len(xs))
        below = np.count_nonzero(xs < y[:, None] if strict else xs <= y[:, None], axis=1)
        lo = xs[rows, np.maximum(below - 1, 0)]
        hi = xs[rows, np.minimum(below, k - 1)]
        p_lo = (below - 0.5) / k
        p_hi = (below + 0.5) / k
        member = hi == y if strict else lo == y
        between = (below > 0) & (below < k) & ~member
        frac = np.where(between, y - lo, 0.0) / np.where(between, hi - lo, 1.0)
        out = np.where(member, p_hi if strict else p_lo, p_lo + frac * (p_hi - p_lo))
        out[below == 0] = 0.0
        out[(below == k) & ~member] = 1.0
        return out

    def quantiles(self, p, index=0) -> np.ndarray:
        """Quantile of every forecast at the levels of its row of ``p``.

        ``p`` is one row of levels, or a table of rows (maps x levels) in
        which forecast i reads row ``index[i]``; a scalar ``index`` is the
        row every forecast reads. The normal quantile and the ensemble's
        plotting-position lookup run once per table entry.

        Ensembles interpolate linearly through (x_(j), (j - 0.5)/k), with the
        arithmetic of ``np.interp``, and clamp to the extreme members outside
        that range; every row shares the k plotting positions.
        """
        p = np.atleast_2d(np.asarray(p, dtype=np.float64))
        if self.samples is None:
            return self.means[:, None] + self.stds[:, None] * std_normal_quantile(p)[index]
        xs = self.samples
        first, offset, width = (a[index] for a in _plotting_lookup(p, xs.shape[1]))
        rows = np.arange(len(xs))[:, None]
        inside = offset != 0.0
        lo, hi = xs[rows, first], xs[rows, first + inside]
        return np.where(inside, (hi - lo) / width * offset + lo, lo)

    def variance(self) -> np.ndarray:
        """Each forecast's variance: std**2, or the population variance of
        its members (two-pass, so a common shift leaves it unchanged)."""
        if self.samples is None:
            return self.stds * self.stds
        dev = self.samples - self.samples.mean(axis=1, keepdims=True)
        return (dev * dev).mean(axis=1)

    def level_variance(self, p, index=0) -> np.ndarray:
        """Each forecast's variance of its quantiles over the levels of its
        row of ``p`` (rows and ``index`` as in `quantiles`).

        Gaussian: s**2 Var(z(p)), one Var(z) per row. An ensemble's
        quantiles at L levels are x A^T, x its sorted members and A an L x k
        matrix with at most two adjacent nonzero weights per level, so their
        variance is the form x M x^T, M = A^T A / L - abar^T abar (abar: A's
        column means). At y = x - x.abar it is y (A^T A / L) y^T, and A^T A
        is tridiagonal: each row keeps its diagonals and abar, and no n x L
        quantiles are formed. Centring the members first keeps a common
        shift from changing the result.
        """
        p = np.atleast_2d(np.asarray(p, dtype=np.float64))
        if self.samples is None:
            return self.stds * self.stds * np.var(std_normal_quantile(p), axis=1)[index]
        n_rows, n_levels = p.shape
        k = self.samples.shape[1]
        first, offset, width = _plotting_lookup(p, k)
        upper = offset / width
        lower = 1.0 - upper  # weight of member `first`; `upper` is that of first + 1
        first = first + (k + 1) * np.arange(n_rows)[:, None]

        def level_mean(weights, shift):
            """Mean over each row's levels of the weight on every member."""
            sums = np.bincount((first + shift).ravel(), weights.ravel(), n_rows * (k + 1))
            return sums.reshape(n_rows, k + 1)[:, :k] / n_levels

        abar = level_mean(lower, 0) + level_mean(upper, 1)
        diag = level_mean(lower * lower, 0) + level_mean(upper * upper, 1)
        off = level_mean(lower * upper, 0)[:, :-1]
        xc = self.samples - self.samples.mean(axis=1, keepdims=True)
        y = xc - np.sum(abar[index] * xc, axis=1, keepdims=True)
        return np.sum(diag[index] * y * y, axis=1) + 2.0 * np.sum(off[index] * y[:, :-1] * y[:, 1:], axis=1)


def _plotting_lookup(p: np.ndarray, k: int):
    """Where each level of ``p`` falls among the plotting positions
    (j - 0.5)/k, j = 1..k+1, the last one giving member k a segment too:
    the member ``first`` at or below it (the extreme member outside the
    positions), its ``offset`` into that member's segment (0 unless it
    lies strictly inside one, between two members) and the segment's
    ``width``."""
    positions = (np.arange(k + 1) + 0.5) / k
    j = np.searchsorted(positions[:k], p, side="right") - 1
    first = np.maximum(j, 0)
    offset = np.where((j >= 0) & (j < k - 1), p - positions[first], 0.0)
    return first, offset, positions[first + 1] - positions[first]


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


def per_kind(forecasts, kernel, *per_forecast) -> np.ndarray:
    """``kernel(columns, *arrays)`` of at least one forecast, one value (or
    row) per forecast in input order. ``per_forecast`` holds arrays with
    one entry per forecast; each kernel call gets the entries of its rows.

    A `ForecastColumns` is one kernel call. A sequence of distributions is
    one call per kind: its Gaussians, and its ensembles of each size.
    """
    if isinstance(forecasts, ForecastColumns):
        return kernel(forecasts, *per_forecast)
    groups: dict[int, list[int]] = {}
    for i, d in enumerate(forecasts):
        groups.setdefault(0 if isinstance(d, Gaussian) else d.samples.size, []).append(i)
    parts = []
    for size, positions in groups.items():
        dists = [forecasts[i] for i in positions]
        cols = (_checked_columns(samples=np.stack([d.samples for d in dists])) if size else
                _checked_columns(means=np.array([d.mean for d in dists]),
                                 stds=np.array([d.std for d in dists])))
        parts.append(kernel(cols, *(arr[positions] for arr in per_forecast)))
    return np.concatenate(parts)[np.argsort(np.concatenate(list(groups.values())))]


def paired_outcomes(forecasts, observations, missing_ok: bool) -> np.ndarray:
    """The outcomes of ``forecasts`` as a 1-d float64 array: one per
    forecast, at least one, none infinite. NaN is a missing outcome and
    passes only with ``missing_ok``. This is the one check of outcomes."""
    obs = np.asarray(observations, dtype=np.float64)
    if obs.ndim != 1:
        raise ValueError(f"observations need ndim 1, got {obs.ndim}")
    if obs.size != len(forecasts):
        raise ValueError(f"{len(forecasts)} forecasts for {obs.size} observations")
    if obs.size == 0:
        raise ValueError("no forecast/observation pairs")
    if np.isinf(obs).any():
        raise ValueError("invalid input value: infinite observation")
    if not missing_ok and np.isnan(obs).any():
        raise ValueError("invalid input value: NaN observation")
    return obs


def cdf(d: PredictiveDist, y: float) -> float:
    """Probability the outcome does not exceed ``y`` under forecast ``d``."""
    y = paired_outcomes([d], [y], missing_ok=False)
    return float(per_kind([d], ForecastColumns.cdf, y)[0])


def quantile(d: PredictiveDist, p: float) -> float:
    """Smallest value whose forecast CDF reaches level ``p``, 0 < p < 1."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"quantile level out of range: {p}")
    return float(per_kind([d], lambda cols: cols.quantiles([p]))[0, 0])


def variance(d: PredictiveDist) -> float:
    """Variance of the forecast: std**2, or population variance of samples."""
    return float(per_kind([d], ForecastColumns.variance)[0])


def from_samples(samples, fit_gaussian: bool = False) -> PredictiveDist:
    """Build a predictive distribution from at least two forecast samples.

    By default returns an `Empirical` over the sorted samples. With
    ``fit_gaussian`` a `Gaussian` is fitted instead (mean and standard
    deviation with the n-1 divisor); constant samples are rejected in that
    case because the spread would degenerate to zero.
    """
    ensemble = Empirical(samples)
    if ensemble.samples.size < 2:
        raise ValueError("invalid input value: need at least 2 samples")
    if not fit_gaussian:
        return ensemble
    arr = np.asarray(samples, dtype=np.float64)
    return Gaussian(float(np.mean(arr)), float(np.std(arr, ddof=1)))
