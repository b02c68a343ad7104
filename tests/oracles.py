"""Independent oracles used to compute expected values.

Nothing here imports the package under test: normal functions come from
mpmath's arbitrary-precision series, and the isotonic oracles solve the
monotone least-squares problem by explicit enumeration (exact) or by
dynamic programming over a value grid (approximate), neither of which
shares anything with a pool-adjacent-violators implementation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

import numpy as np
from mpmath import erfinv, log, mp, mpf, ncdf, npdf, sqrt

mp.dps = 50


def normal_cdf(x: float) -> float:
    return float(ncdf(mpf(x)))


def normal_quantile(p: float) -> float:
    """Quantile of the double ``p`` to 50 digits, in both tails too: Newton
    steps on log Phi(x) = log p, for the lower half of the levels."""
    p = mpf(p)
    if p > 0.5:
        return -normal_quantile(1 - p)  # 1 - p is exact at 50 digits
    if p == 0.5:
        return 0.0
    x = sqrt(2) * erfinv(2 * p - 1) if p > 1e-10 else -sqrt(-2 * log(p))
    target = log(p)
    for _ in range(100):
        step = (log(ncdf(x)) - target) * ncdf(x) / npdf(x)
        x -= step
        if abs(step) < mpf(10) ** -40 * abs(x):
            return float(x)
    raise ArithmeticError(f"normal quantile did not converge at p = {p}")


def dispersed_level(alpha: float, p: float) -> float:
    """CDF of F(Y) at level p when the forecast std is alpha times truth."""
    return normal_cdf(alpha * normal_quantile(p))


def isotonic_exact(ys, ws=None):
    """Exact monotone least-squares fit by enumerating block partitions.

    Every way of cutting the sequence into consecutive blocks is tried;
    blocks are fitted by their weighted means and partitions with
    decreasing means are discarded. Means and objectives are exact
    rationals, so partitions whose objectives differ below float
    resolution are still told apart. Returns (fitted values, objective)
    as floats. Exponential in n, fine for n <= ~12.
    """
    y = [Fraction(v) for v in np.asarray(ys, dtype=np.float64)]
    w = [Fraction(1)] * len(y) if ws is None else [Fraction(v) for v in np.asarray(ws, dtype=np.float64)]
    n = len(y)
    pref_w = [Fraction(0)] + list(accumulate(w))
    pref_wy = [Fraction(0)] + list(accumulate(wi * yi for wi, yi in zip(w, y)))

    best_obj = None
    best_fit = None
    for mask in range(1 << (n - 1)):
        cuts = [0] + [i + 1 for i in range(n - 1) if mask >> i & 1] + [n]
        means = [(pref_wy[b] - pref_wy[a]) / (pref_w[b] - pref_w[a])
                 for a, b in zip(cuts, cuts[1:])]
        if any(m2 < m1 for m1, m2 in zip(means, means[1:])):
            continue
        fit = [m for (a, b), m in zip(zip(cuts, cuts[1:]), means) for _ in range(b - a)]
        obj = sum(wi * (fi - yi) ** 2 for wi, fi, yi in zip(w, fit, y))
        if best_obj is None or obj < best_obj:
            best_obj = obj
            best_fit = fit
    return np.array([float(f) for f in best_fit]), float(best_obj)


def isotonic_grid_objective(ys, ws=None, step: float = 1e-3) -> float:
    """Optimal monotone least-squares objective with values on a grid.

    Dynamic program over levels 0, step, ..., 1: the best cost ending at
    or below each level is carried forward with a running minimum.
    """
    y = np.asarray(ys, dtype=np.float64)
    w = np.ones_like(y) if ws is None else np.asarray(ws, dtype=np.float64)
    levels = np.arange(0.0, 1.0 + step / 2, step)
    dp = w[0] * (levels - y[0]) ** 2
    for yi, wi in zip(y[1:], w[1:]):
        dp = np.minimum.accumulate(dp) + wi * (levels - yi) ** 2
    return float(dp.min())


def knot_table(maps, interpolation=None):
    """The knot table of ``maps`` (each with ``breakpoints``, ``values`` and
    ``interpolation``), as ``CalibratedForecaster`` takes it after its
    scope: breakpoints and values concatenated, each map's start, and the
    one interpolation mode, which is the maps' own unless given."""
    modes = {m.interpolation for m in maps} if interpolation is None else {interpolation}
    if len(modes) != 1:
        raise ValueError(f"a knot table has one interpolation mode, got {sorted(modes)}")
    sizes = [m.breakpoints.size for m in maps]
    return (np.concatenate([m.breakpoints for m in maps]), np.concatenate([m.values for m in maps]),
            np.cumsum([0] + sizes[:-1]), modes.pop())


def ks_statistic(sample) -> float:
    """Kolmogorov-Smirnov distance of a sample from Uniform(0, 1)."""
    u = np.sort(np.asarray(sample, dtype=np.float64))
    n = u.size
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - u), np.max(u - (grid - 1.0 / n))))


# Frozen high-precision constants (mpmath, 50 digits, rounded to double).
PHI_AT_1_959964 = 0.9750000009035576      # normal_cdf(1.959964)
Z_0975 = 1.9599639845400542               # normal_quantile(0.975)
Z_095 = 1.6448536269514727                # normal_quantile(0.95)
DISPERSED_A2_P08 = 0.9538359185654653     # dispersed_level(2, 0.8)
DISPERSED_A2_P09 = 0.9948129385963300     # dispersed_level(2, 0.9)
DISPERSED_A05_P09 = 0.7391658153933757    # dispersed_level(0.5, 0.9)
PHI_AT_08 = 0.7881446014166033            # normal_cdf(0.8)
SQRT_2 = 1.4142135623730951
STD_NORMAL_VAR_512_GRID = 0.9974738136912298  # population var of the 512 mid-level quantiles
