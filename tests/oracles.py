"""Independent oracles used to compute expected values.

Nothing here imports the package under test: normal functions come from
mpmath's arbitrary-precision series, and the isotonic oracles solve the
monotone least-squares problem by explicit enumeration (exact) or by
dynamic programming over a value grid (approximate), neither of which
shares anything with a pool-adjacent-violators implementation. The
writer oracles spell files the plain way: the whole model document as one
dict for the json module, and one %-formatted record per grid point.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, product

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


def knot_table(maps):
    """The knot table of ``maps`` (each with ``breakpoints`` and ``values``),
    as ``CalibratedForecaster`` takes it after its scope: breakpoints and
    values concatenated, and each map's start."""
    sizes = [m.breakpoints.size for m in maps]
    return (np.concatenate([m.breakpoints for m in maps]), np.concatenate([m.values for m in maps]),
            np.cumsum([0] + sizes[:-1]))


def inverse_maps_complex(table, rows, p) -> np.ndarray:
    """The generalized inverses of the maps ``rows`` of a knot table at the
    levels ``p`` (len(rows) x len(p)), located by one complex ``searchsorted``:
    a knot is keyed by (map index) + 1j * value, which numpy orders
    lexicographically, so each level is located within its own map only.
    The reference for `isotonic.inverse_maps`, whose counting search must
    find the same knots; the arithmetic after the search is the same."""
    p_arr = np.atleast_1d(np.asarray(p, dtype=np.float64))
    vals, bp, starts = table.values, table.breakpoints, np.asarray(table.starts)
    ends = np.r_[starts[1:], vals.size]
    keys = np.repeat(np.arange(starts.size), ends - starts) + 1j * vals
    ids = np.asarray(rows, dtype=np.intp)
    g = np.searchsorted(keys, ids[:, None] + 1j * p_arr[None, :], side="left")
    j = g - starts[ids, None]
    out = np.where(j == 0, 0.0, 1.0)
    r, c = np.nonzero((j > 0) & (g < ends[ids, None]))
    gi = g[r, c]
    v_lo, b_lo, b_hi = vals[gi - 1], bp[gi - 1], bp[gi]
    frac = (p_arr[c] - v_lo) / (vals[gi] - v_lo)
    linear = b_lo + frac * (b_hi - b_lo)
    short = (linear - b_lo) / (b_hi - b_lo) < frac  # rounded short of the crossing
    linear[short] = np.nextafter(linear[short], b_hi[short])
    out[r, c] = linear
    return out


def model_doc(cf) -> dict:
    """The model JSON document of a fitted ``CalibratedForecaster``, as the
    dict whose ``json.dumps`` is its model file."""
    bp, vals = cf.breakpoints.tolist(), cf.values.tolist()
    bounds = cf.starts.tolist() + [len(bp)]
    return {"version": 1, "scope": cf.scope, "h": int(cf.h), "w": int(cf.w),
            "interpolation": "linear",
            "maps": [{"breakpoints": bp[i:j], "values": vals[i:j]}
                     for i, j in zip(bounds, bounds[1:])]}


def grid_text(header: str, times, *fields) -> str:
    """A grid CSV's text: the header, then one record per grid point in
    time, row, col (, sample_idx) order, keys as %d and values as %r with
    a missing value written NaN."""
    keys = product(times, *map(range, fields[0].shape[1:]))
    values = zip(*(field.ravel().tolist() for field in fields))
    record = ",".join(["%d"] * fields[0].ndim + ["%r"] * len(fields)) + "\n"
    body = "".join([record % (key + value) for key, value in zip(keys, values)])
    return header + "\n" + body.replace("nan", "NaN")


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
