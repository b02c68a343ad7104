"""Monotone regression on the unit square via Pool-Adjacent-Violators.

`fit_isotonic` solves the weighted least-squares problem

    minimize  sum_i w_i * (g(x_i) - y_i)**2   over nondecreasing g

for points (x_i, y_i) in [0, 1]^2. The fitted map is represented by its
values at the distinct x positions and can be queried as a step function
(right-continuous, the classic form) or with linear interpolation between
knots (the default, which yields a continuous recalibration map). The
generalized inverse resolves flat stretches to their left endpoint.
Many maps share one knot table (`check_knots`), which `evaluate_map` and
`inverse_maps` read as it is; an `IsotonicMap` is the table of one map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["IsotonicMap", "check_knots", "evaluate_map", "fit_isotonic", "inverse_maps"]

INTERPOLATION_MODES = ("linear", "step")

# Map-level pairs `inverse_maps` searches at once.
_BLOCK = 1 << 14


def check_knots(breakpoints, values, starts, interpolation: str):
    """Validate a knot table: every map's knots concatenated, map-major,
    map i's from index ``starts[i]`` on. Each map needs a knot, strictly
    increasing breakpoints and nondecreasing values, all finite and in
    [0, 1]; order is tested within each map only. A knot error of a table
    of several maps names the first bad one (``model map i: ...``).
    Returns the three arrays as read-only copies."""
    bp, vals, starts = (np.array(breakpoints, dtype=np.float64), np.array(values, dtype=np.float64),
                        np.array(starts))
    if bp.ndim != 1 or bp.size == 0 or bp.shape != vals.shape:
        raise ValueError("breakpoints and values must be nonempty 1-d arrays of equal length")
    if (starts.ndim != 1 or starts.dtype.kind not in "iu" or starts[:1].tolist() != [0]
            or np.any(np.diff(np.r_[starts, bp.size]) < 1)):
        raise ValueError("knot table starts must rise from 0, each map holding at least one knot")
    if interpolation not in INTERPOLATION_MODES:
        raise ValueError(f"unknown interpolation mode: {interpolation!r}")
    inner = ~np.isin(np.arange(1, bp.size), starts)  # differences within one map
    # In this order, so that no difference is taken of a non-finite or huge knot.
    for rule, bad in (
        ("non-finite knot in calibration map", lambda: ~(np.isfinite(bp) & np.isfinite(vals))),
        ("calibration point out of unit square", lambda: (bp < 0) | (bp > 1) | (vals < 0) | (vals > 1)),
        ("breakpoints must be strictly increasing", lambda: inner & (np.diff(bp) <= 0.0)),
        ("values must be nondecreasing", lambda: inner & (np.diff(vals) < 0.0)),
    ):
        if (flags := bad()).any():  # per knot, or per difference to the next knot
            i = np.searchsorted(starts, np.argmax(flags), side="right") - 1
            raise ValueError(f"model map {i}: {rule}" if starts.size > 1 else rule)
    bp.flags.writeable = vals.flags.writeable = starts.flags.writeable = False
    return bp, vals, starts


@dataclass(frozen=True, eq=False)
class IsotonicMap:
    """A fitted nondecreasing map [0, 1] -> [0, 1]: a knot table of one map.

    ``breakpoints`` are strictly increasing knot positions; ``values`` are
    the fitted levels at those knots, nondecreasing and inside [0, 1].
    Instances are immutable and safe for concurrent evaluation.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    interpolation: str = "linear"
    starts = (0,)  # a table of one map

    def __post_init__(self):
        bp, vals, _ = check_knots(self.breakpoints, self.values, self.starts, self.interpolation)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    def evaluate(self, q):
        """Value of the map at level ``q`` in [0, 1] (`evaluate_map`). Scalar or array."""
        out = evaluate_map(self, 0, q)
        return float(out) if np.ndim(q) == 0 else out

    def inverse(self, p):
        """Generalized inverse: inf{q in [0, 1] : evaluate(q) >= p}.

        Returns 1.0 when ``p`` exceeds the map's maximum. Flat stretches
        resolve to their left endpoint. Scalar or array.
        """
        out = inverse_maps(self, [0], p)[0]
        return float(out[0]) if np.ndim(p) == 0 else out


def inverse_maps(table, rows, p) -> np.ndarray:
    """`IsotonicMap.inverse` of the maps ``rows`` of a knot table at every
    level: len(rows) x len(p).

    ``table`` has the fields `check_knots` validates, as an `IsotonicMap`
    and a `CalibratedForecaster` do. A level's knot within its map is
    found by counting the map's values below it: the levels are sorted
    once, each knot's value is searched among them for the first level
    above it, and one `np.bincount` of (map, that level) and a `np.cumsum`
    along the levels give every map's count at every level. Maps are
    inverted in blocks of at most `_BLOCK` map-level pairs, which bounds
    the temporaries.
    """
    p_in = np.asarray(p, dtype=np.float64)
    if np.any(p_in < 0.0) or np.any(p_in > 1.0) or not np.all(np.isfinite(p_in)):
        raise ValueError(f"inversion level outside [0, 1]: {p!r}")
    p_arr = np.atleast_1d(p_in)
    vals, bp, starts = table.values, table.breakpoints, np.asarray(table.starts)
    sizes = np.diff(np.r_[starts, vals.size])
    rows = np.asarray(rows, dtype=np.intp)
    n = p_arr.size
    out = np.empty((rows.size, n))
    order = np.argsort(p_arr, kind="stable")
    levels = p_arr[order]
    per_block = max(1, _BLOCK // max(n, 1))
    for first in range(0, rows.size if n else 0, per_block):  # no levels, no blocks
        ids = rows[first:first + per_block]
        size = sizes[ids]
        ends = np.cumsum(size)  # the block's knots, map by map
        knots = np.arange(ends[-1]) + np.repeat(starts[ids] - ends + size, size)
        above = np.searchsorted(levels, vals[knots], side="right")  # first level above each knot
        bins = np.repeat(np.arange(ids.size) * (n + 1), size) + above
        counts = np.bincount(bins, minlength=ids.size * (n + 1)).reshape(ids.size, n + 1)
        j = np.cumsum(counts[:, :n], axis=1)  # each map's values below each level
        inside = (j > 0) & (j < size[:, None])
        g = np.where(inside, starts[ids, None] + j, 0)  # the knot at or above the level
        b_hi = bp[g]
        if table.interpolation == "step":
            block = b_hi
        else:
            v_lo, b_lo = vals[g - 1], bp[g - 1]
            frac = (levels - v_lo) / np.where(inside, vals[g] - v_lo, 1.0)
            linear = b_lo + frac * (b_hi - b_lo)
            # Rounding can leave the point short of the level's fraction of the
            # segment, where the map is still under the level (on a segment a
            # few ulps wide, far under it): step once toward the right knot.
            short = (linear - b_lo) / np.where(inside, b_hi - b_lo, 1.0) < frac
            block = np.where(short, np.nextafter(linear, b_hi), linear)
        out[first:first + ids.size, order] = np.where(inside, block, np.where(j == 0, 0.0, 1.0))
    return out


def evaluate_map(table, row: int, q) -> np.ndarray:
    """`IsotonicMap.evaluate` of the map ``row`` of a knot table at every
    level of ``q``, in q's shape. A step map takes the last knot's value at
    or below q; a linear map takes v_lo + frac * (v_hi - v_lo), capped at
    v_hi, on the segment that holds q. Beyond the end knots the end values hold."""
    q_in = np.asarray(q, dtype=np.float64)
    if np.any(q_in < 0.0) or np.any(q_in > 1.0) or not np.all(np.isfinite(q_in)):
        raise ValueError(f"evaluation point outside [0, 1]: {q!r}")
    knots = slice(table.starts[row], table.starts[row + 1] if row + 1 < len(table.starts) else None)
    bp, vals = table.breakpoints[knots], table.values[knots]
    j = np.searchsorted(bp, q_in, side="right") - 1  # last knot at or below q
    if table.interpolation == "step" or bp.size == 1:
        return vals[np.maximum(j, 0)]
    k = np.clip(j, 0, bp.size - 2)  # the segment that holds q, or the nearest end segment
    frac = (np.clip(q_in, bp[k], bp[k + 1]) - bp[k]) / (bp[k + 1] - bp[k])
    linear = np.minimum(vals[k] + frac * (vals[k + 1] - vals[k]), vals[k + 1])
    return np.where(j < bp.size - 1, linear, vals[-1])


def _merge_ties(x: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Collapse equal x positions to their weighted mean y (summed weight).

    The mean is kept inside its group's range, so equal ys merge to
    themselves exactly instead of rounding an ulp away.
    """
    starts = np.r_[True, x[1:] != x[:-1]]
    idx = np.flatnonzero(starts)
    w_merged = np.add.reduceat(w, idx)
    y_merged = np.add.reduceat(w * y, idx) / w_merged
    y_merged = np.clip(y_merged, np.minimum.reduceat(y, idx), np.maximum.reduceat(y, idx))
    return x[idx], y_merged, w_merged


def fit_isotonic(xs, ys, weights=None, interpolation: str = "linear") -> IsotonicMap:
    """Weighted least-squares nondecreasing fit of ys against xs.

    Points need not be sorted; exact ties in x are merged by weighted mean
    before pooling so the resulting knots are strictly increasing. Runs in
    O(n log n) from the sort, with linear-time pooling.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.ndim != 1 or x.size == 0 or x.shape != y.shape:
        raise ValueError("xs and ys must be nonempty 1-d sequences of equal length")
    if weights is None:
        w = np.ones_like(x)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != x.shape:
            raise ValueError("weights must match xs in length")
        if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be positive and finite")
    if (np.any(x < 0.0) or np.any(x > 1.0) or np.any(y < 0.0) or np.any(y > 1.0)
            or not (np.all(np.isfinite(x)) and np.all(np.isfinite(y)))):
        raise ValueError("calibration point out of unit square")

    order = np.argsort(x, kind="stable")
    x, y, w = _merge_ties(x[order], y[order], w[order])

    # Pool adjacent violators: maintain a stack of blocks (value, weight,
    # count); merging two blocks replaces them by their weighted mean.
    vals: list[float] = []
    wts: list[float] = []
    counts: list[int] = []
    for yi, wi in zip(y, w):
        vals.append(float(yi))
        wts.append(float(wi))
        counts.append(1)
        while len(vals) > 1 and vals[-2] > vals[-1]:
            v = (vals[-2] * wts[-2] + vals[-1] * wts[-1]) / (wts[-2] + wts[-1])
            wts[-2] += wts[-1]
            counts[-2] += counts[-1]
            vals[-2] = v
            del vals[-1], wts[-1], counts[-1]

    fitted = np.repeat(np.asarray(vals, dtype=np.float64), counts)
    fitted = np.clip(fitted, 0.0, 1.0)
    return IsotonicMap(x, fitted, interpolation)
