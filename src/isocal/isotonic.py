"""Monotone regression on the unit square via Pool-Adjacent-Violators.

`fit_isotonic` solves the weighted least-squares problem

    minimize  sum_i w_i * (g(x_i) - y_i)**2   over nondecreasing g

for points (x_i, y_i) in [0, 1]^2. The fitted map is represented by its
values at the distinct x positions and can be queried as a step function
(right-continuous, the classic form) or with linear interpolation between
knots (the default, which yields a continuous recalibration map). The
generalized inverse resolves flat stretches to their left endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["IsotonicMap", "fit_isotonic", "inverse_maps"]

INTERPOLATION_MODES = ("linear", "step")

# Map-level pairs `inverse_maps` searches at once.
_BLOCK = 1 << 14


@dataclass(frozen=True, eq=False)
class IsotonicMap:
    """A fitted nondecreasing map [0, 1] -> [0, 1].

    ``breakpoints`` are strictly increasing knot positions; ``values`` are
    the fitted levels at those knots, nondecreasing and inside [0, 1].
    Instances are immutable and safe for concurrent evaluation.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    interpolation: str = "linear"

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=np.float64)
        vals = np.asarray(self.values, dtype=np.float64)
        if bp.ndim != 1 or bp.size == 0 or bp.shape != vals.shape:
            raise ValueError("breakpoints and values must be nonempty 1-d arrays of equal length")
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(vals))):
            raise ValueError("non-finite knot in calibration map")
        if np.any(bp < 0.0) or np.any(bp > 1.0) or np.any(vals < 0.0) or np.any(vals > 1.0):
            raise ValueError("calibration point out of unit square")
        if bp.size > 1 and np.any(np.diff(bp) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        if vals.size > 1 and np.any(np.diff(vals) < 0.0):
            raise ValueError("values must be nondecreasing")
        if self.interpolation not in INTERPOLATION_MODES:
            raise ValueError(f"unknown interpolation mode: {self.interpolation!r}")
        bp = bp.copy()
        vals = vals.copy()
        bp.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    def evaluate(self, q):
        """Value of the map at level ``q`` in [0, 1]. Scalar or array.

        Outside the knot range the end values extend as constants, so the
        result always stays inside [0, 1].
        """
        q_arr = np.asarray(q, dtype=np.float64)
        if np.any(q_arr < 0.0) or np.any(q_arr > 1.0) or not np.all(np.isfinite(q_arr)):
            raise ValueError(f"evaluation point outside [0, 1]: {q!r}")
        if self.interpolation == "linear":
            out = np.interp(q_arr, self.breakpoints, self.values)
        else:
            idx = np.searchsorted(self.breakpoints, q_arr, side="right") - 1
            out = self.values[np.clip(idx, 0, self.values.size - 1)]
        out = np.clip(out, 0.0, 1.0)
        return float(out) if np.isscalar(q) or q_arr.ndim == 0 else out

    def inverse(self, p):
        """Generalized inverse: inf{q in [0, 1] : evaluate(q) >= p}.

        Returns 1.0 when ``p`` exceeds the map's maximum. Flat stretches
        resolve to their left endpoint. Scalar or array.
        """
        out = inverse_maps((self,), p)[0]
        return float(out[0]) if np.ndim(p) == 0 else out


def inverse_maps(maps, p) -> np.ndarray:
    """`IsotonicMap.inverse` of every map at every level: len(maps) x len(p).

    All knots are concatenated once and searched together. A knot is keyed
    by the complex number (map index) + 1j * value, which numpy orders
    lexicographically, so each level is located within its own map only.
    Maps are searched in blocks of at most `_BLOCK` map-level pairs, which
    bounds the temporaries.
    """
    p_in = np.asarray(p, dtype=np.float64)
    if np.any(p_in < 0.0) or np.any(p_in > 1.0) or not np.all(np.isfinite(p_in)):
        raise ValueError(f"inversion level outside [0, 1]: {p!r}")
    p_arr = np.atleast_1d(p_in)
    sizes = np.array([m.values.size for m in maps])
    starts = np.cumsum(sizes) - sizes
    vals = np.concatenate([m.values for m in maps])
    bp = np.concatenate([m.breakpoints for m in maps])
    keys = np.repeat(np.arange(len(maps)), sizes) + 1j * vals
    step = np.array([m.interpolation == "step" for m in maps])
    out = np.empty((len(maps), p_arr.size))
    per_block = max(1, _BLOCK // p_arr.size)
    for first in range(0, len(maps), per_block):
        ids = np.arange(first, min(first + per_block, len(maps)))
        g = np.searchsorted(keys, ids[:, None] + 1j * p_arr[None, :], side="left")
        j = g - starts[ids, None]
        block = np.where(j == 0, 0.0, 1.0)
        rows, cols = np.nonzero((j > 0) & (j < sizes[ids, None]))
        gi = g[rows, cols]
        v_lo = vals[gi - 1]
        frac = (p_arr[cols] - v_lo) / (vals[gi] - v_lo)
        linear = bp[gi - 1] + frac * (bp[gi] - bp[gi - 1])
        block[rows, cols] = np.where(step[ids][rows], bp[gi], linear)
        out[ids] = block
    return out


def _merge_ties(x: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Collapse equal x positions to their weighted mean y (summed weight)."""
    starts = np.r_[True, x[1:] != x[:-1]]
    idx = np.flatnonzero(starts)
    w_merged = np.add.reduceat(w, idx)
    y_merged = np.add.reduceat(w * y, idx) / w_merged
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
