"""Forecast verification: coverage, reliability, calibration error,
sharpness and median absolute error.

Every function here is pure, takes forecasts as a `ForecastColumns` or a
flat sequence of predictive distributions, and accepts an optional
calibrator. Under per-cell scope a ``cell`` selects the maps: one
(row, col) pair for every forecast, or a pair of per-forecast arrays of
rows and columns (as `grid_points` returns them). The inverses of all
maps turn the nominal levels into one table of raw levels, maps x
levels, and each forecast reads its map's row of it; a pooled map, or
no calibrator, is the one-row table every forecast shares. Reductions
run in fixed input order so repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .isotonic import inverse_maps
from .predictive import ForecastColumns, PredictiveDist, columns_by_kind, level_blocks
# perfbench/tracing.py counts calls made through these names of this module.
from .predictive import quantile, variance  # noqa: F401
from .recalibration import SATURATION_LEVEL_HI, SATURATION_LEVEL_LO, CalibratedForecaster

__all__ = [
    "ReliabilityCurve",
    "coverage",
    "interval_coverage",
    "reliability_curve",
    "calibration_error",
    "sharpness",
    "mae_mid_quantile",
    "write_reliability_csv",
]

CE_VARIANTS = ("signed", "absolute", "squared")

SHARPNESS_GRID = 512
_SHARPNESS_LEVELS = (np.arange(SHARPNESS_GRID) + 0.5) / SHARPNESS_GRID
MAX_SATURATED_FRACTION = 0.05


@dataclass(frozen=True, eq=False)
class ReliabilityCurve:
    """Nominal confidence levels with their observed frequencies."""

    levels: np.ndarray
    empirical: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        levels = np.asarray(self.levels, dtype=np.float64)
        empirical = np.asarray(self.empirical, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if levels.ndim != 1 or levels.size == 0:
            raise ValueError("levels must be a nonempty 1-d sequence")
        if empirical.shape != levels.shape or weights.shape != levels.shape:
            raise ValueError("levels, empirical and weights must have equal length")
        if np.any(levels < 0.0) or np.any(levels > 1.0):
            raise ValueError("levels must lie in [0, 1]")
        if levels.size > 1 and np.any(np.diff(levels) <= 0.0):
            raise ValueError("levels must be strictly increasing")
        if np.any(weights < 0.0):
            raise ValueError("weights must be nonnegative")
        for name, arr in (("levels", levels), ("empirical", empirical), ("weights", weights)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def coverage(quantile_bounds: Sequence[float], observations: Sequence[float]) -> float:
    """Fraction of observations at or below their forecast upper bound."""
    bounds = np.asarray(quantile_bounds, dtype=np.float64)
    obs = np.asarray(observations, dtype=np.float64)
    if bounds.size == 0:
        raise ValueError("coverage of an empty set is undefined")
    if bounds.shape != obs.shape:
        raise ValueError(f"{bounds.size} bounds for {obs.size} observations")
    return float(np.count_nonzero(obs <= bounds)) / bounds.size


def interval_coverage(lows, highs, observations) -> float:
    """Fraction of observations falling inside their [low, high] interval."""
    lo = np.asarray(lows, dtype=np.float64)
    hi = np.asarray(highs, dtype=np.float64)
    obs = np.asarray(observations, dtype=np.float64)
    if lo.size == 0 or lo.shape != obs.shape or hi.shape != obs.shape:
        raise ValueError("interval coverage needs equal-length nonempty inputs")
    return float(np.count_nonzero((obs >= lo) & (obs <= hi))) / obs.size


def _raw_levels(calibrator, cell, levels: np.ndarray, n: int):
    """Raw levels that the calibrated ``levels`` map back to, maps x levels
    and clamped near 0 and 1; the row each of the ``n`` forecasts reads (a
    scalar when all read one); and which entries saturate (exactly 0 or 1)."""
    if calibrator is None:
        return levels[None, :], 0, np.zeros((1, levels.size), dtype=bool)
    index = calibrator._map_index(cell)
    if np.ndim(index) and np.shape(index) != (n,):
        raise ValueError(f"{np.size(index)} cells for {n} forecasts")
    raw = inverse_maps(calibrator.maps, levels)
    saturated = (raw == 0.0) | (raw == 1.0)
    raw = np.where(raw == 0.0, SATURATION_LEVEL_LO, raw)
    return np.where(raw == 1.0, SATURATION_LEVEL_HI, raw), index, saturated


def _of_rows(index, rows):
    """The table rows that the forecasts at ``rows`` read."""
    return index[rows] if np.ndim(index) else index


def reliability_curve(
    forecasts: Sequence[PredictiveDist] | ForecastColumns,
    observations: Sequence[float],
    levels: Sequence[float],
    calibrator: CalibratedForecaster | None = None,
    cell=None,
) -> ReliabilityCurve:
    """Observed frequency of staying below the (calibrated) upper bound
    at each nominal level. Weights are all 1.
    """
    levels_arr = np.asarray(levels, dtype=np.float64)
    if levels_arr.ndim != 1 or levels_arr.size == 0:
        raise ValueError("levels must be a nonempty 1-d sequence")
    if np.any(levels_arr <= 0.0) or np.any(levels_arr >= 1.0):
        raise ValueError("levels must lie strictly inside (0, 1)")
    if levels_arr.size > 1 and np.any(np.diff(levels_arr) <= 0.0):
        raise ValueError("levels must be strictly increasing")
    obs = np.asarray(observations, dtype=np.float64)
    if len(forecasts) == 0:
        raise ValueError("coverage of an empty set is undefined")
    if len(forecasts) != obs.size:
        raise ValueError(f"{len(forecasts)} forecasts for {obs.size} observations")
    raw, index, _ = _raw_levels(calibrator, cell, levels_arr, obs.size)
    covered = np.zeros(levels_arr.size, dtype=np.int64)
    for rows, cols in columns_by_kind(forecasts):
        obs_rows = obs[rows][:, None]
        for block in level_blocks(len(cols), levels_arr.size):
            quantiles = cols.quantiles(raw[:, block], _of_rows(index, rows))
            covered[block] += np.count_nonzero(obs_rows <= quantiles, axis=0)
    return ReliabilityCurve(levels_arr, covered / obs.size, np.ones_like(levels_arr))


def calibration_error(curve: ReliabilityCurve, variant: str = "absolute") -> float:
    """Weighted mean deviation between nominal and observed levels.

    ``signed`` keeps the raw differences (miscalibration directions can
    cancel), ``absolute`` takes magnitudes and ``squared`` squares them;
    all three divide by the number of levels.
    """
    if variant not in CE_VARIANTS:
        raise ValueError(f"unknown calibration error variant: {variant!r}")
    dev = curve.levels - curve.empirical
    if variant == "absolute":
        dev = np.abs(dev)
    elif variant == "squared":
        dev = dev * dev
    return float(np.sum(curve.weights * dev) / curve.levels.size)


def sharpness(
    forecasts: Sequence[PredictiveDist] | ForecastColumns,
    calibrator: CalibratedForecaster | None = None,
    cell=None,
) -> float:
    """Mean forecast variance, after recalibration when a map is given.

    The recalibrated variance is taken over the quantiles at the 512
    midpoint levels (i - 0.5)/512, making results reproducible bit for
    bit; for Gaussian forecasts it has the closed form s**2 Var(z) over
    those levels. Exactly saturated levels are clamped near the boundary;
    if more than 5% of the grid saturates, a map is too flat for a
    meaningful spread, and an error names the first such map (its cell,
    in row-major order) that some forecast reads.
    """
    if len(forecasts) == 0:
        raise ValueError("sharpness of an empty forecast set is undefined")
    raw, index, saturated = _raw_levels(calibrator, cell, _SHARPNESS_LEVELS, len(forecasts))
    read = np.zeros(len(raw), dtype=bool)
    read[index] = True
    degenerate = np.flatnonzero(read & (np.mean(saturated, axis=1) > MAX_SATURATED_FRACTION))
    if degenerate.size:
        where = (" in cell ({}, {})".format(*divmod(int(degenerate[0]), calibrator.w))
                 if calibrator.scope == "per_cell" else "")
        raise ValueError(f"calibrator too degenerate for sharpness{where}")
    spread = np.empty(len(forecasts))
    for rows, cols in columns_by_kind(forecasts):
        spread[rows] = (cols.variance() if calibrator is None
                        else cols.level_variance(raw, _of_rows(index, rows)))
    return float(np.mean(spread))


def mae_mid_quantile(
    forecasts: Sequence[PredictiveDist] | ForecastColumns,
    observations: Sequence[float],
    calibrator: CalibratedForecaster | None = None,
    cell=None,
) -> float:
    """Mean absolute error of the (calibrated) median forecast."""
    obs = np.asarray(observations, dtype=np.float64)
    if obs.size == 0 or len(forecasts) != obs.size:
        raise ValueError(f"{len(forecasts)} forecasts for {obs.size} observations")
    raw, index, _ = _raw_levels(calibrator, cell, np.array([0.5]), obs.size)
    medians = np.empty(obs.size)
    for rows, cols in columns_by_kind(forecasts):
        medians[rows] = cols.quantiles(raw, _of_rows(index, rows))[:, 0]
    return float(np.mean(np.abs(obs - medians)))


def write_reliability_csv(curve: ReliabilityCurve, path) -> None:
    """Write ``level,empirical,weight`` rows with 9 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("level,empirical,weight\n")
        for p, e, w in zip(curve.levels, curve.empirical, curve.weights):
            fh.write(f"{p:.9g},{e:.9g},{w:.9g}\n")
