"""Forecast verification: coverage, reliability, calibration error,
sharpness and median absolute error.

Every function here is pure, takes forecasts as a `ForecastColumns` or a
flat sequence of predictive distributions, and accepts an optional
calibrator; no calibrator is the identity model. Under per-cell scope a
``cell`` selects the maps: one (row, col) pair for every forecast, or a
pair of per-forecast arrays of rows and columns (as `grid_points` returns
them). `CalibratedForecaster.raw_levels` turns the nominal levels into
one table of raw levels, maps read x levels, and each forecast reads its
map's row of it; a pooled map is the one-row table every forecast
shares. Outcomes pass `paired_outcomes` and level grids `check_levels`.
Coverage compares each outcome's P(X < y) with its raw level and forms
no quantile. Reductions run in fixed input order so repeated runs are
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .predictive import ForecastColumns, PredictiveDist, paired_outcomes, per_kind
# perfbench/tracing.py counts calls made through these names of this module.
from .predictive import quantile, variance  # noqa: F401
from .recalibration import IDENTITY, CalibratedForecaster

__all__ = [
    "ReliabilityCurve",
    "check_levels",
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


def check_levels(levels) -> np.ndarray:
    """``levels`` as a read-only float64 array: nonempty, 1-d, strictly
    increasing and strictly inside (0, 1). This is the one check of a
    level grid."""
    arr = np.array(levels, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("levels must be a nonempty 1-d sequence")
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("levels must lie strictly inside (0, 1)")
    if np.any(np.diff(arr) <= 0.0):
        raise ValueError("levels must be strictly increasing")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ReliabilityCurve:
    """Nominal confidence levels (a `check_levels` grid) with their observed
    frequencies, each in [0, 1], and finite nonnegative weights."""

    levels: np.ndarray
    empirical: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        levels = check_levels(self.levels)
        empirical, weights = (np.array(a, dtype=np.float64) for a in (self.empirical, self.weights))
        if empirical.shape != levels.shape or weights.shape != levels.shape:
            raise ValueError("levels, empirical and weights must have equal length")
        if not np.all((empirical >= 0.0) & (empirical <= 1.0)):
            raise ValueError("empirical frequencies must lie in [0, 1]")
        if not np.all(np.isfinite(weights) & (weights >= 0.0)):
            raise ValueError("weights must be finite and nonnegative")
        for name, arr in (("levels", levels), ("empirical", empirical), ("weights", weights)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def coverage(quantile_bounds: Sequence[float], observations: Sequence[float]) -> float:
    """Fraction of observations at or below their forecast upper bound."""
    return interval_coverage(np.full(np.shape(quantile_bounds), -np.inf), quantile_bounds, observations)


def interval_coverage(lows, highs, observations) -> float:
    """Fraction of observations falling inside their [low, high] interval.
    The bounds are 1-d, one pair per outcome, and every outcome is finite
    (`paired_outcomes`)."""
    lo, hi = (np.asarray(b, dtype=np.float64) for b in (lows, highs))
    if hi.ndim != 1:
        raise ValueError(f"bounds need ndim 1, got {hi.ndim}")
    if lo.shape != hi.shape:
        raise ValueError(f"lower bounds of shape {lo.shape} for upper bounds of shape {hi.shape}")
    obs = paired_outcomes(hi, observations)
    return float(np.count_nonzero((obs >= lo) & (obs <= hi))) / obs.size


def reliability_curve(
    forecasts: Sequence[PredictiveDist] | ForecastColumns,
    observations: Sequence[float],
    levels: Sequence[float],
    calibrator: CalibratedForecaster | None = None,
    cell=None,
) -> ReliabilityCurve:
    """Observed frequency of staying below the (calibrated) upper bound
    at each nominal level. Weights are all 1.

    The quantile at raw level r covers y exactly when P(X < y) <= r, so
    each map counts its points' sorted strict CDF values at or below its
    raw levels; no quantile is formed, and in-sample coverage is exact.
    """
    levels = check_levels(levels)
    obs = paired_outcomes(forecasts, observations)
    raw, index, _, _ = (calibrator or IDENTITY).raw_levels(levels, cell, obs.size)
    below = per_kind(forecasts, lambda cols, y: cols.cdf(y, strict=True), obs)
    keys = np.sort(index + 1j * below)  # by map, then by P(X < y)
    maps = np.arange(len(raw))
    covered = (np.searchsorted(keys, maps[:, None] + 1j * raw, side="right")
               - np.searchsorted(keys.real, maps)[:, None])
    return ReliabilityCurve(levels, covered.sum(axis=0) / obs.size, np.ones_like(levels))


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
    """Mean forecast variance, read through the calibrator (by default the identity map).

    The variance is taken over the quantiles at the raw levels of the 512
    midpoint levels (i - 0.5)/512, making results reproducible bit for
    bit; for Gaussian forecasts it has the closed form s**2 Var(z) over
    those raw levels. If more than 5% of the grid saturates, a map is too
    flat for a meaningful spread, and an error names the first such map
    (its cell, in row-major order) that some forecast reads.
    """
    if len(forecasts) == 0:
        raise ValueError("sharpness of an empty forecast set is undefined")
    calibrator = calibrator or IDENTITY
    raw, index, saturated, read = calibrator.raw_levels(_SHARPNESS_LEVELS, cell, len(forecasts))
    degenerate = read[np.mean(saturated, axis=1) > MAX_SATURATED_FRACTION]
    if degenerate.size:
        where = (" in cell ({}, {})".format(*divmod(int(degenerate[0]), calibrator.w))
                 if calibrator.scope == "per_cell" else "")
        raise ValueError(f"calibrator too degenerate for sharpness{where}")
    spread = per_kind(forecasts, lambda cols, rows: cols.level_variance(raw, rows), index)
    return float(np.mean(spread))


def mae_mid_quantile(
    forecasts: Sequence[PredictiveDist] | ForecastColumns,
    observations: Sequence[float],
    calibrator: CalibratedForecaster | None = None,
    cell=None,
) -> float:
    """Mean absolute error of the (calibrated) median forecast."""
    obs = paired_outcomes(forecasts, observations)
    raw, index, _, _ = (calibrator or IDENTITY).raw_levels([0.5], cell, obs.size)
    medians = per_kind(forecasts, lambda cols, rows: cols.quantiles(raw, rows)[:, 0], index)
    return float(np.mean(np.abs(obs - medians)))


def write_reliability_csv(curve: ReliabilityCurve, path) -> None:
    """Write ``level,empirical,weight`` rows with 9 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("level,empirical,weight\n")
        for p, e, w in zip(curve.levels, curve.empirical, curve.weights):
            fh.write(f"{p:.9g},{e:.9g},{w:.9g}\n")
