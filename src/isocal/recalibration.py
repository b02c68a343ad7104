"""Recalibration of predictive CDFs against held-out observations.

For each held-out pair the forecast assigns a CDF value c = F(Y) to the
outcome; if the forecaster were calibrated these values would be uniform.
The calibration dataset pairs each c with the empirical fraction of CDF
values strictly below it, and a monotone map fitted to those pairs turns
raw CDF levels into empirical ones. Composing the fitted map with a
forecast CDF yields calibrated probabilities; composing its generalized
inverse with the raw quantile function yields calibrated quantiles and
central intervals.

A fitted `CalibratedForecaster` holds one pooled map or one map per grid
cell, and serializes to a single-object JSON model file::

    {"version": 1, "scope": "pooled" | "per_cell", "h": int, "w": int,
     "interpolation": "linear" | "step",
     "maps": [{"breakpoints": [...], "values": [...]}, ...]}

with per-cell maps in row-major order (pooled models carry exactly one
map and h = w = 0). Floats are written with 17 significant digits, which
round-trips doubles exactly.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .gridio import ForecastSeries, GridSeries
from .isotonic import IsotonicMap, fit_isotonic
from .predictive import ForecastColumns, PredictiveDist, cdf, columns_by_kind, quantile

__all__ = [
    "CalibrationPair",
    "CalibratedForecaster",
    "CalibratedQuantile",
    "empirical_cdf_level",
    "build_calibration_dataset",
    "grid_points",
    "fit_calibrator",
    "calibrated_cdf",
    "calibrated_quantile",
    "central_interval",
    "save_model",
    "load_model",
    "model_to_json",
]

logger = logging.getLogger(__name__)

MODEL_VERSION = 1
DEFAULT_MIN_POINTS_PER_CELL = 30

# Raw quantile levels used in place of an exactly saturated inverse (the
# requested probability fell on, or beyond, a flat end of the map).
SATURATION_LEVEL_LO = 1e-6
SATURATION_LEVEL_HI = 1.0 - 1e-6


class CalibrationPair(NamedTuple):
    c: float  # CDF value the forecast assigned to the outcome
    y: float  # empirical fraction of CDF values strictly below c


class CalibratedQuantile(NamedTuple):
    value: float
    saturated: bool


def empirical_cdf_level(cs: Sequence[float], p: float) -> float:
    """Fraction of CDF values strictly below level ``p``."""
    arr = np.asarray(cs, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("empirical CDF level needs at least one value")
    if np.any(arr < 0.0) or np.any(arr > 1.0) or not np.all(np.isfinite(arr)):
        raise ValueError("calibration point out of unit square")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"level out of range: {p}")
    return float(np.count_nonzero(arr < p)) / arr.size


def _pit_levels(forecasts, observations) -> tuple[np.ndarray, np.ndarray]:
    """Each forecast's CDF value at its outcome, and the fraction of CDF
    values strictly below it; ties share the level of their common value."""
    obs = np.asarray(observations, dtype=np.float64)
    if len(forecasts) != obs.size:
        raise ValueError(f"{len(forecasts)} forecasts for {obs.size} observations")
    if obs.size < 2:
        raise ValueError("calibration set too small: need at least 2 points")
    if not np.all(np.isfinite(obs)):
        raise ValueError("invalid input value: non-finite observation")
    c = np.empty(obs.size)
    for rows, cols in columns_by_kind(forecasts):
        c[rows] = cols.cdf(obs[rows])
    # Strictly-below counts for all points at once via the sorted copy.
    return c, np.searchsorted(np.sort(c), c, side="left") / c.size


def build_calibration_dataset(
    forecasts: Sequence[PredictiveDist] | ForecastColumns, observations: Sequence[float]
) -> list[CalibrationPair]:
    """Pair each forecast's CDF value at the outcome with its empirical level.

    Output order matches input order. Ties among CDF values count strictly,
    so tied points share the empirical level of their common value.
    """
    c, y = _pit_levels(forecasts, observations)
    return [CalibrationPair(float(ci), float(yi)) for ci, yi in zip(c, y)]


@dataclass(frozen=True)
class CalibratedForecaster:
    """A fitted recalibration map, pooled or one per grid cell."""

    scope: str  # 'pooled' | 'per_cell'
    maps: tuple[IsotonicMap, ...]
    h: int = 0
    w: int = 0

    def __post_init__(self):
        if self.scope not in ("pooled", "per_cell"):
            raise ValueError(f"unknown scope: {self.scope!r}")
        if self.scope == "pooled":
            if len(self.maps) != 1:
                raise ValueError("pooled scope carries exactly one map")
            if self.h != 0 or self.w != 0:
                raise ValueError(f"pooled scope carries h = w = 0, got {self.h}x{self.w}")
        else:
            if self.h < 1 or self.w < 1:
                raise ValueError("per_cell scope needs positive grid dims")
            if len(self.maps) != self.h * self.w:
                raise ValueError(f"per_cell scope needs {self.h * self.w} maps, got {len(self.maps)}")

    @property
    def interpolation(self) -> str:
        return self.maps[0].interpolation

    def _map_index(self, cell):
        """Position in `maps` of the map governing ``cell``: one (row, col)
        pair, or per-forecast arrays of rows and columns, which give one
        position per forecast. Pooled scope gives 0 for any cell."""
        if self.scope == "pooled":
            return 0
        if cell is None:
            raise ValueError("per_cell calibrator requires a cell")
        r, c = np.broadcast_arrays(*cell)
        outside = (r < 0) | (r >= self.h) | (c < 0) | (c >= self.w)
        if outside.any():
            i = np.argmax(outside)
            raise ValueError(f"cell out of range: ({r.flat[i]}, {c.flat[i]}) for {self.h}x{self.w} grid")
        return r * self.w + c

    def map_for(self, cell: tuple[int, int] | None) -> IsotonicMap:
        """The map governing ``cell`` (ignored under pooled scope)."""
        return self.maps[self._map_index(cell)]


def grid_points(
    forecasts: ForecastSeries, observations: GridSeries
) -> tuple[ForecastColumns, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Align a forecast grid with an observation grid: the forecast columns,
    observations and cell (a pair of arrays: each point's grid row and
    column, as the metrics take ``cell``) of every point with an observation.

    Points come cell by cell in row-major order, so each cell's points are
    contiguous, and in time order within a cell. Raises on any dimension
    or time-axis mismatch.
    """
    if (forecasts.h, forecasts.w) != (observations.h, observations.w):
        raise ValueError(f"grid dimension mismatch: forecasts {forecasts.h}x{forecasts.w}, "
                         f"observations {observations.h}x{observations.w}")
    if forecasts.times != observations.times:
        raise ValueError("forecast and observation time axes differ")
    valid = np.moveaxis(observations.mask, 0, -1)  # H x W x T, cell-major
    if forecasts.kind == "gaussian":
        cols = ForecastColumns(means=np.moveaxis(forecasts.means, 0, -1)[valid],
                               stds=np.moveaxis(forecasts.stds, 0, -1)[valid])
    else:
        cols = ForecastColumns(samples=np.moveaxis(forecasts.samples, 0, 2)[valid])
    rows, col_index, _ = np.nonzero(valid)
    return cols, np.moveaxis(observations.values, 0, -1)[valid], (rows, col_index)


def _fit_map(forecasts, observations, interpolation: str) -> IsotonicMap:
    c, y = _pit_levels(forecasts, observations)
    return fit_isotonic(c, y, interpolation=interpolation)


def fit_calibrator(
    forecasts,
    observations,
    scope: str = "pooled",
    interpolation: str = "linear",
    min_points_per_cell: int = DEFAULT_MIN_POINTS_PER_CELL,
) -> CalibratedForecaster:
    """Fit the recalibration map(s) on held-out forecast/observation pairs.

    Inputs are flat sequences, or a `ForecastSeries` with a `GridSeries`.
    Pooled scope concatenates every grid cell into one dataset; per-cell
    scope fits one map per cell and requires gridded inputs with at least
    ``min_points_per_cell`` valid time steps in each cell. The data used
    here must stay disjoint from whatever the calibrated forecaster is
    later evaluated on.
    """
    gridded = isinstance(forecasts, ForecastSeries)
    if gridded != isinstance(observations, GridSeries):
        raise ValueError("forecasts and observations must both be flat or both gridded")
    if scope not in ("pooled", "per_cell"):
        raise ValueError(f"unknown scope: {scope!r}")

    if not gridded:
        if scope == "per_cell":
            raise ValueError("per_cell scope requires gridded inputs")
        if not isinstance(forecasts, ForecastColumns):
            forecasts = list(forecasts)
        return CalibratedForecaster("pooled", (_fit_map(forecasts, observations, interpolation),))

    cols, obs, _ = grid_points(forecasts, observations)
    counts = observations.mask.sum(axis=0).ravel()  # valid time steps per cell, row-major
    n_incomplete = np.count_nonzero(counts < len(observations.times))
    if n_incomplete:
        logger.info("%d of %d cells have missing observations excluded from fitting",
                    n_incomplete, counts.size)
    if scope == "pooled":
        return CalibratedForecaster("pooled", (_fit_map(cols, obs, interpolation),))

    short = np.flatnonzero(counts < min_points_per_cell)
    if short.size:
        r, c = divmod(int(short[0]), observations.w)
        raise ValueError(f"cell ({r}, {c}) has {counts[short[0]]} calibration "
                         f"points, need at least {min_points_per_cell}")
    ends = np.cumsum(counts).tolist()
    maps = tuple(_fit_map(cols[start:end], obs[start:end], interpolation)
                 for start, end in zip([0] + ends, ends))
    return CalibratedForecaster("per_cell", maps, h=observations.h, w=observations.w)


def calibrated_cdf(cf: CalibratedForecaster, d: PredictiveDist, y: float,
                   cell: tuple[int, int] | None = None) -> float:
    """Calibrated probability that the outcome does not exceed ``y``."""
    return cf.map_for(cell).evaluate(cdf(d, y))


def calibrated_quantile(cf: CalibratedForecaster, d: PredictiveDist, p: float,
                        cell: tuple[int, int] | None = None) -> CalibratedQuantile:
    """Raw quantile at the level whose calibrated CDF equals ``p``.

    When the map's inverse saturates (exactly 0 or 1, i.e. ``p`` falls
    outside the map's range), the level is clamped near the boundary and
    the result is flagged rather than raising, so batch evaluation stays
    total.
    """
    if not (0.0 < p < 1.0):
        raise ValueError(f"quantile level out of range: {p}")
    raw = cf.map_for(cell).inverse(p)
    saturated = raw == 0.0 or raw == 1.0
    if saturated:
        raw = SATURATION_LEVEL_LO if raw == 0.0 else SATURATION_LEVEL_HI
    return CalibratedQuantile(quantile(d, raw), saturated)


def central_interval(cf: CalibratedForecaster, d: PredictiveDist, level: float,
                     cell: tuple[int, int] | None = None) -> tuple[float, float]:
    """Equal-tailed calibrated interval covering ``level`` probability."""
    if not (0.0 < level < 1.0):
        raise ValueError(f"interval level out of range: {level}")
    lo = calibrated_quantile(cf, d, (1.0 - level) / 2.0, cell)
    hi = calibrated_quantile(cf, d, (1.0 + level) / 2.0, cell)
    return lo.value, hi.value


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def model_to_json(cf: CalibratedForecaster) -> str:
    """Serialize to the model JSON document (17 significant digits)."""
    rendered = []
    for m in cf.maps:
        bps = ", ".join(_fmt17(v) for v in m.breakpoints)
        vals = ", ".join(_fmt17(v) for v in m.values)
        rendered.append(f'{{"breakpoints": [{bps}], "values": [{vals}]}}')
    maps_doc = ", ".join(rendered)
    return (f'{{"version": {MODEL_VERSION}, "scope": "{cf.scope}", "h": {cf.h}, "w": {cf.w}, '
            f'"interpolation": "{cf.interpolation}", "maps": [{maps_doc}]}}\n')


def save_model(cf: CalibratedForecaster, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(model_to_json(cf))


def load_model(path) -> CalibratedForecaster:
    """Read a model JSON file back into a `CalibratedForecaster`."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"malformed model file: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"malformed model file: expected a JSON object, got {type(doc).__name__}")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model version: {doc.get('version')!r}")
    for key in ("scope", "h", "w", "interpolation", "maps"):
        if key not in doc:
            raise ValueError(f"model file missing field {key!r}")
    for key in ("h", "w"):
        if type(doc[key]) is not int:
            raise ValueError(f"model field {key!r} must be an integer, got {doc[key]!r}")
    if not isinstance(doc["maps"], list):
        raise ValueError("model field 'maps' must be a list")
    maps = []
    for i, m in enumerate(doc["maps"]):
        if not (isinstance(m, dict) and isinstance(m.get("breakpoints"), list)
                and isinstance(m.get("values"), list)):
            raise ValueError(f"model map {i} needs 'breakpoints' and 'values' lists")
        try:
            knots = [np.asarray(m[key], dtype=np.float64) for key in ("breakpoints", "values")]
        except (TypeError, ValueError):
            raise ValueError(f"model map {i} has a knot that is not a number") from None
        maps.append(IsotonicMap(*knots, doc["interpolation"]))
    return CalibratedForecaster(doc["scope"], tuple(maps), h=doc["h"], w=doc["w"])
