"""Recalibration of predictive CDFs against held-out observations.

For each held-out pair the forecast assigns a CDF value c = F(Y) to the
outcome, its PIT value; if the forecaster were calibrated these would be
uniform. The recalibration map sends each c to the fraction of PIT values
strictly below it: the isotonic fit of those pairs, since the fractions
already rise with c, built directly as the empirical CDF of the PIT
values. Composing the map with a forecast CDF yields calibrated
probabilities; composing its generalized inverse with the raw quantile
function yields calibrated quantiles and central intervals.

A fitted `CalibratedForecaster` holds one pooled map or one map per grid
cell as one knot table (every map's knots concatenated, the index where
each map's knots begin, one interpolation mode), filled by the fit's one
sort or the file's one array per field. It serializes to a single-object
JSON model file::

    {"version": 1, "scope": "pooled" | "per_cell", "h": int, "w": int,
     "interpolation": "linear" | "step",
     "maps": [{"breakpoints": [...], "values": [...]}, ...]}

with per-cell maps in row-major order (pooled models carry exactly one
map and h = w = 0). The json module writes the header fields and
``float.__repr__`` each knot, a block of knots at a time. That is how the
json module spells a finite float, so the file is byte for byte what
``json.dumps`` gives for the document, the tests' oracle. ``repr`` is
Python's shortest spelling that reads back as the same double, so a model
reloads bit for bit; files that spell knots with 17 significant digits
load to the same maps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from .gridio import ForecastSeries, GridSeries
from .isotonic import IsotonicMap, check_knots, evaluate_map, inverse_maps
# perfbench/tracing.py counts calls made through this name of this module.
from .isotonic import fit_isotonic  # noqa: F401
from .predictive import (ForecastColumns, PredictiveDist, cdf, forecast_fields, paired_outcomes, per_kind,
                         quantile)

__all__ = [
    "CalibrationPair",
    "CalibratedForecaster",
    "CalibratedQuantile",
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

MODEL_VERSION = 1
MODEL_BLOCK = 1024  # knots spelled per C-level pass when writing a model
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


def _pit_values(forecasts, observations) -> np.ndarray:
    """Each forecast's CDF value at its outcome, for a fit on at least 2 points."""
    if len(forecasts) < 2:
        raise ValueError("calibration set too small: need at least 2 points")
    obs = paired_outcomes(forecasts, observations)
    return per_kind(forecasts, ForecastColumns.cdf, obs)


def build_calibration_dataset(
    forecasts: Sequence[PredictiveDist] | ForecastColumns, observations: Sequence[float]
) -> list[CalibrationPair]:
    """Pair each forecast's CDF value at the outcome with its empirical level.

    Output order matches input order. Ties among CDF values count strictly,
    so tied points share the empirical level of their common value.
    """
    c = _pit_values(forecasts, observations)
    y = np.searchsorted(np.sort(c), c, side="left") / c.size  # strictly-below counts
    return [CalibrationPair(float(ci), float(yi)) for ci, yi in zip(c, y)]


@dataclass(frozen=True, eq=False)
class CalibratedForecaster:
    """A fitted recalibration map, pooled or one per grid cell (row-major),
    held as one knot table: the fields `check_knots` validates, once."""

    scope: str  # 'pooled' | 'per_cell'
    breakpoints: np.ndarray
    values: np.ndarray
    starts: np.ndarray
    interpolation: str = "linear"
    h: int = 0
    w: int = 0

    def __post_init__(self):
        if self.scope not in ("pooled", "per_cell"):
            raise ValueError(f"unknown scope: {self.scope!r}")
        if self.scope == "pooled" and (self.h != 0 or self.w != 0):
            raise ValueError(f"pooled scope carries h = w = 0, got {self.h}x{self.w}")
        if self.scope == "per_cell" and (self.h < 1 or self.w < 1):
            raise ValueError("per_cell scope needs positive grid dims")
        table = check_knots(self.breakpoints, self.values, self.starts, self.interpolation)
        for name, arr in zip(("breakpoints", "values", "starts"), table):
            object.__setattr__(self, name, arr)
        n = max(self.h * self.w, 1)  # a pooled model has h = w = 0
        if self.starts.size != n:
            raise ValueError(f"{self.scope} scope needs {n} map(s), got {self.starts.size}")

    @property
    def maps(self) -> tuple[IsotonicMap, ...]:
        """Every map as an `IsotonicMap`, built on demand. The pipeline and
        the scalar API read the knot table itself (`raw_levels`,
        `evaluate_map`); only tests and `perfbench/tracing.py` read this."""
        return tuple(map(self._map, range(self.starts.size)))

    def _map(self, i: int) -> IsotonicMap:
        knots = slice(self.starts[i], self.starts[i + 1] if i + 1 < self.starts.size else None)
        return IsotonicMap(self.breakpoints[knots], self.values[knots], self.interpolation)

    def _map_index(self, cell):
        """Position of the map governing ``cell``: one (row, col) pair, or
        per-forecast arrays of rows and columns, which give one position
        per forecast. Pooled scope gives 0 for any cell."""
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
        return self._map(int(self._map_index(cell)))

    def raw_levels(self, levels, cell, n: int):
        """Raw levels that the calibrated ``levels`` map back to, inverting
        only the maps that the ``n`` forecasts in ``cell`` read, in map order:
        that table (exact 0s and 1s clamped near the boundary), the row each
        forecast reads, which entries saturated, and each row's map position.
        """
        index = self._map_index(cell)
        if np.ndim(index) and np.shape(index) != (n,):
            raise ValueError(f"{np.size(index)} cells for {n} forecasts")
        read = np.bincount(np.ravel(index), minlength=self.starts.size) > 0
        positions = np.flatnonzero(read)
        raw = inverse_maps(self, positions, levels)
        saturated = (raw == 0.0) | (raw == 1.0)
        raw = np.where(raw == 0.0, SATURATION_LEVEL_LO, np.where(raw == 1.0, SATURATION_LEVEL_HI, raw))
        return raw, np.broadcast_to((np.cumsum(read) - 1)[index], (n,)), saturated, positions


# No model: its inverse returns every level in (0, 1) bit for bit.
IDENTITY = CalibratedForecaster("pooled", [0.0, 1.0], [0.0, 1.0], [0])


def grid_points(
    forecasts: ForecastSeries, observations: GridSeries
) -> tuple[ForecastColumns, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Align a forecast grid with an observation grid: the forecast columns,
    observations and cell (a pair of arrays: each point's grid row and
    column, as the metrics take ``cell``) of every point with an observation.

    Points come cell by cell in row-major order, so each cell's points are
    contiguous, and in time order within a cell. Raises on any dimension
    or time-axis mismatch, and when no point has an observation.
    """
    if (forecasts.h, forecasts.w) != (observations.h, observations.w):
        raise ValueError(f"grid dimension mismatch: forecasts {forecasts.h}x{forecasts.w}, "
                         f"observations {observations.h}x{observations.w}")
    if forecasts.times != observations.times:
        raise ValueError("forecast and observation time axes differ")
    valid = np.moveaxis(observations.mask, 0, -1)  # H x W x T, cell-major
    if not valid.any():
        raise ValueError("no valid forecast/observation pairs")
    cols = ForecastColumns(**{name: np.moveaxis(arr, 0, 2)[valid]  # members stay last
                              for name, arr in forecast_fields(forecasts).items()})
    rows, col_index, _ = np.nonzero(valid)
    return cols, np.moveaxis(observations.values, 0, -1)[valid], (rows, col_index)


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
    ``min_points_per_cell`` (and 2) valid time steps in each cell. The data
    used here must stay disjoint from whatever the calibrated forecaster is
    later evaluated on. Each map is the empirical CDF of its PIT values.
    """
    gridded = isinstance(forecasts, ForecastSeries)
    if gridded != isinstance(observations, GridSeries):
        raise ValueError("forecasts and observations must both be flat or both gridded")
    if scope == "per_cell" and not gridded:
        raise ValueError("per_cell scope requires gridded inputs")

    index, h, w = 0, 0, 0  # one pooled map
    obs = observations
    if gridded:
        forecasts, obs, (rows, cols) = grid_points(forecasts, observations)
        if scope == "per_cell":
            counts = observations.mask.sum(axis=0).ravel()  # valid time steps per cell, row-major
            need = max(min_points_per_cell, 2)
            short = np.flatnonzero(counts < need)
            if short.size:
                r, c = divmod(int(short[0]), observations.w)
                raise ValueError(f"cell ({r}, {c}) has {counts[short[0]]} calibration "
                                 f"points, need at least {need}")
            index, h, w = rows * observations.w + cols, observations.h, observations.w
    elif not isinstance(forecasts, ForecastColumns):
        forecasts = list(forecasts)

    key = np.sort(index + 1j * _pit_values(forecasts, obs))  # by map, then PIT value
    knots = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])  # each map's distinct values
    m = key.real[knots]
    start, end = np.searchsorted(key, [m, m + 1])  # each knot's map, as a range of key
    starts = np.flatnonzero(np.r_[True, m[1:] != m[:-1]])  # every map has points
    return CalibratedForecaster(scope, key.imag[knots], (knots - start) / (end - start), starts,
                                interpolation, h=h, w=w)


def calibrated_cdf(cf: CalibratedForecaster, d: PredictiveDist, y: float,
                   cell: tuple[int, int] | None = None) -> float:
    """Calibrated probability that the outcome does not exceed ``y``."""
    return float(evaluate_map(cf, int(cf._map_index(cell)), cdf(d, y)))


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
    raw, _, saturated, _ = cf.raw_levels(p, cell, 1)
    return CalibratedQuantile(quantile(d, float(raw[0, 0])), bool(saturated[0, 0]))


def central_interval(cf: CalibratedForecaster, d: PredictiveDist, level: float,
                     cell: tuple[int, int] | None = None) -> tuple[float, float]:
    """Equal-tailed calibrated interval covering ``level`` probability."""
    if not (0.0 < level < 1.0):
        raise ValueError(f"interval level out of range: {level}")
    lo = calibrated_quantile(cf, d, (1.0 - level) / 2.0, cell)
    hi = calibrated_quantile(cf, d, (1.0 + level) / 2.0, cell)
    return lo.value, hi.value


def _knot_text(knots: np.ndarray):
    """``knots`` as the json module spells a list of finite floats, in text
    blocks of at most `MODEL_BLOCK` knots, each spelled in one C-level pass."""
    for i in range(0, knots.size, MODEL_BLOCK):
        yield ", " if i else "["
        yield ", ".join(map(float.__repr__, knots[i:i + MODEL_BLOCK].tolist()))
    yield "]"


def _model_text(cf: CalibratedForecaster):
    """The model JSON document and a line break, as text blocks. Knots are
    finite (`check_knots`), so ``float.__repr__`` spells them as the json
    module does."""
    header = {"version": MODEL_VERSION, "scope": cf.scope, "h": int(cf.h), "w": int(cf.w),
              "interpolation": cf.interpolation}
    yield json.dumps(header)[:-1] + ', "maps": ['
    bounds = cf.starts.tolist() + [cf.breakpoints.size]
    for i, j in zip(bounds, bounds[1:]):
        yield '{"breakpoints": ' if i == 0 else '}, {"breakpoints": '
        yield from _knot_text(cf.breakpoints[i:j])
        yield ', "values": '
        yield from _knot_text(cf.values[i:j])
    yield "}]}\n"


def model_to_json(cf: CalibratedForecaster) -> str:
    """Serialize to the model JSON document."""
    return "".join(_model_text(cf))


def save_model(cf: CalibratedForecaster, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_model_text(cf))  # streamed: no file-sized string


def load_model(path) -> CalibratedForecaster:
    """Read a model JSON file back into a `CalibratedForecaster`."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ValueError(f"malformed model file: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"malformed model file: expected a JSON object, got {type(doc).__name__}")
    if type(doc.get("version")) is not int or doc["version"] != MODEL_VERSION:
        raise ValueError(f"unsupported model version: {doc.get('version')!r}")
    for key in ("scope", "h", "w", "interpolation", "maps"):
        if key not in doc:
            raise ValueError(f"model file missing field {key!r}")
    for key in ("h", "w"):
        if type(doc[key]) is not int:
            raise ValueError(f"model field {key!r} must be an integer, got {doc[key]!r}")
    maps = doc["maps"]
    if not isinstance(maps, list):
        raise ValueError("model field 'maps' must be a list")
    for i, m in enumerate(maps):
        if not (isinstance(m, dict) and isinstance(m.get("breakpoints"), list)
                and isinstance(m.get("values"), list) and 0 < len(m["breakpoints"]) == len(m["values"])):
            raise ValueError(f"model map {i} needs 'breakpoints' and 'values' lists, nonempty and equally long")
        numbers = m["breakpoints"] + m["values"]
        types = set(map(type, numbers))
        try:  # JSON numbers only: not strings or booleans, and no int beyond a double's range
            if not types <= {int, float}:
                raise TypeError
            if int in types:
                np.asarray(numbers, dtype=np.float64)
        except (TypeError, OverflowError):
            raise ValueError(f"model map {i} has a knot that is not a number") from None
    bp, vals = (np.array(list(chain.from_iterable(m[key] for m in maps)), dtype=np.float64)
                for key in ("breakpoints", "values"))
    starts = np.cumsum([0] + [len(m["values"]) for m in maps[:-1]])
    return CalibratedForecaster(doc["scope"], bp, vals, starts, doc["interpolation"], h=doc["h"], w=doc["w"])
