"""Gridded time-series containers and their CSV formats.

Three plain-CSV formats cover the pipeline, all UTF-8 with LF endings and
``.`` as the decimal separator. Each is declared once in ``_FORMATS``,
keyed by its header line:

* observations:       ``time,row,col,value``
* Gaussian forecasts: ``time,row,col,mean,std``
* ensemble forecasts: ``time,row,col,sample_idx,value``

Records may appear in any order, but every (time, row, col) combination
implied by the distinct times and the maximum row/col indices must be
present exactly once (and, for ensembles, carry members 0..k-1). The key
columns ``time``, ``row``, ``col`` and ``sample_idx`` are nonnegative
integers that fit in a signed 64-bit integer; a larger value is an
``invalid <column>`` error on its line. Missing observations are written
as the token ``NaN`` and tracked by a validity mask; forecast files must
be fully populated with strictly positive spreads. Reads and writes
round-trip at full double precision.

A bad file reports one error. A wrong field count on any line is found
before any value is parsed; otherwise the earliest line with a problem
wins, and within that line the leftmost bad column (a byte that is not
UTF-8 makes its field bad), then a nonpositive ``std``, then a duplicate
key. Errors about the grid as a whole (fewer
than two ensemble members, a missing point) come after every line error
and name no line. Completeness is checked on the sorted keys before the
dense grid is allocated, so a stray index costs no memory.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .predictive import Empirical, Gaussian, PredictiveDist, forecast_arrays

__all__ = [
    "ParseError",
    "GridSeries",
    "ForecastSeries",
    "read_observations",
    "write_observations",
    "read_forecasts",
    "write_forecasts",
]

OBS_HEADER = "time,row,col,value"
GAUSSIAN_HEADER = "time,row,col,mean,std"
ENSEMBLE_HEADER = "time,row,col,sample_idx,value"

# header -> (integer key columns in grid order, float value columns, NaN values allowed)
_FORMATS = {
    OBS_HEADER: (("time", "row", "col"), ("value",), True),
    GAUSSIAN_HEADER: (("time", "row", "col"), ("mean", "std"), False),
    ENSEMBLE_HEADER: (("time", "row", "col", "sample_idx"), ("value",), False),
}


class ParseError(ValueError):
    """File-format violation, annotated with the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True, eq=False)
class GridSeries:
    """T x H x W scalar field indexed by integer times (e.g. months).

    Missing entries hold NaN; `mask` reports which entries are valid.
    """

    times: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 3 or vals.shape[1] < 1 or vals.shape[2] < 1:
            raise ValueError(f"values must be a T x H x W array, got shape {vals.shape}")
        times = tuple(int(t) for t in self.times)
        if len(times) != vals.shape[0]:
            raise ValueError(f"{len(times)} times for {vals.shape[0]} value slices")
        for i in range(1, len(times)):
            if times[i] <= times[i - 1]:
                raise ValueError(f"out-of-order times: {times[i]} at position {i} follows {times[i - 1]}")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", vals)

    @property
    def h(self) -> int:
        return self.values.shape[1]

    @property
    def w(self) -> int:
        return self.values.shape[2]

    @property
    def mask(self) -> np.ndarray:
        """True where a value is present."""
        return np.isfinite(self.values)


@dataclass(frozen=True, eq=False)
class ForecastSeries:
    """Per-cell predictive distributions over a grid.

    Holds either Gaussian parameter fields (means, stds) or an ensemble
    member axis (samples, shape T x H x W x k). Spreads must be strictly
    positive everywhere; forecast files carry no missing entries.
    """

    times: tuple[int, ...]
    means: np.ndarray | None = None
    stds: np.ndarray | None = None
    samples: np.ndarray | None = None

    def __post_init__(self):
        arrays = forecast_arrays(self.means, self.stds, self.samples)
        times = tuple(int(t) for t in self.times)
        if self.samples is None:
            if not (arrays["means"].ndim == 3 and arrays["means"].shape == arrays["stds"].shape):
                raise ValueError("means and stds must both be T x H x W")
        elif not (arrays["samples"].ndim == 4 and arrays["samples"].shape[3] >= 2):
            raise ValueError("samples must be T x H x W x k with k >= 2")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)
        n_slices = len(next(iter(arrays.values())))
        if len(times) != n_slices:
            raise ValueError(f"{len(times)} times for {n_slices} forecast slices")
        for i in range(1, len(times)):
            if times[i] <= times[i - 1]:
                raise ValueError(f"out-of-order times: {times[i]} at position {i} follows {times[i - 1]}")
        object.__setattr__(self, "times", times)

    @property
    def kind(self) -> str:
        return "gaussian" if self.means is not None else "ensemble"

    @property
    def h(self) -> int:
        arr = self.means if self.means is not None else self.samples
        return arr.shape[1]

    @property
    def w(self) -> int:
        arr = self.means if self.means is not None else self.samples
        return arr.shape[2]

    def dist(self, t_index: int, row: int, col: int) -> PredictiveDist:
        """Predictive distribution at one grid point (time given by position)."""
        if self.means is not None:
            return Gaussian(float(self.means[t_index, row, col]), float(self.stds[t_index, row, col]))
        return Empirical(self.samples[t_index, row, col])


def _parse_column(tokens: list[str], name: str, is_key: bool, nan_ok: bool):
    """Convert one column with ``int`` (keys) or ``float`` (values).

    Returns the values before the column's first bad token and that
    token's error message, or all values and None.
    """
    convert, dtype = (int, np.int64) if is_key else (float, np.float64)
    error = None
    try:
        col = np.fromiter(map(convert, tokens), dtype, len(tokens))
    except (ValueError, OverflowError):
        for bad, token in enumerate(tokens):
            try:
                dtype(convert(token))
            except (ValueError, OverflowError):
                break
        col = np.fromiter(map(convert, tokens[:bad]), dtype, bad)
        error = f"invalid {name}: {tokens[bad]!r}"
    if is_key:
        flagged = col < 0
    else:
        flagged = np.isinf(col) if nan_ok else ~np.isfinite(col)
        if name == "std":
            flagged |= col <= 0.0
    first = np.flatnonzero(flagged)
    if first.size:
        bad = first[0]
        value = col[bad].item()
        if is_key:
            error = f"negative {name}: {value}"
        elif math.isnan(value):
            error = f"{name} may not be NaN"
        elif math.isinf(value):
            error = f"non-finite {name}: {tokens[bad]!r}"
        else:
            error = f"nonpositive std: {value}"
        col = col[:bad]
    return col, error


def _where(names, key) -> str:
    """A key as error messages print it, e.g. ``(t=3, row=0, col=1)``."""
    return "(" + ", ".join(f"{'t' if name == 'time' else name}={v}" for name, v in zip(names, key)) + ")"


def _read_grid(path, headers: tuple[str, ...]):
    """Parse a grid CSV whose header is one of ``headers``.

    Returns the header, the sorted distinct times and one dense array per
    value column, shaped T x H x W (x k for ensembles).
    """
    # A byte that is not UTF-8 decodes to a lone surrogate, which no field
    # accepts, so it is reported like any other bad token on its line.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        header, *lines = fh.read().split("\n")
    if not header and not lines:
        raise ParseError("empty file, expected a header", line=1)
    if header not in headers:
        raise ParseError(f"malformed header {header!r}, expected {' or '.join(headers)}", line=1)
    key_names, value_names, nan_ok = _FORMATS[header]
    n_fields = len(key_names) + len(value_names)
    linenos = [lineno for lineno, line in enumerate(lines, start=2) if line]
    lines = [line for line in lines if line]
    if not lines:
        raise ParseError("no data records", line=2)
    for lineno, line in zip(linenos, lines):
        if line.count(",") != n_fields - 1:
            raise ParseError(f"expected {n_fields} fields, got {line.count(',') + 1}", line=lineno)
    tokens = ",".join(lines).split(",")

    # Each column is parsed only up to the earliest bad line found so far,
    # so the error kept is that line's leftmost one.
    n, error, columns = len(lines), None, []
    for j, name in enumerate(key_names + value_names):
        col, col_error = _parse_column(tokens[j:n * n_fields:n_fields], name, j < len(key_names), nan_ok)
        if col_error is not None:
            n, error = len(col), col_error
        columns.append(col)
    keys = np.array([col[:n] for col in columns[:len(key_names)]])

    order = np.lexsort(keys[::-1])
    ordered = keys[:, order]
    repeats = order[1:][(ordered[:, 1:] == ordered[:, :-1]).all(axis=0)]
    if repeats.size:
        i = repeats.min()
        first = np.flatnonzero((keys == keys[:, [i]]).all(axis=0))[0]
        raise ParseError(f"duplicate entry for {_where(key_names, keys[:, i])}, "
                         f"first seen on line {linenos[first]}", line=linenos[i])
    if error is not None:
        raise ParseError(error, line=linenos[n])

    new_time = np.r_[True, ordered[0, 1:] != ordered[0, :-1]]
    times = ordered[0, new_time].tolist()
    shape = (len(times), *(int(col.max()) + 1 for col in keys[1:]))
    if len(shape) == 4 and shape[3] < 2:
        raise ParseError("ensemble files need at least 2 members per cell")
    if math.prod(shape) != n:
        # The i-th sorted key of a complete grid is the i-th grid point in C
        # order; the first position where they differ is the first hole.
        expected, rest = [], np.arange(n + 1)
        for size in reversed(shape):
            size = min(size, n + 1)  # same quotients for rest <= n, and fits int64
            expected.insert(0, rest % size)
            rest //= size
        expected = np.array(expected)
        ordered[0] = np.cumsum(new_time) - 1
        differ = np.flatnonzero((ordered != expected[:, :n]).any(axis=0))
        hole = expected[:, differ[0] if differ.size else n].tolist()
        where = _where(key_names, (times[hole[0]], *hole[1:3]))
        if len(shape) == 4:
            raise ParseError(f"non-rectangular grid: missing sample_idx {hole[3]} for {where}; "
                             f"members must be contiguous 0..{shape[3] - 1}")
        raise ParseError(f"non-rectangular grid: missing entry for {where}")
    return header, tuple(times), [col[order].reshape(shape) for col in columns[len(key_names):]]


def _write_grid(path, header: str, times, *fields: np.ndarray) -> None:
    """Write dense value fields in canonical order: time, then row, then
    col (then sample_idx), one record per grid point."""
    keys = itertools.product(times, *map(range, fields[0].shape[1:]))
    values = zip(*(field.ravel().tolist() for field in fields))
    record = ",".join(["%d"] * fields[0].ndim + ["%r"] * len(fields)) + "\n"
    body = "".join([record % (key + value) for key, value in zip(keys, values)])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        # repr spells a missing value "nan", which no other field can contain
        fh.write(body.replace("nan", "NaN"))


def read_observations(path) -> GridSeries:
    """Parse an observations CSV into a `GridSeries`.

    Grid dims come from the distinct times and the maximum row/col
    indices; the file must cover that cross product exactly once per
    point. ``NaN`` values mark missing observations.
    """
    _, times, (values,) = _read_grid(path, (OBS_HEADER,))
    return GridSeries(times=times, values=values)


def write_observations(gs: GridSeries, path) -> None:
    """Write a `GridSeries` in canonical order (time, then row, then col)."""
    _write_grid(path, OBS_HEADER, gs.times, gs.values)


def read_forecasts(path) -> ForecastSeries:
    """Parse a forecast CSV, Gaussian or ensemble variant by header."""
    header, times, fields = _read_grid(path, (GAUSSIAN_HEADER, ENSEMBLE_HEADER))
    if header == GAUSSIAN_HEADER:
        return ForecastSeries(times=times, means=fields[0], stds=fields[1])
    return ForecastSeries(times=times, samples=fields[0])


def write_forecasts(fs: ForecastSeries, path) -> None:
    """Write a `ForecastSeries` in canonical order, matching its variant."""
    if fs.kind == "gaussian":
        _write_grid(path, GAUSSIAN_HEADER, fs.times, fs.means, fs.stds)
    else:
        _write_grid(path, ENSEMBLE_HEADER, fs.times, fs.samples)
