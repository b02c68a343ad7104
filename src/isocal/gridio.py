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

A file is read once, as bytes. CRLF and lone CR line ends become LF on
those bytes, as text mode would turn them (a CR byte is never part of a
UTF-8 sequence), so a CRLF file reads like its LF copy. Only the header
is decoded up front.

Fields follow Python's ``int`` (keys) and ``float`` (values) syntax.
numpy's C parser reads a body of `_CANONICAL` bytes (a written file's
bytes, space and tab) straight from the file's bytes, each token as
``int``/``float`` would. Any other file, and one that numpy refuses or
whose columns hold a forbidden value or a repeated key, goes to the
line-by-line reader: it reads to the same bits and names the first bad
line. A 16x16x120 Gaussian file reads in about 21 ms, canonical or with
spaces, and in about 155 ms with ``_`` in its keys (2 vCPU, numpy 2.4).

A bad file reports one error. A wrong field count on any line is found
before any value is parsed; otherwise the earliest line with a problem
wins, and within that line the leftmost bad column (a byte that is not
UTF-8 makes its field bad), then a nonpositive ``std``, then a duplicate
key. Errors about the grid as a whole (fewer than two ensemble members,
a missing point) come after every line error and name no line.
Completeness is checked on the sorted keys before the dense grid is
allocated, so a stray index costs no memory.
"""

from __future__ import annotations

import io
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .predictive import Empirical, Gaussian, PredictiveDist, forecast_arrays, forecast_fields

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

WRITE_BLOCK = 2048  # records per write of `_write_grid`

# Every byte numpy's C parser reads as `int`/`float` do: `_write_grid`'s
# digits, signs, exponents, NaN/inf spellings and line break, and the
# space and tab that both strip around a field.
_CANONICAL = b"0123456789,.-+eENanifIty\n \t"


class ParseError(ValueError):
    """File-format violation, annotated with the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _time_axis(times, n_slices: int, what: str) -> tuple[int, ...]:
    """``times`` as ints, one per slice and strictly increasing."""
    times = tuple(times)
    if len(times) != n_slices:
        raise ValueError(f"{len(times)} times for {n_slices} {what} slices")
    for i, t in enumerate(times):
        try:
            integral = int(t) == t
        except (TypeError, ValueError, OverflowError):
            integral = False
        if not integral:
            raise ValueError(f"non-integer time {t!r} at position {i}")
        if i and t <= times[i - 1]:
            raise ValueError(f"out-of-order times: {int(t)} at position {i} follows {int(times[i - 1])}")
    return tuple(map(int, times))


@dataclass(frozen=True, eq=False)
class GridSeries:
    """T x H x W scalar field indexed by integer times (e.g. months).

    Missing entries hold NaN; `mask` reports which entries are valid. No
    entry is infinite: the observation format cannot hold one.
    """

    times: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 3 or vals.shape[1] < 1 or vals.shape[2] < 1:
            raise ValueError(f"values must be a T x H x W array, got shape {vals.shape}")
        if np.isinf(vals).any():
            raise ValueError("invalid input value: infinite observation")
        object.__setattr__(self, "times", _time_axis(self.times, vals.shape[0], "value"))
        vals = vals.copy()
        vals.flags.writeable = False
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
        arrays = forecast_arrays(3, self.means, self.stds, self.samples)
        if self.samples is not None and arrays["samples"].shape[3] < 2:
            raise ValueError("samples must be T x H x W x k with k >= 2")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "times", _time_axis(self.times, len(self._grid), "forecast"))

    @property
    def _grid(self) -> np.ndarray:
        """The first forecast array: its leading axes are T x H x W."""
        return next(iter(forecast_fields(self).values()))

    @property
    def kind(self) -> str:
        return "gaussian" if self.means is not None else "ensemble"

    @property
    def h(self) -> int:
        return self._grid.shape[1]

    @property
    def w(self) -> int:
        return self._grid.shape[2]

    def dist(self, t_index: int, row: int, col: int) -> PredictiveDist:
        """Predictive distribution at one grid point (time given by position)."""
        if self.means is not None:
            return Gaussian(float(self.means[t_index, row, col]), float(self.stds[t_index, row, col]))
        return Empirical(self.samples[t_index, row, col])


def _flagged(col: np.ndarray, name: str, is_key: bool, nan_ok: bool) -> np.ndarray:
    """Where a parsed column holds a value its format forbids."""
    if is_key:
        return col < 0
    flagged = np.isinf(col) if nan_ok else ~np.isfinite(col)
    if name == "std":
        flagged |= col <= 0.0
    return flagged


def _field(token: str, name: str, is_key: bool, nan_ok: bool):
    """A field read as an int64 key or a float value; a `ValueError` says what is wrong with it."""
    try:
        value = np.int64(int(token)) if is_key else float(token)
    except (ValueError, OverflowError):
        raise ValueError(f"invalid {name}: {token!r}") from None
    if is_key and value < 0:
        raise ValueError(f"negative {name}: {value}")
    if not is_key and not math.isfinite(value) and not (nan_ok and math.isnan(value)):
        raise ValueError(f"{name} may not be NaN" if math.isnan(value) else f"non-finite {name}: {token!r}")
    if name == "std" and value <= 0.0:
        raise ValueError(f"nonpositive std: {value}")
    return value


def _parse_lines(raw: bytes, start: int, key_names, value_names, nan_ok: bool):
    """Parse the data lines of ``raw`` (from byte ``start`` on) one at a
    time with ``int``/``float``: raise the first line error, in the module
    docstring's order, or return one array per column. A byte that is not
    UTF-8 decodes to a lone surrogate, which no field accepts."""
    names = key_names + value_names
    lines = [(lineno, line) for lineno, line in
             enumerate(raw[start:].decode("utf-8", "surrogateescape").split("\n"), start=2) if line]
    for lineno, line in lines:
        if line.count(",") != len(names) - 1:
            raise ParseError(f"expected {len(names)} fields, got {line.count(',') + 1}", line=lineno)
    records, seen = [], {}
    for lineno, line in lines:
        try:
            record = [_field(token, name, j < len(key_names), nan_ok)
                      for j, (name, token) in enumerate(zip(names, line.split(",")))]
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        key = tuple(record[:len(key_names)])
        if seen.setdefault(key, lineno) != lineno:
            raise ParseError(f"duplicate entry for {_where(key_names, key)}, first seen on line {seen[key]}",
                             line=lineno)
        records.append(record)
    return [np.array(col, np.int64 if j < len(key_names) else np.float64) for j, col in enumerate(zip(*records))]


def _load_numpy(raw: bytes, start: int, key_names, value_names):
    """Parse the data lines of ``raw`` (from byte ``start`` on) as
    `_parse_lines` does, with numpy's C parser straight from the buffer, or
    return None if the body holds a byte outside `_CANONICAL` or numpy
    raises or warns. numpy skips blank lines."""
    # Deleting the canonical bytes leaves just the header's letters when the body is canonical.
    if raw.translate(None, _CANONICAL) != raw[:start].translate(None, _CANONICAL):
        return None
    dtype = np.dtype([(name, np.int64) for name in key_names] + [(name, np.float64) for name in value_names])
    stream = io.BytesIO(raw)
    stream.seek(start)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(stream, dtype=dtype, delimiter=",", comments=None, ndmin=1, encoding="ascii")
    except (ValueError, Warning):
        return None
    return [table[name] for name in dtype.names]


def _where(names, key) -> str:
    """A key as error messages print it, e.g. ``(t=3, row=0, col=1)``."""
    return "(" + ", ".join(f"{'t' if name == 'time' else name}={v}" for name, v in zip(names, key)) + ")"


def _key_order(columns, key_names, value_names, nan_ok: bool):
    """The order that sorts the key columns and the keys in that order, or
    None if a column holds a value its format forbids or a key repeats."""
    keys = columns[:len(key_names)]
    if any(_flagged(col, name, j < len(keys), nan_ok).any()
           for j, (name, col) in enumerate(zip(key_names + value_names, columns))):
        return None
    order = np.lexsort(keys[::-1])
    ordered = [key[order] for key in keys]
    return None if np.logical_and.reduce([key[1:] == key[:-1] for key in ordered]).any() else (order, ordered)


def _read_grid(path, headers: tuple[str, ...]):
    """Parse a grid CSV whose header is one of ``headers``.

    Returns the header, the sorted distinct times and one dense array per
    value column, shaped T x H x W (x k for ensembles).
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if b"\r" in raw:
        # As text mode reads the file. A CR byte is never part of a UTF-8
        # sequence, so translating the bytes equals translating the text.
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not raw:
        raise ParseError("empty file, expected a header", line=1)
    end = raw.find(b"\n")
    if end < 0:
        end = len(raw)
    header = raw[:end].decode("utf-8", "surrogateescape")
    if header not in headers:
        raise ParseError(f"malformed header {header!r}, expected {' or '.join(headers)}", line=1)
    key_names, value_names, nan_ok = _FORMATS[header]
    if raw.count(b"\n", end) == len(raw) - end:  # nothing but line breaks after the header
        raise ParseError("no data records", line=2)

    columns = _load_numpy(raw, end + 1, key_names, value_names)
    sort = columns is not None and _key_order(columns, key_names, value_names, nan_ok)
    if not sort:
        columns = _parse_lines(raw, end + 1, key_names, value_names, nan_ok)
        sort = _key_order(columns, key_names, value_names, nan_ok)
    order, ordered = sort
    keys, n = columns[:len(key_names)], len(order)

    new_time = np.r_[True, ordered[0][1:] != ordered[0][:-1]]
    times = ordered[0][new_time].tolist()
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
        ordered[0] = np.cumsum(new_time) - 1
        differ = np.flatnonzero(np.logical_or.reduce([o != e[:n] for o, e in zip(ordered, expected)]))
        hole = [int(e[differ[0] if differ.size else n]) for e in expected]
        where = _where(key_names, (times[hole[0]], *hole[1:3]))
        if len(shape) == 4:
            raise ParseError(f"non-rectangular grid: missing sample_idx {hole[3]} for {where}; "
                             f"members must be contiguous 0..{shape[3] - 1}")
        raise ParseError(f"non-rectangular grid: missing entry for {where}")
    return header, tuple(times), [col[order].reshape(shape) for col in columns[len(key_names):]]


def _write_grid(path, header: str, times, *fields: np.ndarray) -> None:
    """Write dense value fields in canonical order: time, then row, then
    col (then sample_idx), one record per grid point, `WRITE_BLOCK`
    records per write. Each value is spelled by ``float.__repr__`` in one
    C-level pass per field."""
    axes = (times, *map(range, fields[0].shape[1:]))
    keys = map(",".join, itertools.product(*(list(map(str, axis)) for axis in axes)))
    values = (map(float.__repr__, field.ravel().tolist()) for field in fields)
    records = map(",".join, zip(keys, *values))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        while block := list(itertools.islice(records, WRITE_BLOCK)):
            # repr spells a missing value "nan", which no other field can contain
            fh.write("\n".join(block).replace("nan", "NaN"))
            fh.write("\n")


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
