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

Fields follow Python's ``int`` (keys) and ``float`` (values) syntax. A
file whose data lines hold only the bytes a written file holds
(`_CANONICAL`) is parsed by numpy's C reader straight from the file's
bytes, with no list of lines; every other file, and any file that
reader cannot take cleanly, is decoded and goes to the line-by-line
reader. Both give the same arrays bit for bit, and every error on a line
comes from the line-by-line reader.

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

# Every character a data line of a canonical file can hold: `_write_grid`'s
# digits, signs, exponents and NaN/inf spellings, and the line break.
_CANONICAL = b"0123456789,.-+eENanifIty\n"


class ParseError(ValueError):
    """File-format violation, annotated with the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _time_axis(times, n_slices: int, what: str) -> tuple[int, ...]:
    """``times`` as ints, one per slice and strictly increasing."""
    times = tuple(int(t) for t in times)
    if len(times) != n_slices:
        raise ValueError(f"{len(times)} times for {n_slices} {what} slices")
    for i in range(1, len(times)):
        if times[i] <= times[i - 1]:
            raise ValueError(f"out-of-order times: {times[i]} at position {i} follows {times[i - 1]}")
    return times


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
    first = np.flatnonzero(_flagged(col, name, is_key, nan_ok))
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


def _parse_lines(lines: list[str], key_names, value_names, nan_ok: bool):
    """Parse data lines one token at a time with Python's ``int``/``float``.

    This reader judges every file: it finds each error the module
    docstring describes. Returns one array per column and the number n
    of leading records that are good in every column, with the error of
    record n (None if all are good).
    """
    n_fields = len(key_names) + len(value_names)
    for lineno, line in enumerate(lines, start=2):
        if line and line.count(",") != n_fields - 1:
            raise ParseError(f"expected {n_fields} fields, got {line.count(',') + 1}", line=lineno)
    lines = [line for line in lines if line]
    tokens = ",".join(lines).split(",")

    # Each column is parsed only up to the earliest bad line found so far,
    # so the error kept is that line's leftmost one.
    n, error, columns = len(lines), None, []
    for j, name in enumerate(key_names + value_names):
        col, col_error = _parse_column(tokens[j:n * n_fields:n_fields], name, j < len(key_names), nan_ok)
        if col_error is not None:
            n, error = len(col), col_error
        columns.append(col)
    return columns, n, error


def _load_canonical(raw: bytes, start: int, key_names, value_names, nan_ok: bool):
    """Parse the data lines of ``raw`` (from byte ``start`` on, LF line
    ends) with numpy's C reader, or return None.

    Only a body made of `_CANONICAL` bytes is tried: there numpy reads
    each token as Python's ``int``/``float`` would. numpy streams the
    lines from the buffer, skipping blank ones. Any warning, error or
    forbidden value also returns None, so that `_parse_lines` reports it.
    """
    # Deleting the canonical bytes from the whole file leaves the header's
    # letters, plus the body's leftovers if it has any.
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
    columns = [table[name] for name in dtype.names]
    for j, (name, col) in enumerate(zip(dtype.names, columns)):
        if _flagged(col, name, j < len(key_names), nan_ok).any():
            return None
    return columns


def _where(names, key) -> str:
    """A key as error messages print it, e.g. ``(t=3, row=0, col=1)``."""
    return "(" + ", ".join(f"{'t' if name == 'time' else name}={v}" for name, v in zip(names, key)) + ")"


def _data_lines(raw: bytes) -> list[str]:
    """The lines after the header, decoded. A byte that is not UTF-8
    decodes to a lone surrogate, which no field accepts, so it is reported
    like any other bad token on its line."""
    return raw.decode("utf-8", "surrogateescape").split("\n")[1:]


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

    columns = _load_canonical(raw, end + 1, key_names, value_names, nan_ok)
    error = None
    if columns is None:
        columns, n, error = _parse_lines(_data_lines(raw), key_names, value_names, nan_ok)
    else:
        n = len(columns[0])
    keys = [col[:n] for col in columns[:len(key_names)]]

    order = np.lexsort(keys[::-1])
    ordered = [key[order] for key in keys]
    repeats = order[1:][np.logical_and.reduce([key[1:] == key[:-1] for key in ordered])]
    if repeats.size or error is not None:
        linenos = [lineno for lineno, line in enumerate(_data_lines(raw), start=2) if line]
        if repeats.size:
            i = repeats.min()
            key = [int(k[i]) for k in keys]
            first = np.flatnonzero(np.logical_and.reduce([k == v for k, v in zip(keys, key)]))[0]
            raise ParseError(f"duplicate entry for {_where(key_names, key)}, "
                             f"first seen on line {linenos[first]}", line=linenos[i])
        raise ParseError(error, line=linenos[n])

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
