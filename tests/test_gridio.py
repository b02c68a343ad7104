import contextlib
import math
import re
import tracemalloc
from typing import Callable, NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocal import gridio
from isocal.gridio import (
    ForecastSeries,
    GridSeries,
    ParseError,
    read_forecasts,
    read_observations,
    write_forecasts,
    write_observations,
)
from isocal.predictive import Empirical, Gaussian

import oracles
from mutations import mutated


def random_grid_series(rng, t=5, h=4, w=3, missing=0.0):
    values = rng.normal(scale=100.0, size=(t, h, w))
    if missing:
        values[rng.uniform(size=values.shape) < missing] = np.nan
    return GridSeries(times=tuple(range(t)), values=values)


class TestObservationsFormat:
    def test_single_cell(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("time,row,col,value\n0,0,0,273.15\n")
        gs = read_observations(path)
        assert gs.values.shape == (1, 1, 1)
        assert gs.values[0, 0, 0] == 273.15

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        gs = random_grid_series(rng, t=3, h=5, w=4)
        path = tmp_path / "obs.csv"
        write_observations(gs, path)
        back = read_observations(path)
        assert back.times == gs.times
        np.testing.assert_array_equal(back.values, gs.values)

    def test_round_trip_with_missing(self, tmp_path):
        rng = np.random.default_rng(1)
        gs = random_grid_series(rng, missing=0.2)
        path = tmp_path / "obs.csv"
        write_observations(gs, path)
        back = read_observations(path)
        np.testing.assert_array_equal(back.mask, gs.mask)
        np.testing.assert_array_equal(back.values[back.mask], gs.values[gs.mask])

    def test_any_record_order(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("time,row,col,value\n7,0,0,2.0\n3,0,0,1.0\n")
        gs = read_observations(path)
        assert gs.times == (3, 7)
        assert gs.values[:, 0, 0].tolist() == [1.0, 2.0]

    def test_duplicate_names_line(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("time,row,col,value\n0,0,0,1.0\n0,0,0,2.0\n")
        with pytest.raises(ParseError, match=r"line 3: duplicate entry for \(t=0, row=0, col=0\)"):
            read_observations(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("time;row;col;value\n")
        with pytest.raises(ParseError, match="line 1: malformed header"):
            read_observations(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("time,row,col,value\n0,0,1.0\n")
        with pytest.raises(ParseError, match="line 2"):
            read_observations(path)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("time,row,col,value\n0,0,0,abc\n")
        with pytest.raises(ParseError, match="line 2: invalid value"):
            read_observations(path)

    def test_incomplete_coverage_names_hole(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("time,row,col,value\n0,0,0,1.0\n0,1,1,2.0\n")
        with pytest.raises(ParseError, match=r"non-rectangular grid: missing entry for \(t=0, row=0, col=1\)"):
            read_observations(path)

    def test_negative_index(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("time,row,col,value\n0,-1,0,1.0\n")
        with pytest.raises(ParseError, match="negative row"):
            read_observations(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="line 1"):
            read_observations(path)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("time,row,col,value\n")
        with pytest.raises(ParseError, match="no data records"):
            read_observations(path)

    def test_stray_index_allocates_no_grid(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("time,row,col,value\n0,0,0,1.0\n0,3000000,0,2.0\n")
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=r"^non-rectangular grid: missing entry for \(t=0, row=1, col=0\)$"):
                read_observations(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestForecastFormats:
    def test_gaussian_row(self, tmp_path):
        path = tmp_path / "fc.csv"
        path.write_text("time,row,col,mean,std\n0,0,0,10.0,2.0\n")
        fs = read_forecasts(path)
        d = fs.dist(0, 0, 0)
        assert isinstance(d, Gaussian)
        assert (d.mean, d.std) == (10.0, 2.0)

    def test_ensemble_rows(self, tmp_path):
        path = tmp_path / "fc.csv"
        rows = [f"0,0,0,{i},{v}" for i, v in enumerate([3.0, 1.0, 2.0])]
        path.write_text("time,row,col,sample_idx,value\n" + "\n".join(rows) + "\n")
        fs = read_forecasts(path)
        d = fs.dist(0, 0, 0)
        assert isinstance(d, Empirical)
        assert d.samples.tolist() == [1.0, 2.0, 3.0]

    def test_zero_std_rejected(self, tmp_path):
        path = tmp_path / "fc.csv"
        path.write_text("time,row,col,mean,std\n0,0,0,10.0,0.0\n")
        with pytest.raises(ParseError, match="line 2: nonpositive std"):
            read_forecasts(path)

    def test_nan_mean_rejected(self, tmp_path):
        path = tmp_path / "fc.csv"
        path.write_text("time,row,col,mean,std\n0,0,0,NaN,1.0\n")
        with pytest.raises(ParseError, match="line 2"):
            read_forecasts(path)

    def test_missing_member_names_gap(self, tmp_path):
        path = tmp_path / "fc.csv"
        path.write_text("time,row,col,sample_idx,value\n0,0,0,0,1.0\n0,0,0,2,2.0\n")
        with pytest.raises(ParseError, match="missing sample_idx 1"):
            read_forecasts(path)

    def test_gaussian_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        fs = ForecastSeries(times=(0, 3, 5), means=rng.normal(size=(3, 2, 2)),
                            stds=rng.uniform(0.5, 2.0, size=(3, 2, 2)))
        path = tmp_path / "fc.csv"
        write_forecasts(fs, path)
        back = read_forecasts(path)
        assert back.times == fs.times
        np.testing.assert_array_equal(back.means, fs.means)
        np.testing.assert_array_equal(back.stds, fs.stds)

    def test_ensemble_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        fs = ForecastSeries(times=tuple(range(4)), samples=rng.normal(size=(4, 2, 3, 6)))
        path = tmp_path / "fc.csv"
        write_forecasts(fs, path)
        back = read_forecasts(path)
        np.testing.assert_array_equal(back.samples, fs.samples)

    def test_write_holds_no_file_sized_string(self, tmp_path):
        """An 8x8x60 grid of 20 members (2.2 MB of CSV) is written in
        blocks: joining the whole file into one string peaked at 11.2 MB."""
        fs = ForecastSeries(times=tuple(range(60)), samples=np.random.default_rng(4).normal(size=(60, 8, 8, 20)))
        tracemalloc.start()
        try:
            write_forecasts(fs, tmp_path / "fc.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    @staticmethod
    def read_peak(path):
        tracemalloc.start()
        try:
            read_forecasts(path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_ensemble_read_holds_no_line_list(self, tmp_path):
        """Reading the 8x8x60 grid of 20 members (2.2 MB of CSV) holds the
        file's bytes once: decoding it and splitting it into one str per
        line peaked at 18.0 MB."""
        path = tmp_path / "fc.csv"
        write_forecasts(ForecastSeries(times=tuple(range(60)),
                                       samples=np.random.default_rng(4).normal(size=(60, 8, 8, 20))), path)
        assert self.read_peak(path) < 11_000_000

    def test_gaussian_read_holds_no_line_list(self, tmp_path):
        """A Gaussian 16x16x120 grid (1.4 MB of CSV) peaked at 8.8 MB when
        read as a list of lines."""
        rng = np.random.default_rng(5)
        path = tmp_path / "fc.csv"
        write_forecasts(ForecastSeries(times=tuple(range(120)), means=rng.normal(size=(120, 16, 16)),
                                       stds=rng.uniform(0.5, 2.0, size=(120, 16, 16))), path)
        assert self.read_peak(path) < 6_000_000


EDGE_VALUES = [-0.0, 5e-324, 1e300, -1e300, 0.1, 1e-07]


def _edge_grid(kind, shape, rng):
    """A grid of ``kind`` whose first values are `EDGE_VALUES`; observations
    also hold NaN holes, their last value among them. Returns the series,
    its header and its value fields."""
    def field(*members, edges=EDGE_VALUES):
        values = rng.normal(scale=10.0, size=shape + members)
        values.flat[:len(edges)] = edges[:values.size]
        return values
    times = tuple(range(0, 3 * shape[0], 3))
    if kind == "observations":
        values = field()
        values[rng.uniform(size=shape) < 0.3] = np.nan
        values.flat[-1] = np.nan
        gs = GridSeries(times=times, values=values)
        return gs, gridio.OBS_HEADER, (gs.values,)
    if kind == "gaussian":
        fs = ForecastSeries(times=times, means=field(), stds=np.abs(field(edges=[5e-324, 1e300])))
        return fs, gridio.GAUSSIAN_HEADER, (fs.means, fs.stds)
    fs = ForecastSeries(times=times, samples=field(3))
    return fs, gridio.ENSEMBLE_HEADER, (fs.samples,)


@pytest.mark.parametrize("shape", [(1, 1, 1), (4, 2, 3)])
@pytest.mark.parametrize("kind", ["observations", "gaussian", "ensemble"])
def test_writer_matches_the_record_by_record_oracle(tmp_path, monkeypatch, kind, shape):
    """The blocked writer writes the bytes of one %-formatted record per
    grid point, with blocks that end mid-grid and a last block cut short."""
    monkeypatch.setattr(gridio, "WRITE_BLOCK", 5)
    series, header, fields = _edge_grid(kind, shape, np.random.default_rng(7))
    path = tmp_path / "grid.csv"
    (write_observations if kind == "observations" else write_forecasts)(series, path)
    assert path.read_bytes() == oracles.grid_text(header, series.times, *fields).encode("utf-8")


class Format(NamedTuple):
    header: str
    reader: Callable
    record: Callable  # (time, row, col, first value) -> CSV line
    value_name: str  # name of the first value column


FORMATS = {
    "observations": Format("time,row,col,value", read_observations,
                           lambda t, r, c, v: f"{t},{r},{c},{v}", "value"),
    "gaussian": Format("time,row,col,mean,std", read_forecasts,
                       lambda t, r, c, v: f"{t},{r},{c},{v},1.0", "mean"),
    "ensemble": Format("time,row,col,sample_idx,value", read_forecasts,
                       lambda t, r, c, v: f"{t},{r},{c},0,{v}", "value"),
}


class TestFirstError:
    """Which error a file with several problems reports."""

    @pytest.fixture(params=sorted(FORMATS))
    def fmt(self, request):
        return FORMATS[request.param]

    @staticmethod
    def read(tmp_path, fmt, records, eol="\n"):
        path = tmp_path / "grid.csv"
        path.write_bytes((eol.join([fmt.header, *records]) + eol).encode())
        return fmt.reader(path)

    def test_field_count_on_a_late_line_wins(self, tmp_path, fmt):
        rec = fmt.record
        n_fields = len(fmt.header.split(","))
        with pytest.raises(ParseError, match=f"^line 4: expected {n_fields} fields, got {n_fields + 1}$"):
            self.read(tmp_path, fmt, [rec(0, 0, 0, "abc"), rec(0, 0, 1, "1.0"), rec(0, 0, 2, "1.0") + ",9"])

    def test_leftmost_bad_column_wins(self, tmp_path, fmt):
        rec = fmt.record
        with pytest.raises(ParseError, match="^line 3: invalid row: 'x'$"):
            self.read(tmp_path, fmt, [rec(0, 0, 0, "1.0"), rec(0, "x", 1, "abc")])

    def test_duplicate_before_bad_value_wins(self, tmp_path, fmt):
        rec = fmt.record
        records = [rec(0, 0, 0, "1.0"), rec(0, 0, 1, "1.0"), rec(0, 0, 0, "2.0"),
                   rec(0, 0, 2, "1.0"), rec(0, 0, 3, "abc")]
        with pytest.raises(ParseError, match=r"^line 4: duplicate entry for \(t=0, row=0, col=0(, sample_idx=0)?\), "
                                             r"first seen on line 2$"):
            self.read(tmp_path, fmt, records)

    def test_bad_value_on_a_duplicate_line_wins(self, tmp_path, fmt):
        rec, value_name = fmt.record, fmt.value_name
        records = [rec(0, 0, 0, "1.0"), rec(0, 0, 1, "1.0"), rec(0, 0, 0, "abc")]
        with pytest.raises(ParseError, match=f"^line 4: invalid {value_name}: 'abc'$"):
            self.read(tmp_path, fmt, records)

    def test_bad_value_before_duplicate_wins(self, tmp_path, fmt):
        rec, value_name = fmt.record, fmt.value_name
        records = [rec(0, 0, 0, "1.0"), rec(0, 0, 1, "abc"), rec(0, 0, 2, "1.0"), rec(0, 0, 0, "1.0")]
        with pytest.raises(ParseError, match=f"^line 3: invalid {value_name}: 'abc'$"):
            self.read(tmp_path, fmt, records)

    def test_crlf_and_blank_lines_keep_line_numbers(self, tmp_path, fmt):
        rec, value_name = fmt.record, fmt.value_name
        records = [rec(0, 0, 0, "1.0"), "", rec(0, 0, 1, "1.0"), "", rec(0, 0, 2, "abc")]
        with pytest.raises(ParseError, match=f"^line 6: invalid {value_name}: 'abc'$"):
            self.read(tmp_path, fmt, records, eol="\r\n")

    def test_nan_only_allowed_for_observations(self, tmp_path, fmt):
        rec, value_name = fmt.record, fmt.value_name
        if fmt is FORMATS["observations"]:
            assert np.isnan(self.read(tmp_path, fmt, [rec(0, 0, 0, "NaN")]).values[0, 0, 0])
        else:
            with pytest.raises(ParseError, match=f"^line 2: {value_name} may not be NaN$"):
                self.read(tmp_path, fmt, [rec(0, 0, 0, "NaN")])

    def test_non_utf8_byte_is_a_bad_field_on_its_line(self, tmp_path, fmt):
        rec, value_name = fmt.record, fmt.value_name
        text = "\n".join([fmt.header, rec(0, 0, 0, "1.0"), rec(0, 0, 1, "1.0"), rec(0, 0, 2, "@")])
        path = tmp_path / "grid.csv"
        path.write_bytes(text.encode().replace(b"@", b"\xff"))
        with pytest.raises(ParseError, match="^line 4: " + re.escape(f"invalid {value_name}: '\\udcff'") + "$"):
            fmt.reader(path)

    def test_zero_std_names_value(self, tmp_path):
        with pytest.raises(ParseError, match=r"^line 2: nonpositive std: 0\.0$"):
            self.read(tmp_path, FORMATS["gaussian"], ["0,0,0,10.0,0"])


class TestSeriesValidation:
    def test_out_of_order_times(self):
        with pytest.raises(ValueError, match="out-of-order times"):
            GridSeries(times=(2, 1), values=np.zeros((2, 1, 1)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            GridSeries(times=(0,), values=np.zeros((2, 1, 1)))

    def test_values_must_be_three_dimensional(self):
        with pytest.raises(ValueError, match=r"^values must be a T x H x W array, got shape \(2, 2\)$"):
            GridSeries(times=(0, 1), values=np.zeros((2, 2)))

    @pytest.mark.parametrize("make, what", [
        (lambda times, t: GridSeries(times=times, values=np.zeros((t, 1, 1))), "value"),
        (lambda times, t: ForecastSeries(times=times, means=np.zeros((t, 1, 1)),
                                         stds=np.ones((t, 1, 1))), "forecast"),
        (lambda times, t: ForecastSeries(times=times, samples=np.zeros((t, 1, 1, 2))), "forecast"),
    ])
    def test_time_axis_messages(self, make, what):
        with pytest.raises(ValueError, match=rf"^2 times for 3 {what} slices$"):
            make((0, 1), 3)
        with pytest.raises(ValueError, match=r"^out-of-order times: 5 at position 2 follows 5$"):
            make((1, 5, 5), 3)
        assert make((1.0, 4), 2).times == (1, 4)
        with pytest.raises(ValueError, match=r"^non-integer time 1\.5 at position 0$"):
            make((1.5, 2.7), 2)
        with pytest.raises(ValueError, match=r"^non-integer time inf at position 1$"):
            make((0, math.inf), 2)
        with pytest.raises(ValueError, match=r"^non-integer time nan at position 0$"):
            make((math.nan, 1), 2)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_grid_series_refuses_infinite_values(self, bad):
        """NaN marks a missing value; the observation format holds no inf."""
        values = np.zeros((2, 1, 2))
        values[1, 0, 1] = bad
        with pytest.raises(ValueError, match=r"^invalid input value: infinite observation$"):
            GridSeries(times=(0, 1), values=values)

    def test_forecast_series_needs_exactly_one_representation(self):
        with pytest.raises(ValueError):
            ForecastSeries(times=(0,))
        with pytest.raises(ValueError):
            ForecastSeries(times=(0,), means=np.zeros((1, 1, 1)),
                           stds=np.ones((1, 1, 1)), samples=np.zeros((1, 1, 1, 2)))

    def test_forecast_series_positive_std(self):
        with pytest.raises(ValueError, match="nonpositive std"):
            ForecastSeries(times=(0,), means=np.zeros((1, 1, 1)), stds=np.zeros((1, 1, 1)))



OBS = "time,row,col,value\n"

# Tokens that numpy's loadtxt and Python's int/float may read differently.
# Whichever reader takes the file, it must read as int/float do: id ->
# (file text, (times, values) or the exact error).
TOKEN_CASES = {
    "key-0x1c-after": (OBS + "0\x1c,0,0,1.0\n", "line 2: invalid time: '0\\x1c'"),
    "key-0x1c-before": (OBS + "\x1c0,0,0,1.0\n", "line 2: invalid time: '\\x1c0'"),
    "key-0x1d-after": (OBS + "0\x1d,0,0,1.0\n", "line 2: invalid time: '0\\x1d'"),
    "value-0x1e-before": (OBS + "0,0,0,\x1e1.5\n", "line 2: invalid value: '\\x1e1.5'"),
    "value-0x1f-after": (OBS + "0,0,0,1.5\x1f\n", "line 2: invalid value: '1.5\\x1f'"),
    "key-1_0": (OBS + "1_0,0,0,1.0\n", ((10,), [1.0])),
    "value-1_0.5": (OBS + "0,0,0,1_0.5\n", ((0,), [10.5])),
    "key-arabic-indic-3": (OBS + "\u0663,0,0,1.0\n", ((3,), [1.0])),
    "value-arabic-indic-3": (OBS + "0,0,0,\u0663\n", ((0,), [3.0])),
    "key-spaced-5": (OBS + " 5 ,0,0,1.0\n", ((5,), [1.0])),
    "value-spaced-5": (OBS + "0,0,0, 5 \n", ((0,), [5.0])),
    "key-tab-5": (OBS + "\t5,0,0,1.0\n", ((5,), [1.0])),
    "key-+5": (OBS + "+5,0,0,1.0\n", ((5,), [1.0])),
    "key--0": (OBS + "-0,0,0,1.0\n", ((0,), [1.0])),
    "value--0": (OBS + "0,0,0,-0\n", ((0,), [-0.0])),
    "value-5.": (OBS + "0,0,0,5.\n", ((0,), [5.0])),
    "key-5.": (OBS + "5.,0,0,1.0\n", "line 2: invalid time: '5.'"),
    "value-.5": (OBS + "0,0,0,.5\n", ((0,), [0.5])),
    "key-5.0": (OBS + "5.0,0,0,1.0\n", "line 2: invalid time: '5.0'"),
    "sample_idx-1.0": ("time,row,col,sample_idx,value\n0,0,0,0,1.0\n0,0,0,1.0,2.0\n",
                       "line 3: invalid sample_idx: '1.0'"),
    "whitespace-only-line": (OBS + "0,0,0,1.0\n   \n", "line 3: expected 4 fields, got 1"),
    "lone-CR-line": (OBS + "0,0,0,1.0\n\r\n0,0,1,x\n", "line 4: invalid value: 'x'"),
    "CR-ends-a-line": (OBS + "0,0,0,1.0\r0,0,1,2.0\n", ((0,), [1.0, 2.0])),
    "CRLF-endings": (OBS.replace("\n", "\r\n") + "0,0,0,1.5\r\n0,0,1,2.5\r\n", ((0,), [1.5, 2.5])),
    "hash-suffix": (OBS + "0,0,0,1.0#c\n", "line 2: invalid value: '1.0#c'"),
    "quoted-field": (OBS + '0,0,0,"1.0"\n', "line 2: invalid value: '\"1.0\"'"),
    "std-1e500": ("time,row,col,mean,std\n0,0,0,1.0,1e500\n", "line 2: non-finite std: '1e500'"),
    "observation--nan": (OBS + "0,0,0,-nan\n", ((0,), [-math.nan])),
}


@pytest.mark.parametrize("text, expected", TOKEN_CASES.values(), ids=TOKEN_CASES.keys())
def test_tokens_read_as_python_int_and_float_read_them(tmp_path, text, expected):
    path = tmp_path / "grid.csv"
    path.write_bytes(text.encode())
    reader = read_observations if text.startswith(OBS.rstrip()) else read_forecasts
    if isinstance(expected, str):
        with pytest.raises(ParseError) as info:
            reader(path)
        assert str(info.value) == expected
    else:
        times, values = expected
        gs = reader(path)
        assert gs.times == times
        assert gs.values.tobytes() == np.array(values).tobytes()  # the sign of -0.0 and -nan too


def _line_by_line_only():
    """Keep every file away from numpy's reader."""
    return mock.patch.object(gridio, "_load_numpy", return_value=None)


def test_canonical_files_skip_the_line_by_line_reader(tmp_path):
    rng = np.random.default_rng(5)
    paths = [tmp_path / name for name in ("obs.csv", "gauss.csv", "ens.csv")]
    write_observations(random_grid_series(rng, missing=0.2), paths[0])
    write_forecasts(ForecastSeries(times=(0, 4), means=rng.normal(size=(2, 3, 2)),
                                   stds=rng.uniform(0.1, 2.0, size=(2, 3, 2))), paths[1])
    write_forecasts(ForecastSeries(times=(1, 2, 3), samples=rng.normal(size=(3, 2, 2, 5))), paths[2])
    headers = tuple(gridio._FORMATS)
    for path in paths:
        with _line_by_line_only():
            expected = gridio._read_grid(path, headers)
        with mock.patch.object(gridio, "_parse_lines", side_effect=AssertionError("line-by-line path")):
            header, times, fields = gridio._read_grid(path, headers)
        assert (header, times) == expected[:2]
        assert [f.tobytes() for f in fields] == [f.tobytes() for f in expected[2]]


def _numpy_reader_only():
    """Fail any read that reaches the line-by-line reader."""
    return mock.patch.object(gridio, "_parse_lines", side_effect=AssertionError("line-by-line path"))


VALID_TOKEN_CASES = {name: case for name, case in TOKEN_CASES.items() if not isinstance(case[1], str)}
# Valid files with a byte that numpy's C parser does not take: `_` and non-ASCII digits.
LINE_READER_TOKENS = {"key-1_0", "value-1_0.5", "key-arabic-indic-3", "value-arabic-indic-3"}


def _no_numpy_reader():
    """Fail any read that reaches numpy."""
    return mock.patch.object(np, "loadtxt", side_effect=AssertionError("numpy path"))


@pytest.mark.parametrize("name", VALID_TOKEN_CASES)
def test_valid_tokens_take_numpy_reader(tmp_path, name):
    """Fields that ``int``/``float`` accept are read by numpy's C parser when
    they hold only written bytes, space and tab, and by the line-by-line
    reader otherwise, which reads them without calling numpy at all."""
    text, expected = VALID_TOKEN_CASES[name]
    path = tmp_path / "grid.csv"
    path.write_bytes(text.encode())
    with _no_numpy_reader() if name in LINE_READER_TOKENS else _numpy_reader_only():
        gs = read_observations(path)
    assert (gs.times, gs.values.tobytes()) == (expected[0], np.array(expected[1]).tobytes())


def _bits(result):
    header, times, fields = result
    return header, times, [(f.shape, f.tobytes()) for f in fields]


ENSEMBLE_LINES = ["time,row,col,sample_idx,value", "0,0,0,0,1.5", "0,0,0,1,-2.0", "1,0,0,0,0.0", "1,0,0,1,7e-05"]


@pytest.mark.parametrize("eol", ["\r\n", "\r"], ids=["CRLF", "CR"])
def test_canonical_file_with_cr_line_ends_reads_like_its_lf_copy(tmp_path, eol):
    lf, other = tmp_path / "lf.csv", tmp_path / "other.csv"
    lf.write_bytes(("\n".join(ENSEMBLE_LINES) + "\n").encode())
    other.write_bytes((eol.join(ENSEMBLE_LINES) + eol).encode())
    headers = tuple(gridio._FORMATS)
    with _numpy_reader_only():
        assert _bits(gridio._read_grid(other, headers)) == _bits(gridio._read_grid(lf, headers))


@pytest.mark.parametrize("text", [
    "\n".join(ENSEMBLE_LINES[:3] + ["", ""] + ENSEMBLE_LINES[3:]) + "\n\n",
    "\n".join(ENSEMBLE_LINES),
], ids=["blank-lines", "no-final-newline"])
def test_blank_lines_and_missing_final_newline_take_numpy_reader(tmp_path, text):
    path = tmp_path / "grid.csv"
    path.write_bytes(text.encode())
    headers = tuple(gridio._FORMATS)
    with _line_by_line_only():
        expected = _bits(gridio._read_grid(path, headers))
    with _numpy_reader_only():
        assert _bits(gridio._read_grid(path, headers)) == expected


def test_duplicate_after_blank_line_names_file_lines_on_numpy_reader(tmp_path):
    """numpy reads the file; its repeated key sends it to the line-by-line
    reader, which names the lines."""
    path = tmp_path / "grid.csv"
    path.write_bytes(b"time,row,col,value\n0,0,0,1.0\n\n0,0,1,2.0\n\n0,0,0,3.0\n")
    message = "line 6: duplicate entry for (t=0, row=0, col=0), first seen on line 2"
    for reader in (_line_by_line_only, contextlib.nullcontext):
        with reader(), pytest.raises(ParseError) as info:
            read_observations(path)
        assert str(info.value) == message


# one small valid file of each format, canonical as `_write_grid` writes it
VALID_FILES = {
    "observations": OBS + "0,0,0,1.5\n0,0,1,NaN\n2,0,0,-0.25\n2,0,1,3e-05\n",
    "gaussian": "time,row,col,mean,std\n0,0,0,1.5,0.5\n0,1,0,-2.0,0.001\n1,0,0,0.0,2.0\n1,1,0,7.25,1e+20\n",
    "ensemble": "time,row,col,sample_idx,value\n0,0,0,0,1.5\n0,0,0,1,-2.0\n1,0,0,0,0.0\n1,0,0,1,0.00725\n",
}


def _outcome(path):
    """What `_read_grid` makes of a file: its error, or every output bit."""
    try:
        header, times, fields = gridio._read_grid(path, tuple(gridio._FORMATS))
    except ParseError as exc:
        return str(exc)
    return header, times, [(f.shape, f.dtype.str, f.tobytes()) for f in fields]


@pytest.mark.parametrize("fmt", sorted(VALID_FILES))
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_numpy_reader_agrees_with_line_by_line_reader(tmp_path_factory, fmt, data):
    """Half the files have a space or tab on both sides of every comma of
    the body, so numpy's C parser meets them too."""
    header, body = VALID_FILES[fmt].split("\n", 1)
    if data.draw(st.booleans()):
        pad = data.draw(st.sampled_from([" ", "\t"]))
        body = body.replace(",", f"{pad},{pad}")
    path = tmp_path_factory.getbasetemp() / f"mutated_{fmt}.csv"
    path.write_bytes(data.draw(mutated(f"{header}\n{body}")))
    with _line_by_line_only():
        expected = _outcome(path)
    assert _outcome(path) == expected
