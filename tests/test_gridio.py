import re
import tracemalloc
from typing import Callable, NamedTuple

import numpy as np
import pytest

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

    def test_forecast_series_needs_exactly_one_representation(self):
        with pytest.raises(ValueError):
            ForecastSeries(times=(0,))
        with pytest.raises(ValueError):
            ForecastSeries(times=(0,), means=np.zeros((1, 1, 1)),
                           stds=np.ones((1, 1, 1)), samples=np.zeros((1, 1, 1, 2)))

    def test_forecast_series_positive_std(self):
        with pytest.raises(ValueError, match="nonpositive std"):
            ForecastSeries(times=(0,), means=np.zeros((1, 1, 1)), stds=np.zeros((1, 1, 1)))

