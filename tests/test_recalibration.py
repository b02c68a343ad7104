import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocal.gridio import ForecastSeries, GridSeries
from isocal.isotonic import IsotonicMap
from isocal.metrics import calibration_error, reliability_curve
from isocal.predictive import Gaussian, cdf
from isocal.recalibration import (
    CalibratedForecaster,
    build_calibration_dataset,
    calibrated_cdf,
    calibrated_quantile,
    central_interval,
    empirical_cdf_level,
    fit_calibrator,
    grid_points,
    load_model,
    model_to_json,
    save_model,
)
from isocal.synth import SynthConfig, generate, true_recalibration_map

import oracles

LEVELS_19 = np.round(np.arange(1, 20) * 0.05, 10)


def identity_calibrator():
    return CalibratedForecaster("pooled", (IsotonicMap([0.0, 1.0], [0.0, 1.0]),))


def constant_calibrator(value=0.5):
    return CalibratedForecaster("pooled", (IsotonicMap([0.5], [value]),))


class TestEmpiricalCdfLevel:
    def test_counts_strictly_below(self):
        assert empirical_cdf_level([0.2, 0.5, 0.9], 0.5) == pytest.approx(1 / 3)

    def test_zero_level(self):
        assert empirical_cdf_level([0.2, 0.5, 0.9], 0.0) == 0.0

    def test_top_level(self):
        assert empirical_cdf_level([0.2, 0.5, 0.9], 1.0) == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            empirical_cdf_level([], 0.5)


class TestBuildCalibrationDataset:
    def test_two_point_example(self):
        pairs = build_calibration_dataset([Gaussian(0, 1), Gaussian(0, 1)], [0.0, 10.0])
        assert pairs[0].c == pytest.approx(0.5)
        assert pairs[0].y == 0.0
        assert pairs[1].c == pytest.approx(1.0, abs=1e-12)
        assert pairs[1].y == 0.5

    def test_identical_points_share_zero_level(self):
        pairs = build_calibration_dataset([Gaussian(1, 2)] * 3, [1.5] * 3)
        assert all(p.y == 0.0 for p in pairs)

    def test_all_median_observations(self):
        pairs = build_calibration_dataset([Gaussian(m, 1.0) for m in range(4)],
                                          [float(m) for m in range(4)])
        assert all(p.c == pytest.approx(0.5) for p in pairs)
        assert all(p.y == 0.0 for p in pairs)

    def test_too_small(self):
        with pytest.raises(ValueError, match="calibration set too small"):
            build_calibration_dataset([Gaussian(0, 1)], [0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            build_calibration_dataset([Gaussian(0, 1)] * 3, [0.0, 1.0])

    @given(st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)), min_size=2, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_levels_live_on_the_count_grid(self, draws):
        forecasts = [Gaussian(m, 1.0) for m, _ in draws]
        obs = [y for _, y in draws]
        pairs = build_calibration_dataset(forecasts, obs)
        n = len(pairs)
        for p in pairs:
            assert 0.0 <= p.c <= 1.0
            assert 0.0 <= p.y <= 1.0
            assert p.y in {i / n for i in range(n)}


class TestFitCalibrator:
    def test_uniform_input_gives_near_identity(self):
        forecasts, obs = generate(SynthConfig(n=5000, alpha=1.0, seed=7))
        cf = fit_calibrator(forecasts, obs)
        grid = np.linspace(0.0, 1.0, 401)
        assert np.max(np.abs(cf.maps[0].evaluate(grid) - grid)) <= 0.05

    def test_overdispersed_recovers_analytic_map(self):
        forecasts, obs = generate(SynthConfig(n=20000, alpha=2.0, seed=42))
        cf = fit_calibrator(forecasts, obs)
        ps = np.arange(0.05, 0.9501, 0.005)
        assert np.max(np.abs(cf.maps[0].evaluate(ps) - true_recalibration_map(2.0, ps))) <= 0.02

    def test_single_point_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            fit_calibrator([Gaussian(0, 1)], [0.0])

    def test_per_cell_requires_grids(self):
        with pytest.raises(ValueError, match="gridded"):
            fit_calibrator([Gaussian(0, 1)] * 40, [0.0] * 40, scope="per_cell")

    def test_per_cell_insufficient_points_names_cell(self):
        times = tuple(range(10))
        fs = ForecastSeries(times=times, means=np.zeros((10, 2, 2)), stds=np.ones((10, 2, 2)))
        gs = GridSeries(times=times, values=np.zeros((10, 2, 2)))
        with pytest.raises(ValueError, match=r"cell \(0, 0\) has 10"):
            fit_calibrator(fs, gs, scope="per_cell")

    def test_per_cell_counts_missing_steps(self):
        rng = np.random.default_rng(3)
        t, h, w = 60, 2, 2
        values = rng.normal(size=(t, h, w))
        values[5, 0, 0] = np.nan
        fs = ForecastSeries(times=tuple(range(t)), means=np.zeros((t, h, w)),
                            stds=np.ones((t, h, w)))
        gs = GridSeries(times=tuple(range(t)), values=values)
        cf = fit_calibrator(fs, gs, scope="per_cell", min_points_per_cell=30)
        assert cf.scope == "per_cell"
        assert len(cf.maps) == 4
        forecasts, obs, (rows, cols) = grid_points(fs, gs)
        assert np.count_nonzero((rows == 0) & (cols == 0)) == t - 1
        assert np.count_nonzero((rows == 0) & (cols == 1)) == t
        assert np.all(np.diff(rows * w + cols) >= 0)  # cell-major
        assert np.array_equal(obs, np.moveaxis(values, 0, -1)[np.isfinite(np.moveaxis(values, 0, -1))])


class TestCalibratedQueries:
    def test_identity_map_leaves_cdf_alone(self):
        cf = identity_calibrator()
        d = Gaussian(1.0, 2.0)
        for y in (-2.0, 0.5, 4.0):
            assert calibrated_cdf(cf, d, y) == pytest.approx(cdf(d, y), abs=1e-12)

    def test_constant_map_pins_cdf(self):
        cf = constant_calibrator(0.5)
        assert calibrated_cdf(cf, Gaussian(0, 1), 12.3) == 0.5

    def test_fitted_map_collapses_overdispersion(self):
        forecasts, obs = generate(SynthConfig(n=20000, alpha=2.0, seed=42))
        cf = fit_calibrator(forecasts, obs)
        assert calibrated_cdf(cf, Gaussian(0, 2), 0.8) == pytest.approx(oracles.PHI_AT_08, abs=0.03)

    def test_identity_median(self):
        q = calibrated_quantile(identity_calibrator(), Gaussian(10, 2), 0.5)
        assert q.value == pytest.approx(10.0, abs=1e-9)
        assert not q.saturated

    def test_overdispersed_quantile_shrinks(self):
        forecasts, obs = generate(SynthConfig(n=20000, alpha=2.0, seed=42))
        cf = fit_calibrator(forecasts, obs)
        q = calibrated_quantile(cf, Gaussian(0, 2), 0.975)
        assert q.value == pytest.approx(1.96, abs=0.1)

    def test_constant_map_saturates(self):
        cf = constant_calibrator(0.5)
        assert calibrated_quantile(cf, Gaussian(0, 1), 0.4).saturated
        assert calibrated_quantile(cf, Gaussian(0, 1), 0.6).saturated

    def test_quantile_level_bounds(self):
        with pytest.raises(ValueError, match="out of range"):
            calibrated_quantile(identity_calibrator(), Gaussian(0, 1), 1.0)

    def test_identity_central_interval(self):
        lo, hi = central_interval(identity_calibrator(), Gaussian(0, 1), 0.9)
        assert lo == pytest.approx(-oracles.Z_095, abs=1e-3)
        assert hi == pytest.approx(oracles.Z_095, abs=1e-3)

    def test_interval_collapses_to_median(self):
        cf = identity_calibrator()
        d = Gaussian(3.0, 1.5)
        lo, hi = central_interval(cf, d, 1e-6)
        assert lo == pytest.approx(3.0, abs=1e-3)
        assert hi == pytest.approx(3.0, abs=1e-3)

    def test_fitted_interval_matches_truth(self):
        forecasts, obs = generate(SynthConfig(n=20000, alpha=2.0, seed=42))
        cf = fit_calibrator(forecasts, obs)
        lo, hi = central_interval(cf, Gaussian(0, 2), 0.9)
        assert lo == pytest.approx(-oracles.Z_095, abs=0.15)
        assert hi == pytest.approx(oracles.Z_095, abs=0.15)

    @given(st.floats(0.05, 0.5), st.floats(0.5, 0.95))
    @settings(max_examples=50, deadline=None)
    def test_intervals_nest(self, l1, l2):
        cf = identity_calibrator()
        d = Gaussian(0.0, 1.0)
        lo_n, hi_n = central_interval(cf, d, min(l1, l2))
        lo_w, hi_w = central_interval(cf, d, max(l1, l2))
        assert lo_w <= lo_n + 1e-12 and hi_n <= hi_w + 1e-12


class TestStatisticalGuarantees:
    @pytest.mark.parametrize("alpha,seed", [(0.5, 101), (1.0, 102), (2.0, 103)])
    def test_held_out_coverage(self, alpha, seed):
        fit_fc, fit_obs = generate(SynthConfig(n=5000, alpha=alpha, seed=seed))
        cf = fit_calibrator(fit_fc, fit_obs)
        test_fc, test_obs = generate(SynthConfig(n=5000, alpha=alpha, seed=seed + 1000))
        levels = np.round(np.arange(1, 10) * 0.1, 10)
        curve = reliability_curve(test_fc, test_obs, levels, cf)
        assert np.max(np.abs(curve.empirical - levels)) <= 0.02

    def test_recalibrating_calibrated_forecaster_is_neutral(self):
        n = 5000
        fit_fc, fit_obs = generate(SynthConfig(n=n, alpha=1.0, seed=55))
        cf = fit_calibrator(fit_fc, fit_obs)
        test_fc, test_obs = generate(SynthConfig(n=n, alpha=1.0, seed=56))
        ce_raw = calibration_error(reliability_curve(test_fc, test_obs, LEVELS_19))
        ce_cal = calibration_error(reliability_curve(test_fc, test_obs, LEVELS_19, cf))
        assert abs(ce_cal - ce_raw) <= 2.0 / np.sqrt(n)


class TestModelFile:
    def test_round_trip_pooled(self, tmp_path):
        forecasts, obs = generate(SynthConfig(n=200, alpha=2.0, seed=1))
        cf = fit_calibrator(forecasts, obs)
        path = tmp_path / "model.json"
        save_model(cf, path)
        loaded = load_model(path)
        assert loaded.scope == "pooled"
        assert loaded.h == 0 and loaded.w == 0
        np.testing.assert_array_equal(loaded.maps[0].breakpoints, cf.maps[0].breakpoints)
        np.testing.assert_array_equal(loaded.maps[0].values, cf.maps[0].values)

    def test_round_trip_per_cell(self, tmp_path):
        rng = np.random.default_rng(9)
        t, h, w = 40, 2, 3
        fs = ForecastSeries(times=tuple(range(t)), means=rng.normal(size=(t, h, w)),
                            stds=np.full((t, h, w), 1.5))
        gs = GridSeries(times=tuple(range(t)), values=rng.normal(size=(t, h, w)))
        cf = fit_calibrator(fs, gs, scope="per_cell", min_points_per_cell=10)
        path = tmp_path / "model.json"
        save_model(cf, path)
        loaded = load_model(path)
        assert loaded.scope == "per_cell" and (loaded.h, loaded.w) == (h, w)
        assert len(loaded.maps) == h * w
        for a, b in zip(loaded.maps, cf.maps):
            np.testing.assert_array_equal(a.breakpoints, b.breakpoints)
            np.testing.assert_array_equal(a.values, b.values)

    def test_schema_fields(self):
        doc = json.loads(model_to_json(identity_calibrator()))
        assert doc == {"version": 1, "scope": "pooled", "h": 0, "w": 0,
                       "interpolation": "linear",
                       "maps": [{"breakpoints": [0.0, 1.0], "values": [0.0, 1.0]}]}

    def test_floats_carry_full_precision(self):
        cf = CalibratedForecaster("pooled", (IsotonicMap([0.1, 0.9], [0.1, 0.9]),))
        text = model_to_json(cf)
        assert "0.10000000000000001" in text  # 17 significant digits of 0.1

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99}')
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="malformed"):
            load_model(path)


class TestGridAlignment:
    def test_dimension_mismatch(self):
        fs = ForecastSeries(times=(0, 1), means=np.zeros((2, 2, 2)), stds=np.ones((2, 2, 2)))
        gs = GridSeries(times=(0, 1), values=np.zeros((2, 3, 2)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            grid_points(fs, gs)

    def test_time_axis_mismatch(self):
        fs = ForecastSeries(times=(0, 1), means=np.zeros((2, 1, 1)), stds=np.ones((2, 1, 1)))
        gs = GridSeries(times=(0, 2), values=np.zeros((2, 1, 1)))
        with pytest.raises(ValueError, match="time axes"):
            grid_points(fs, gs)

    def test_per_cell_lookup_bounds(self):
        cf = identity_calibrator()
        assert cf.map_for((5, 5)) is cf.maps[0]  # pooled ignores the cell
        per_cell = CalibratedForecaster(
            "per_cell", tuple(IsotonicMap([0.5], [0.5]) for _ in range(4)), h=2, w=2)
        with pytest.raises(ValueError, match="cell out of range"):
            per_cell.map_for((2, 0))
        with pytest.raises(ValueError, match="requires a cell"):
            per_cell.map_for(None)
        rows, cols = np.array([0, 1, 1, 0]), np.array([1, 0, 1, 0])
        assert np.array_equal(per_cell._map_index((rows, cols)), [1, 2, 3, 0])
        assert cf._map_index((rows, cols)) == 0
        with pytest.raises(ValueError, match=r"cell out of range: \(2, 1\) for 2x2 grid"):
            per_cell._map_index((np.array([0, 2, 5]), np.array([1, 1, 0])))
        with pytest.raises(ValueError, match=r"cell out of range: \(0, -1\)"):
            per_cell._map_index((np.array([0, 0]), np.array([0, -1])))
