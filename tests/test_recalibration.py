import itertools
import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocal.gridio import ForecastSeries, GridSeries
import isocal.isotonic
import isocal.recalibration
from isocal.isotonic import IsotonicMap, fit_isotonic
from isocal.metrics import calibration_error, reliability_curve
from isocal.predictive import Empirical, Gaussian, cdf, quantile
from isocal.recalibration import (
    IDENTITY,
    CalibratedForecaster,
    build_calibration_dataset,
    calibrated_cdf,
    calibrated_quantile,
    central_interval,
    fit_calibrator,
    grid_points,
    load_model,
    model_to_json,
    save_model,
)
from isocal.synth import SynthConfig, generate, generate_gridded, true_recalibration_map

import oracles

LEVELS_19 = np.round(np.arange(1, 20) * 0.05, 10)


def identity_calibrator():
    return CalibratedForecaster("pooled", *oracles.knot_table([IsotonicMap([0.0, 1.0], [0.0, 1.0])]))


def constant_calibrator(value=0.5):
    return CalibratedForecaster("pooled", *oracles.knot_table([IsotonicMap([0.5], [value])]))


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

    @pytest.mark.parametrize("scope", ["pooled", "per_cell"])
    def test_grids_without_an_observation_are_refused(self, scope):
        times = tuple(range(10))
        fs = ForecastSeries(times=times, means=np.zeros((10, 2, 2)), stds=np.ones((10, 2, 2)))
        gs = GridSeries(times=times, values=np.full((10, 2, 2), np.nan))
        with pytest.raises(ValueError, match="^no valid forecast/observation pairs$"):
            fit_calibrator(fs, gs, scope=scope)

    @pytest.mark.parametrize("scope", ["per-cell", "cells"])
    def test_unknown_scope_is_refused_by_the_model(self, scope):
        with pytest.raises(ValueError, match=f"^unknown scope: '{scope}'$"):
            fit_calibrator([Gaussian(0, 1)] * 4, [0.0, 1.0, -1.0, 0.5], scope=scope)

    def test_per_cell_insufficient_points_names_cell(self):
        times = tuple(range(10))
        fs = ForecastSeries(times=times, means=np.zeros((10, 2, 2)), stds=np.ones((10, 2, 2)))
        gs = GridSeries(times=times, values=np.zeros((10, 2, 2)))
        with pytest.raises(ValueError, match=r"cell \(0, 0\) has 10"):
            fit_calibrator(fs, gs, scope="per_cell")

    @pytest.mark.parametrize("min_points, valid", [(1, 1), (0, 0)])
    def test_per_cell_needs_two_points_whatever_the_minimum(self, min_points, valid):
        times = tuple(range(10))
        values = np.zeros((10, 2, 2))
        values[valid:, 1, 0] = np.nan
        fs = ForecastSeries(times=times, means=np.zeros((10, 2, 2)), stds=np.ones((10, 2, 2)))
        gs = GridSeries(times=times, values=values)
        with pytest.raises(ValueError, match=rf"cell \(1, 0\) has {valid} calibration points, need at least 2"):
            fit_calibrator(fs, gs, scope="per_cell", min_points_per_cell=min_points)

    def test_runs_no_pava(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("fit_isotonic called")
        for module in (isocal.isotonic, isocal.recalibration):
            monkeypatch.setattr(module, "fit_isotonic", refuse)
        fs, gs = reference_grids(5, seed=4)
        for scope in ("pooled", "per_cell"):
            fit_calibrator(fs, gs, scope=scope, min_points_per_cell=2)

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


def reference_grids(k, seed, t=30, h=3, w=4):
    """Forecast and observation grids with integer outcomes and some NaNs.

    ``k = 0`` gives Gaussians with integer means and two spreads, so PIT
    values tie; otherwise integer-valued ensembles of k members, so
    outcomes often equal a member or fall outside every member (PIT 0 or 1).
    """
    rng = np.random.default_rng(seed)
    values = np.round(rng.normal(scale=2.0, size=(t, h, w)))
    values[rng.random((t, h, w)) < 0.15] = np.nan
    if k == 0:
        fs = ForecastSeries(times=tuple(range(t)), means=np.round(rng.normal(size=(t, h, w))),
                            stds=rng.choice([1.0, 2.0], size=(t, h, w)))
    else:
        fs = ForecastSeries(times=tuple(range(t)), samples=np.round(rng.normal(size=(t, h, w, k))))
    return fs, GridSeries(times=tuple(range(t)), values=values)


def isotonic_reference(forecasts, obs, interpolation):
    """The PAVA fit of the calibration pairs: what every fitted map must equal."""
    pairs = build_calibration_dataset(forecasts, obs)
    return fit_isotonic([p.c for p in pairs], [p.y for p in pairs], interpolation=interpolation)


def assert_same_map(got, want):
    assert got.interpolation == want.interpolation
    assert got.breakpoints.tobytes() == want.breakpoints.tobytes()
    assert got.values.tobytes() == want.values.tobytes()


class TestFitMatchesIsotonicReference:
    """`fit_calibrator` builds each map directly; PAVA on the calibration
    pairs is the reference it must match bit for bit."""

    @pytest.mark.parametrize("mode", ["linear", "step"])
    @pytest.mark.parametrize("k", [0, 2, 5, 20])
    def test_pooled_and_per_cell(self, k, mode):
        fs, gs = reference_grids(k, seed=k + 1)
        cols, obs, (rows, col_index) = grid_points(fs, gs)
        assert obs.size < gs.values.size  # some observations are missing
        if k:
            c = np.array([p.c for p in build_calibration_dataset(cols, obs)])
            assert (c == 0.0).any() and (c == 1.0).any()
            assert (cols.samples == obs[:, None]).any()
        assert_same_map(fit_calibrator(fs, gs, interpolation=mode).maps[0],
                        isotonic_reference(cols, obs, mode))
        cf = fit_calibrator(fs, gs, scope="per_cell", interpolation=mode, min_points_per_cell=2)
        for r in range(gs.h):
            for c in range(gs.w):
                here = (rows == r) & (col_index == c)
                assert_same_map(cf.map_for((r, c)), isotonic_reference(cols[here], obs[here], mode))

    @pytest.mark.parametrize("mode", ["linear", "step"])
    def test_flat_mixed_list(self, mode):
        forecasts, obs = [], []
        for k in (0, 2, 5, 20):
            cols, o, _ = grid_points(*reference_grids(k, seed=10 + k))
            forecasts += ([Gaussian(m, s) for m, s in zip(cols.means, cols.stds)] if k == 0
                          else [Empirical(row) for row in cols.samples])
            obs += o.tolist()
        assert_same_map(fit_calibrator(forecasts, obs, interpolation=mode).maps[0],
                        isotonic_reference(forecasts, obs, mode))


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

    def test_calibrated_cdf_builds_no_map(self, monkeypatch):
        """`calibrated_cdf` reads the model's knot table at the cell's map:
        with `IsotonicMap` unbuildable it gives what that map evaluates to."""
        fs, gs = generate_gridded(SynthConfig(alpha=2.0, seed=5, grid=(2, 3, 40)))
        models = [fit_calibrator(fs, gs), fit_calibrator(fs, gs, scope="per_cell", interpolation="step")]
        queries = [(cf, d, y, cell) for cf in models for cell in [(0, 0), (1, 2)]
                   for d, y in [(Gaussian(0.0, 2.0), 0.8), (Empirical([-1.0, 0.0, 2.0]), -0.5)]]
        expected = [cf.map_for(cell).evaluate(cdf(d, y)) for cf, d, y, cell in queries]
        assert len(set(expected)) > 4

        def refuse(self):
            raise AssertionError("IsotonicMap built")

        monkeypatch.setattr(IsotonicMap, "__post_init__", refuse)
        assert [calibrated_cdf(cf, d, y, cell) for cf, d, y, cell in queries] == expected
        with pytest.raises(AssertionError, match="IsotonicMap built"):
            models[1].map_for((0, 0))

    def test_identity_median(self):
        q = calibrated_quantile(identity_calibrator(), Gaussian(10, 2), 0.5)
        assert q.value == pytest.approx(10.0, abs=1e-9)
        assert not q.saturated
        for d in (Gaussian(1.0, 2.0), Empirical(np.array([-1.0, 0.5, 2.0, 4.0]))):
            for p in (1e-9, 0.05, 0.5, 0.7, 1 - 1e-9):  # the raw quantile, bit for bit
                assert calibrated_quantile(IDENTITY, d, p) == (quantile(d, p), False)

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

    @staticmethod
    def edge_model(scope, interpolation="linear"):
        """Knots at 0 and 1, the smallest subnormal and normal doubles, the
        double just below 1, and 0.1 and 1/3, whose 17-digit and shortest
        spellings differ."""
        knots = [0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1 / 3, np.nextafter(1.0, 0.0), 1.0]
        maps = (IsotonicMap(knots, knots, interpolation),
                IsotonicMap(knots[1:], knots[:-1], interpolation))
        if scope == "pooled":
            return CalibratedForecaster(scope, *oracles.knot_table(maps[:1]))
        return CalibratedForecaster(scope, *oracles.knot_table(maps), h=1, w=2)

    def test_floats_carry_full_precision(self, tmp_path):
        path = tmp_path / "model.json"
        for scope, interpolation in itertools.product(("pooled", "per_cell"), ("linear", "step")):
            cf = self.edge_model(scope, interpolation)
            save_model(cf, path)
            loaded = load_model(path)
            assert (loaded.scope, loaded.interpolation) == (scope, interpolation)
            for a, b in zip(loaded.maps, cf.maps, strict=True):
                assert a.breakpoints.tobytes() == b.breakpoints.tobytes()
                assert a.values.tobytes() == b.values.tobytes()

    def test_seventeen_digit_file_loads_to_the_same_maps(self, tmp_path):
        """Files that spell every knot with 17 significant digits, as
        earlier releases wrote them, reload to the same doubles."""
        cf = self.edge_model("per_cell")
        new = tmp_path / "new.json"
        save_model(cf, new)

        def knots(xs):
            return "[" + ", ".join(format(x, ".17g") for x in xs) + "]"
        maps = ", ".join(f'{{"breakpoints": {knots(m.breakpoints)}, "values": {knots(m.values)}}}'
                         for m in cf.maps)
        head = '{"version": 1, "scope": "per_cell", "h": 1, "w": 2, "interpolation": "linear", "maps": '
        old = tmp_path / "old.json"
        old.write_text(f"{head}[{maps}]}}\n")
        respelled = re.sub(r"\d[\d.e+-]*", lambda t: repr(float(t.group())), maps)
        assert new.read_text() == f"{head}[{respelled}]}}\n"  # only the knot spelling differs
        for a, b in zip(load_model(old).maps, load_model(new).maps, strict=True):
            assert a.breakpoints.tobytes() == b.breakpoints.tobytes()
            assert a.values.tobytes() == b.values.tobytes()

    @pytest.mark.parametrize("interpolation", ["linear", "step"])
    @pytest.mark.parametrize("scope", ["pooled", "per_cell"])
    def test_file_is_the_json_modules_output(self, tmp_path, monkeypatch, scope, interpolation):
        """The file, and `model_to_json`, hold the bytes the json module
        writes for the model document, with maps of block - 1, block and
        block + 1 knots (and a fitted one) straddling the writer's blocks."""
        monkeypatch.setattr(isocal.recalibration, "MODEL_BLOCK", 3)
        knots = [0.0, 5e-324, 1e-07, 0.1, 1.0]
        maps = [IsotonicMap(knots[:n], knots[-n:], interpolation) for n in (2, 3, 4)]
        if scope == "pooled":
            forecasts, obs = generate(SynthConfig(n=200, alpha=2.0, seed=1))
            models = [CalibratedForecaster(scope, *oracles.knot_table([m])) for m in maps]
            models.append(fit_calibrator(forecasts, obs, interpolation=interpolation))
        else:
            models = [CalibratedForecaster(scope, *oracles.knot_table(maps), h=1, w=3)]
        path = tmp_path / "model.json"
        for cf in models:
            save_model(cf, path)
            expected = json.dumps(oracles.model_doc(cf), allow_nan=False) + "\n"
            assert path.read_bytes() == model_to_json(cf).encode("utf-8") == expected.encode("utf-8")

    def test_save_holds_no_file_sized_string(self, tmp_path):
        """A 30,720-knot pooled model (about 1.2 MB of JSON) is written in
        blocks: the json module's writer peaked at 2.5 MB here."""
        rng = np.random.default_rng(0)
        bp = np.unique(rng.uniform(size=30_720))
        cf = CalibratedForecaster("pooled", bp, np.arange(bp.size) / bp.size, [0])
        tracemalloc.start()
        try:
            save_model(cf, tmp_path / "model.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_500_000

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_map_boundaries(self, tmp_path_factory, data):
        """Random per-cell tables reload bit for bit; order is checked
        within maps only; a repeat, a decrease or an empty map is refused,
        and the error names that map."""
        h, w = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 3))
        mode = data.draw(st.sampled_from(["linear", "step"]))
        maps = []
        for _ in range(h * w):
            bp = sorted(data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6, unique=True)))
            vals = sorted(data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(bp), max_size=len(bp))))
            maps.append(IsotonicMap(bp, vals, mode))
        # Each map begins at or below where the previous one begins, so at
        # or below where it ends: order breaks at every map start.
        maps.sort(key=lambda m: -m.breakpoints[0])
        cf = CalibratedForecaster("per_cell", *oracles.knot_table(maps), h=h, w=w)
        assert np.all(np.diff(cf.breakpoints)[cf.starts[1:] - 1] <= 0.0)
        path = tmp_path_factory.getbasetemp() / "boundaries.json"
        with mock.patch.object(isocal.recalibration, "MODEL_BLOCK", data.draw(st.integers(1, 4))):
            save_model(cf, path)
        assert path.read_text() == json.dumps(oracles.model_doc(cf), allow_nan=False) + "\n"
        loaded = load_model(path)
        for field in ("breakpoints", "values", "starts"):
            assert getattr(loaded, field).tobytes() == getattr(cf, field).tobytes()
        assert (loaded.scope, loaded.interpolation, loaded.h, loaded.w) == ("per_cell", mode, h, w)

        i = data.draw(st.integers(0, h * w - 1))
        doc = json.loads(path.read_text())
        bp, vals = doc["maps"][i]["breakpoints"], doc["maps"][i]["values"]
        k = data.draw(st.integers(0, len(bp) - 1))
        damage = data.draw(st.sampled_from(["repeat", "decrease", "values"]))
        if damage == "values" and vals[0] < vals[-1]:
            vals.reverse()
            rule = "values must be nondecreasing"
        else:  # knot k again right after itself, or at half its breakpoint
            bp.insert(k + 1, bp[k] / 2 if damage == "decrease" else bp[k])
            vals.insert(k + 1, vals[k])
            rule = "breakpoints must be strictly increasing"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^model map {i}: {rule}$"):
            load_model(path)

        doc["maps"][i] = {"breakpoints": [], "values": []}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^model map {i} needs 'breakpoints' and 'values' lists, nonempty"):
            load_model(path)
        starts = np.r_[cf.starts, cf.breakpoints.size]
        starts[i] = starts[i + 1]  # map i holds no knot
        with pytest.raises(ValueError, match="each map holding at least one knot"):
            CalibratedForecaster("per_cell", cf.breakpoints, cf.values, starts[:-1], mode, h=h, w=w)

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99}')
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    @pytest.mark.parametrize("version", ["true", "1.0"])
    def test_version_must_be_an_integer(self, tmp_path, version):
        cf = fit_calibrator([Gaussian(0.0, 1.0)] * 2, [0.0, 1.0])
        path = tmp_path / "model.json"
        path.write_text(model_to_json(cf).replace('"version": 1', f'"version": {version}'))
        with pytest.raises(ValueError, match=f"^unsupported model version: {json.loads(version)!r}$"):
            load_model(path)

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="malformed"):
            load_model(path)


def _model_file(tmp_path, **changes):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**json.loads(model_to_json(identity_calibrator())), **changes}))
    return path


@pytest.mark.parametrize("make, message", [
    (lambda _: CalibratedForecaster("per_cell", [0.0, 1.0], [0.0, 1.0], [0], h=0, w=2),
     "per_cell scope needs positive grid dims"),
    (lambda _: CalibratedForecaster("per_cell", [0.0, 1.0], [0.0, 1.0], [0], h=1, w=2),
     "per_cell scope needs 2 map(s), got 1"),
    (lambda _: fit_calibrator([Gaussian(0, 1)] * 3, GridSeries(times=(0,), values=np.zeros((1, 1, 3)))),
     "forecasts and observations must both be flat or both gridded"),
    (lambda _: central_interval(identity_calibrator(), Gaussian(0, 1), 1.0),
     "interval level out of range: 1.0"),
    (lambda tmp_path: load_model(_model_file(tmp_path, h=1.5)), "model field 'h' must be an integer, got 1.5"),
    (lambda tmp_path: load_model(_model_file(tmp_path, maps={})), "model field 'maps' must be a list"),
], ids=["no-grid-dims", "map-count", "flat-with-grid", "interval-level", "float-h", "maps-dict"])
def test_refusal_names_its_rule(tmp_path, make, message):
    with pytest.raises(ValueError) as info:
        make(tmp_path)
    assert str(info.value) == message


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
        assert_same_map(cf.map_for((5, 5)), cf.maps[0])  # pooled ignores the cell
        per_cell = CalibratedForecaster(
            "per_cell", *oracles.knot_table([IsotonicMap([0.5], [0.5])] * 4), h=2, w=2)
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
