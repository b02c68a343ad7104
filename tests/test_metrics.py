import argparse
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocal import metrics
from isocal.cli import _parse_levels
from isocal.isotonic import IsotonicMap
from isocal.metrics import (
    ReliabilityCurve,
    calibration_error,
    check_levels,
    coverage,
    interval_coverage,
    mae_mid_quantile,
    reliability_curve,
    sharpness,
    write_reliability_csv,
)
from isocal.predictive import Empirical, ForecastColumns, Gaussian
from isocal.recalibration import IDENTITY, CalibratedForecaster, fit_calibrator
from isocal.synth import SynthConfig, generate

import oracles

LEVELS_19 = np.round(np.arange(1, 20) * 0.05, 10)


def identity_calibrator():
    return CalibratedForecaster("pooled", *oracles.knot_table([IsotonicMap([0.0, 1.0], [0.0, 1.0])]))


class TestCoverage:
    def test_huge_bounds_cover_everything(self):
        assert coverage([1e12, 1e12], [5.0, -3.0]) == 1.0

    def test_non_strict_comparison(self):
        assert coverage([0.0, 0.0, 0.0], [-1.0, 0.0, 1.0]) == pytest.approx(2 / 3)

    def test_equal_bounds_count_as_covered(self):
        obs = [1.0, 2.0, 3.0]
        assert coverage(obs, obs) == 1.0

    def test_rejects_empty_and_mismatch(self):
        with pytest.raises(ValueError):
            coverage([], [])
        with pytest.raises(ValueError):
            coverage([1.0], [1.0, 2.0])

    @given(st.lists(st.floats(-5, 5), min_size=3, max_size=30),
           st.floats(0.05, 0.45), st.floats(0.5, 0.95))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_level(self, obs, p_lo, p_hi):
        forecasts = [Gaussian(0.0, 1.0)] * len(obs)
        lo = coverage([oracles.normal_quantile(p_lo)] * len(obs), obs)
        hi = coverage([oracles.normal_quantile(p_hi)] * len(obs), obs)
        assert lo <= hi

    def test_interval_coverage(self):
        assert interval_coverage([0.0, 0.0], [1.0, 1.0], [0.5, 2.0]) == 0.5

    @pytest.mark.parametrize("bounds, obs, message", [
        ([[1.0], [2.0]], [1.0, 2.0], "bounds need ndim 1, got 2"),
        ([1.0], [1.0, 2.0], "1 forecasts for 2 observations"),
        ([], [], "no forecast/observation pairs"),
        ([1.0, 1.0], [0.0, np.inf], "invalid input value: infinite observation"),
        ([1.0, 1.0], [-np.inf, 0.0], "invalid input value: infinite observation"),
    ])
    def test_coverage_refusals(self, bounds, obs, message):
        lows = np.zeros(np.shape(bounds))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            coverage(bounds, obs)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            interval_coverage(lows, bounds, obs)

    def test_interval_bounds_of_two_shapes_are_refused(self):
        with pytest.raises(ValueError, match=r"^lower bounds of shape \(2,\) for upper bounds of shape \(3,\)$"):
            interval_coverage([0.0, 0.0], [1.0, 1.0, 1.0], [0.5, 0.5, 0.5])

    def test_a_missing_outcome_is_refused(self):
        obs = [0.0, np.nan, 2.0, 1.0]
        for score in (lambda: coverage([1.0] * 4, obs), lambda: interval_coverage([-1.0] * 4, [1.0] * 4, obs)):
            with pytest.raises(ValueError, match="^invalid input value: NaN observation$"):
                score()


class TestReliabilityCurve:
    def test_calibrated_forecaster_hugs_diagonal(self):
        forecasts, obs = generate(SynthConfig(n=100_000, alpha=1.0, seed=11))
        curve = reliability_curve(forecasts, obs, np.round(np.arange(1, 10) * 0.1, 10))
        assert np.max(np.abs(curve.empirical - curve.levels)) <= 0.01

    def test_overdispersed_frequency_matches_analytic_value(self):
        forecasts, obs = generate(SynthConfig(n=100_000, alpha=2.0, seed=12))
        curve = reliability_curve(forecasts, obs, [0.9])
        assert curve.empirical[0] == pytest.approx(oracles.DISPERSED_A2_P09, abs=0.005)

    def test_all_observations_below_median(self):
        forecasts = [Gaussian(10.0, 1.0)] * 5
        curve = reliability_curve(forecasts, [0.0] * 5, [0.5])
        assert curve.empirical[0] == 1.0

    def test_unit_weights(self):
        forecasts = [Gaussian(0.0, 1.0)] * 3
        curve = reliability_curve(forecasts, [0.0] * 3, LEVELS_19)
        assert np.all(curve.weights == 1.0)

    def test_rejects_boundary_levels(self):
        with pytest.raises(ValueError):
            reliability_curve([Gaussian(0, 1)], [0.0], [0.0, 0.5])

    def test_rejects_nan_level_before_inverting(self):
        with pytest.raises(ValueError, match=r"strictly inside \(0, 1\)"):
            reliability_curve([Gaussian(0, 1)], [0.0], [0.5, np.nan])

    def test_in_sample_fit_tracks_grid_levels(self):
        n = 2000
        forecasts, obs = generate(SynthConfig(n=n, alpha=2.0, seed=13))
        cf = fit_calibrator(forecasts, obs)
        curve = reliability_curve(forecasts, obs, LEVELS_19, cf)
        assert np.max(np.abs(curve.empirical - curve.levels)) <= 1.0 / np.sqrt(n) + 1.0 / n

    @pytest.mark.parametrize("kind", ["gaussian", "ensemble"])
    def test_missing_outcome_is_refused(self, kind):
        forecasts = ([Gaussian(0.0, 1.0)] * 3 if kind == "gaussian"
                     else [Empirical([-1.0, 0.0, 1.0])] * 3)
        for cf in (None, identity_calibrator()):
            with pytest.raises(ValueError, match="^invalid input value: NaN observation$"):
                reliability_curve(forecasts, [np.nan, -0.5, 0.5], LEVELS_19, cf)

    def test_mixed_forecast_types(self):
        forecasts = [Gaussian(0.0, 1.0), Empirical([-1.0, 0.0, 1.0])]
        curve = reliability_curve(forecasts, [0.0, 0.0], [0.5])
        assert curve.empirical[0] == 1.0


class TestCalibrationError:
    def test_perfect_curve_scores_zero(self):
        curve = ReliabilityCurve(LEVELS_19, LEVELS_19, np.ones_like(LEVELS_19))
        for variant in ("signed", "absolute", "squared"):
            assert calibration_error(curve, variant) == 0.0

    def test_hand_computed_values(self):
        curve = ReliabilityCurve([0.25, 0.5, 0.75], [0.2, 0.5, 0.8], [1.0, 1.0, 1.0])
        assert calibration_error(curve, "signed") == pytest.approx(0.0, abs=1e-15)
        assert calibration_error(curve, "absolute") == pytest.approx(0.1 / 3)
        assert calibration_error(curve, "squared") == pytest.approx(0.005 / 3)

    def test_signed_single_level(self):
        curve = ReliabilityCurve([0.9], [0.98], [1.0])
        assert calibration_error(curve, "signed") == pytest.approx(-0.08)

    def test_unknown_variant(self):
        curve = ReliabilityCurve([0.5], [0.5], [1.0])
        with pytest.raises(ValueError):
            calibration_error(curve, "rms")

    @given(st.lists(st.tuples(st.floats(0.01, 0.99), st.floats(0.0, 2.0)),
                    min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_variant_inequalities(self, rows):
        levels = np.sort(np.unique([r[0] for r in rows]))
        rng = np.random.default_rng(0)
        empirical = rng.uniform(size=levels.size)
        weights = np.asarray([r[1] for r in rows])[: levels.size]
        weights = np.resize(weights, levels.size)
        curve = ReliabilityCurve(levels, empirical, weights)
        signed = calibration_error(curve, "signed")
        absolute = calibration_error(curve, "absolute")
        squared = calibration_error(curve, "squared")
        assert absolute >= abs(signed) - 1e-12
        assert squared <= absolute + 1e-12  # all deviations are within [-1, 1]


class TestSharpness:
    def test_mean_of_variances(self):
        # No calibrator is the identity map: Var(z) over the 512-level grid.
        value = sharpness([Gaussian(0, 1.0), Gaussian(5, np.sqrt(3.0))])
        assert value == pytest.approx(2.0 * oracles.STD_NORMAL_VAR_512_GRID, rel=1e-12)

    def test_identity_calibrator_matches_grid_variance(self):
        value = sharpness([Gaussian(0.0, 1.0)], identity_calibrator())
        assert value == pytest.approx(oracles.STD_NORMAL_VAR_512_GRID, abs=1e-9)
        assert value == pytest.approx(1.0, abs=0.01)

    def test_fitted_calibrator_restores_true_spread(self):
        forecasts, obs = generate(SynthConfig(n=20000, alpha=2.0, seed=42))
        cf = fit_calibrator(forecasts, obs)
        value = sharpness([Gaussian(0.0, 2.0)], cf)
        assert value == pytest.approx(1.0, abs=0.1)

    def test_shift_invariance(self):
        base = [Gaussian(m, s) for m, s in [(0, 1), (2, 0.5), (-1, 3)]]
        shifted = [Gaussian(d.mean + 17.5, d.std) for d in base]
        assert sharpness(base) == sharpness(shifted)

    def test_degenerate_calibrator_raises(self):
        cf = CalibratedForecaster("pooled", *oracles.knot_table([IsotonicMap([0.2, 0.8], [0.3, 0.6])]))
        with pytest.raises(ValueError, match="too degenerate"):
            sharpness([Gaussian(0, 1)], cf)

    def test_empirical_forecasts(self):
        d = Empirical(np.linspace(-2, 2, 41))
        assert sharpness([d], identity_calibrator()) <= sharpness([d]) + 1e-9

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sharpness([])


@pytest.mark.parametrize("as_list", [False, True], ids=["columns", "list"])
@pytest.mark.parametrize("k", [0, 1, 2, 5, 20], ids=lambda k: f"k{k}" if k else "gaussian")
def test_no_model_is_the_identity_model(k, as_list):
    """Without a model every metric reads the identity map's raw levels,
    bit for bit, pooled or through a per-cell model of identity maps."""
    rng = np.random.default_rng(k)
    n = 300
    centre = rng.uniform(-4, 4, size=n)
    obs = centre + rng.normal(size=n)
    if k:
        forecasts = ForecastColumns(samples=centre[:, None] + 2.0 * rng.normal(size=(n, k)))
        as_dists = [Empirical(row) for row in forecasts.samples]
    else:
        forecasts = ForecastColumns(means=centre, stds=rng.uniform(0.5, 3.0, size=n))
        as_dists = [Gaussian(m, s) for m, s in zip(forecasts.means, forecasts.stds)]
    if as_list:
        forecasts = as_dists
    cell = (rng.integers(0, 2, size=n), rng.integers(0, 3, size=n))
    per_cell = CalibratedForecaster("per_cell", *oracles.knot_table(IDENTITY.maps * 6), h=2, w=3)
    scores = [(reliability_curve(forecasts, obs, LEVELS_19, cf, where).empirical,
               mae_mid_quantile(forecasts, obs, cf, where), sharpness(forecasts, cf, where))
              for cf, where in ((None, None), (IDENTITY, None), (per_cell, cell))]
    for curve, mae, spread in scores[1:]:
        assert np.array_equal(curve, scores[0][0])
        assert mae == scores[0][1]
        assert spread == scores[0][2]


def test_metrics_leave_inversion_to_the_model():
    for name in ("inverse_maps", "SATURATION_LEVEL_LO", "SATURATION_LEVEL_HI"):
        assert not hasattr(metrics, name), name


class TestMaeMidQuantile:
    def test_zero_when_observations_sit_on_medians(self):
        forecasts = [Gaussian(m, 1.0) for m in (0.0, 1.0, -2.0)]
        assert mae_mid_quantile(forecasts, [0.0, 1.0, -2.0]) == 0.0

    def test_identity_calibrator_hand_value(self):
        forecasts = [Gaussian(0.0, 1.0)] * 2
        assert mae_mid_quantile(forecasts, [1.0, -1.0], identity_calibrator()) == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_dispersion_error_leaves_mae_alone(self):
        fit_fc, fit_obs = generate(SynthConfig(n=5000, alpha=2.0, seed=21))
        cf = fit_calibrator(fit_fc, fit_obs)
        test_fc, test_obs = generate(SynthConfig(n=5000, alpha=2.0, seed=22))
        raw = mae_mid_quantile(test_fc, test_obs)
        cal = mae_mid_quantile(test_fc, test_obs, cf)
        assert abs(cal - raw) / raw <= 0.02

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            mae_mid_quantile([Gaussian(0, 1)], [1.0, 2.0])


TWO = [Gaussian(0.0, 1.0), Gaussian(1.0, 1.0)]

# (forecasts, observations, message), one row per outcome rule; flat fit,
# reliability curve, MAE and both coverages all give the rule's message.
# MAE used to give 0.5 on the 2-d outcomes (broadcast against the medians)
# and NaN on NaN.
BAD_OUTCOMES = {
    "2-d": (TWO, [[0.0], [1.0]], "observations need ndim 1, got 2"),
    "short": (TWO, [0.0], "2 forecasts for 1 observations"),
    "long": (TWO, [0.0, 1.0, 2.0], "2 forecasts for 3 observations"),
    "empty": ([], [], "no forecast/observation pairs"),
    "+inf": (TWO, [0.0, np.inf], "invalid input value: infinite observation"),
    "-inf": (TWO, [-np.inf, 0.0], "invalid input value: infinite observation"),
    "nan": (TWO, [0.0, np.nan], "invalid input value: NaN observation"),
}


@pytest.mark.parametrize("rule", BAD_OUTCOMES)
def test_every_scorer_refuses_a_bad_outcome_with_the_rule_message(rule):
    forecasts, obs, message = BAD_OUTCOMES[rule]
    scorers = {
        "fit": lambda: fit_calibrator(forecasts, obs),
        "curve": lambda: reliability_curve(forecasts, obs, LEVELS_19),
        "mae": lambda: mae_mid_quantile(forecasts, obs),
        "coverage": lambda: coverage(np.zeros(len(forecasts)), obs),
        "interval": lambda: interval_coverage(np.zeros(len(forecasts)), np.ones(len(forecasts)), obs),
    }
    if rule == "empty":  # the fit's own rule, at least 2 points, comes first
        with pytest.raises(ValueError, match="^calibration set too small: need at least 2 points$"):
            scorers.pop("fit")()
    for scorer in scorers.values():
        with pytest.raises(ValueError) as info:
            scorer()
        assert str(info.value) == message


BAD_LEVELS = {
    "empty": ([], "levels must be a nonempty 1-d sequence"),
    "2-d": ([[0.5]], "levels must be a nonempty 1-d sequence"),
    "zero": ([0.0, 0.5], "levels must lie strictly inside (0, 1)"),
    "one": ([0.5, 1.0], "levels must lie strictly inside (0, 1)"),
    "nan": ([0.5, np.nan], "levels must lie strictly inside (0, 1)"),
    "repeated": ([0.5, 0.5], "levels must be strictly increasing"),
    "decreasing": ([0.6, 0.5], "levels must be strictly increasing"),
}


@pytest.mark.parametrize("grid", BAD_LEVELS)
def test_every_level_grid_is_checked_once(grid):
    levels, message = BAD_LEVELS[grid]
    for check in (check_levels, lambda p: reliability_curve([Gaussian(0, 1)], [0.0], p),
                  lambda p: ReliabilityCurve(p, np.zeros(np.shape(p)), np.ones(np.shape(p)))):
        with pytest.raises(ValueError) as info:
            check(levels)
        assert str(info.value) == message
    if np.ndim(levels) == 1 and len(levels):  # a grid the CLI's level spec can spell
        spec = ",".join(map(repr, levels))
        with pytest.raises(argparse.ArgumentTypeError) as info:
            _parse_levels(spec)
        assert str(info.value) == f"{message}: {spec!r}"


def test_checked_levels_are_a_read_only_copy():
    levels = [0.25, 0.5]
    arr = check_levels(levels)
    assert arr.dtype == np.float64 and not arr.flags.writeable
    assert np.array_equal(arr, levels)


BAD_CURVES = {
    "nan frequency": ([0.5], [np.nan], [1.0], "empirical frequencies must lie in [0, 1]"),
    "frequency above 1": ([0.5], [7.0], [1.0], "empirical frequencies must lie in [0, 1]"),
    "negative frequency": ([0.5], [-0.1], [1.0], "empirical frequencies must lie in [0, 1]"),
    "nan weight": ([0.5], [0.5], [np.nan], "weights must be finite and nonnegative"),
    "inf weight": ([0.5], [0.5], [np.inf], "weights must be finite and nonnegative"),
    "negative weight": ([0.5], [0.5], [-1.0], "weights must be finite and nonnegative"),
    "short weights": ([0.25, 0.5], [0.5, 0.5], [1.0], "levels, empirical and weights must have equal length"),
}


@pytest.mark.parametrize("case", BAD_CURVES)
def test_reliability_curve_refuses_what_would_give_a_silent_nan(case):
    levels, empirical, weights, message = BAD_CURVES[case]
    with pytest.raises(ValueError) as info:
        ReliabilityCurve(levels, empirical, weights)
    assert str(info.value) == message


class TestCurveValidationAndExport:
    def test_levels_must_increase(self):
        with pytest.raises(ValueError):
            ReliabilityCurve([0.5, 0.5], [0.1, 0.2], [1.0, 1.0])

    def test_nan_level_rejected(self):
        with pytest.raises(ValueError, match=r"strictly inside \(0, 1\)"):
            ReliabilityCurve([0.5, np.nan], [0.1, 0.2], [1.0, 1.0])

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            ReliabilityCurve([0.5], [0.5], [-1.0])

    def test_csv_format(self, tmp_path):
        curve = ReliabilityCurve([0.25, 0.5], [0.123456789123, 0.5], [1.0, 1.0])
        path = tmp_path / "curve.csv"
        write_reliability_csv(curve, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "level,empirical,weight"
        assert lines[1] == "0.25,0.123456789,1"
        assert lines[2] == "0.5,0.5,1"
