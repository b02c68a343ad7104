"""Column kernels against loop references, and invariants of the metrics.

The references below are the per-forecast loops the kernels replaced:
one ``searchsorted`` per ensemble CDF, one ``np.interp`` per ensemble
quantile, one map at a time for the inverse. Kernels must match them to
1e-12 (bit for bit where the arithmetic is unchanged).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocal.gridio import ForecastSeries, GridSeries
from isocal.isotonic import IsotonicMap, inverse_maps
from isocal.metrics import (
    SHARPNESS_GRID,
    calibration_error,
    mae_mid_quantile,
    reliability_curve,
    sharpness,
)
from isocal.predictive import Empirical, ForecastColumns, Gaussian, cdf, quantile, variance
from isocal.recalibration import CalibratedForecaster, fit_calibrator, grid_points

LEVELS = np.round(np.arange(1, 20) * 0.05, 10)
SHARPNESS_LEVELS = (np.arange(SHARPNESS_GRID) + 0.5) / SHARPNESS_GRID


def ref_ensemble_cdf(xs, y):
    n = xs.size
    k = int(np.searchsorted(xs, y, side="right"))
    if k == 0:
        return 0.0
    if xs[k - 1] == y:
        return (k - 0.5) / n
    if k == n:
        return 1.0
    p_lo, p_hi = (k - 0.5) / n, (k + 0.5) / n
    frac = (y - xs[k - 1]) / (xs[k] - xs[k - 1])
    return min(max(p_lo + frac * (p_hi - p_lo), 0.0), 1.0)


def ref_ensemble_quantile(xs, p):
    return np.interp(p, (np.arange(xs.size) + 0.5) / xs.size, xs)


def ref_inverse(m, p):
    vals, bp = m.values, m.breakpoints
    j = int(np.searchsorted(vals, p, side="left"))
    if j == 0:
        return 0.0
    if j == vals.size:
        return 1.0
    if m.interpolation == "step":
        return bp[j]
    frac = (p - vals[j - 1]) / (vals[j] - vals[j - 1])
    x = bp[j - 1] + frac * (bp[j] - bp[j - 1])
    if (x - bp[j - 1]) / (bp[j] - bp[j - 1]) < frac:  # rounded short of the crossing
        x = np.nextafter(x, bp[j])
    return x


# Members on a coarse grid, so ties among members and with outcomes occur.
ensembles = st.integers(2, 7).flatmap(lambda k: st.lists(
    st.lists(st.integers(-6, 6), min_size=k, max_size=k), min_size=1, max_size=12))
levels = st.lists(st.floats(1e-6, 1 - 1e-6), min_size=1, max_size=8)


@given(ensembles, st.data())
@settings(max_examples=150, deadline=None)
def test_ensemble_kernels_match_loop_references(rows, data):
    xs = np.sort(np.asarray(rows, dtype=np.float64) / 4.0, axis=1)
    cols = ForecastColumns(samples=xs)
    y = np.asarray(data.draw(st.lists(st.integers(-30, 30), min_size=len(rows), max_size=len(rows)))) / 8.0
    p = np.asarray(data.draw(levels))
    dists = [Empirical(row) for row in xs]

    pit = cols.cdf(y)
    q = cols.quantiles(p)
    for i, (d, row) in enumerate(zip(dists, xs)):
        assert pit[i] == ref_ensemble_cdf(row, y[i]) == cdf(d, y[i])
        assert np.array_equal(q[i], [ref_ensemble_quantile(row, pi) for pi in p])
        assert quantile(d, p[0]) == q[i, 0]
        assert variance(d) == pytest.approx(np.var(row), rel=1e-12, abs=1e-12)
        level_var = np.var(ref_ensemble_quantile(row, p))
        assert cols.level_variance(p)[i] == pytest.approx(level_var, rel=1e-12, abs=1e-12)


@given(st.lists(st.tuples(st.floats(-50, 50), st.floats(0.01, 20), st.floats(-80, 80)),
                min_size=1, max_size=20), levels)
@settings(max_examples=100, deadline=None)
def test_gaussian_kernels_match_scalar_api(params, p):
    means, stds, y = (np.asarray(col) for col in zip(*params))
    cols = ForecastColumns(means=means, stds=stds)
    p = np.asarray(p)
    q = cols.quantiles(p)
    for i, (m, s) in enumerate(zip(means, stds)):
        d = Gaussian(float(m), float(s))
        assert cols.cdf(y)[i] == cdf(d, float(y[i]))
        assert np.array_equal(q[i], [quantile(d, float(pi)) for pi in p])
        assert cols.variance()[i] == variance(d) == s * s
        assert cols.level_variance(p)[i] == pytest.approx(np.var(q[i]), rel=1e-12, abs=1e-12)


def test_sharpness_of_a_list_matches_the_per_forecast_loop():
    rng = np.random.default_rng(5)
    forecasts = [Empirical(rng.normal(size=int(k))) for k in rng.integers(2, 9, size=40)]
    forecasts += [Gaussian(float(m), float(s)) for m, s in rng.uniform(0.5, 3.0, size=(40, 2))]
    rng.shuffle(forecasts)
    cf = CalibratedForecaster("pooled", (IsotonicMap([0.0, 0.3, 1.0], [0.0, 0.5, 1.0]),))
    raw = cf.maps[0].inverse(SHARPNESS_LEVELS)
    loop = np.mean([np.var([quantile(d, r) for r in raw]) for d in forecasts])
    assert sharpness(forecasts, cf) == pytest.approx(loop, rel=1e-12)
    assert sharpness(forecasts) == pytest.approx(np.mean([variance(d) for d in forecasts]), rel=1e-12)


@given(st.lists(st.tuples(st.lists(st.integers(0, 20), min_size=1, max_size=12),
                          st.sampled_from(["linear", "step"])), min_size=1, max_size=6),
       st.lists(st.integers(0, 40), min_size=1, max_size=10))
@settings(max_examples=150, deadline=None)
def test_batched_inverse_matches_map_by_map(specs, ps):
    maps = []
    for knots, mode in specs:
        bp = np.unique(knots) / 20.0
        vals = np.sort(np.asarray(knots[:bp.size], dtype=np.float64)) / 20.0
        maps.append(IsotonicMap(bp, vals, mode))
    p = np.asarray(ps) / 40.0  # lands on knot values too
    table = inverse_maps(maps, p)
    for m, row in zip(maps, table):
        assert np.array_equal(row, [ref_inverse(m, pi) for pi in p])
    per_cell = CalibratedForecaster("per_cell", tuple(maps), h=1, w=len(maps))
    for c, m in enumerate(maps):
        assert np.array_equal(per_cell.inverse(p, (0, c)), m.inverse(p))


def test_batched_inverse_spans_several_blocks():
    rng = np.random.default_rng(2)
    maps = [IsotonicMap(np.unique(rng.uniform(size=8)), np.sort(rng.uniform(size=8)),
                        "step" if i % 4 == 0 else "linear") for i in range(300)]
    p = np.linspace(0.0, 1.0, 101)  # 300 x 101 pairs: more than one block
    expected = [[ref_inverse(m, pi) for pi in p] for m in maps]
    assert np.array_equal(inverse_maps(maps, p), expected)


def _metrics(cols, obs, cf=None):
    curve = reliability_curve(cols, obs, LEVELS, cf)
    return (curve.empirical, calibration_error(curve), mae_mid_quantile(cols, obs, cf),
            sharpness(cols, cf))


@pytest.mark.parametrize("kind", ["gaussian", "ensemble"])
@pytest.mark.parametrize("shift", [17.5, 1e7])
def test_every_metric_is_shift_invariant(kind, shift):
    rng = np.random.default_rng(11)
    n = 3000

    def split(offset):
        centre = rng.uniform(-5, 5, size=n)
        obs = centre + rng.normal(size=n)
        if kind == "gaussian":
            return ForecastColumns(means=centre + offset, stds=np.full(n, 2.0)), obs + offset
        members = centre[:, None] + 2.0 * rng.normal(size=(n, 20))
        return ForecastColumns(samples=members + offset), obs + offset

    cf = fit_calibrator(*split(0.0))  # held out: in-sample knots sit exactly on outcomes
    state = rng.bit_generator.state
    base, obs = split(0.0)
    rng.bit_generator.state = state
    moved, moved_obs = split(shift)
    # The shifted members themselves round at 1e7 (ulp 2e-9), so ensembles
    # get a tolerance; the Gaussian closed form does not see the means.
    tol = 1e-12 if kind == "gaussian" or shift < 1e3 else 1e-8
    for calibrator in (None, cf):
        before = _metrics(base, obs, calibrator)
        after = _metrics(moved, moved_obs, calibrator)
        assert np.array_equal(before[0], after[0])
        assert before[1] == after[1]
        assert after[2] == pytest.approx(before[2], rel=1e-8)
        assert after[3] == pytest.approx(before[3], rel=tol)


@pytest.mark.parametrize("kind", ["gaussian", "ensemble"])
def test_per_cell_equals_pooled_on_one_cell(kind):
    rng = np.random.default_rng(3)
    t = 200
    if kind == "gaussian":
        fs = ForecastSeries(times=tuple(range(t)), means=rng.normal(size=(t, 1, 1)),
                            stds=np.full((t, 1, 1), 2.0))
    else:
        fs = ForecastSeries(times=tuple(range(t)), samples=2.0 * rng.normal(size=(t, 1, 1, 10)))
    gs = GridSeries(times=tuple(range(t)), values=rng.normal(size=(t, 1, 1)))
    pooled = fit_calibrator(fs, gs, scope="pooled")
    per_cell = fit_calibrator(fs, gs, scope="per_cell")
    assert np.array_equal(pooled.maps[0].breakpoints, per_cell.maps[0].breakpoints)
    assert np.array_equal(pooled.maps[0].values, per_cell.maps[0].values)
    (cell,) = grid_points(fs, gs)
    args = (cell.forecasts, cell.observations)
    assert np.array_equal(reliability_curve(*args, LEVELS, pooled).empirical,
                          reliability_curve(*args, LEVELS, per_cell, (0, 0)).empirical)
    assert mae_mid_quantile(*args, pooled) == mae_mid_quantile(*args, per_cell, (0, 0))
    assert sharpness(cell.forecasts, pooled) == sharpness(cell.forecasts, per_cell, (0, 0))


def test_per_cell_errors_name_the_cell():
    flat = IsotonicMap([0.2, 0.8], [0.3, 0.6])
    fine = IsotonicMap([0.0, 1.0], [0.0, 1.0])
    cf = CalibratedForecaster("per_cell", (fine, fine, flat, fine), h=2, w=2)
    cols = ForecastColumns(means=[0.0], stds=[1.0])
    assert sharpness(cols, cf, (0, 1)) > 0.0
    with pytest.raises(ValueError, match=r"too degenerate for sharpness in cell \(1, 0\)"):
        sharpness(cols, cf, (1, 0))
    times = tuple(range(40))
    values = np.zeros((40, 2, 3))
    values[5:, 1, 2] = np.nan
    fs = ForecastSeries(times=times, means=np.zeros((40, 2, 3)), stds=np.ones((40, 2, 3)))
    with pytest.raises(ValueError, match=r"cell \(1, 2\) has 5 calibration points"):
        fit_calibrator(fs, GridSeries(times=times, values=values), scope="per_cell")
