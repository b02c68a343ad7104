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
from isocal.recalibration import IDENTITY, CalibratedForecaster, fit_calibrator, grid_points

import oracles

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
ensembles = st.integers(1, 7).flatmap(lambda k: st.lists(
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


@pytest.mark.parametrize("members, levels", [
    ([-0.0], [0.01, 0.5, 0.99]),             # one member: its position and both sides
    ([-0.0, 1.0], [0.1, 0.25]),              # below the first position, and on it
    ([-1.0, -0.0], [0.75, 0.9]),             # on the last position, and above it
    ([-2.0, -0.0, 3.0], [0.5]),              # on an inner position
])
def test_a_negative_zero_member_read_off_a_segment_stays_negative_zero(members, levels):
    cols = ForecastColumns(samples=[members])
    q = cols.quantiles(levels)
    assert np.all((q == 0.0) & np.signbit(q))
    assert np.array_equal(q.view(np.int64), np.array([[ref_ensemble_quantile(np.asarray(members), p)
                                                       for p in levels]]).view(np.int64))
    assert all(np.signbit(quantile(Empirical(members), p)) for p in levels)


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
    cf = CalibratedForecaster("pooled", *oracles.knot_table([IsotonicMap([0.0, 0.3, 1.0], [0.0, 0.5, 1.0])]))
    raw = cf.maps[0].inverse(SHARPNESS_LEVELS)
    loop = np.mean([np.var([quantile(d, r) for r in raw]) for d in forecasts])
    assert sharpness(forecasts, cf) == pytest.approx(loop, rel=1e-12)
    identity = np.mean([np.var([quantile(d, r) for r in SHARPNESS_LEVELS]) for d in forecasts])
    assert sharpness(forecasts) == pytest.approx(identity, rel=1e-12)


@given(st.lists(st.tuples(st.lists(st.integers(0, 20), min_size=1, max_size=12),
                          st.sampled_from(["linear", "step"])), min_size=1, max_size=6),
       st.lists(st.integers(0, 40), min_size=1, max_size=10))
@settings(max_examples=150, deadline=None)
def test_batched_inverse_matches_map_by_map(specs, ps):
    p = np.asarray(ps) / 40.0  # lands on knot values too
    for mode in ("linear", "step"):  # the maps of each mode form one knot table
        maps = []
        for knots, m in specs:
            if m == mode:
                bp = np.unique(knots) / 20.0
                vals = np.sort(np.asarray(knots[:bp.size], dtype=np.float64)) / 20.0
                maps.append(IsotonicMap(bp, vals, mode))
        if not maps:
            continue
        per_cell = CalibratedForecaster("per_cell", *oracles.knot_table(maps), h=1, w=len(maps))
        rows = np.arange(len(maps))
        table = inverse_maps(per_cell, rows, p)
        for m, row in zip(maps, table):
            assert np.array_equal(row, [ref_inverse(m, pi) for pi in p])
        assert np.array_equal(inverse_maps(per_cell, rows[::-1], p), table[::-1])
        for c, m in enumerate(maps):
            assert np.array_equal(table[per_cell._map_index((0, c))], m.inverse(p))
        cells = (np.zeros(len(maps), dtype=int), rows)
        assert np.array_equal(table[per_cell._map_index(cells)], table)


def test_batched_inverse_spans_several_blocks():
    rng = np.random.default_rng(2)
    maps = [IsotonicMap(np.unique(rng.uniform(size=8)), np.sort(rng.uniform(size=8)),
                        "step" if i % 4 == 0 else "linear") for i in range(300)]
    p = np.linspace(0.0, 1.0, 101)  # 225 linear maps x 101 levels: more than one block
    for mode in ("linear", "step"):
        group = [m for m in maps if m.interpolation == mode]
        cf = CalibratedForecaster("per_cell", *oracles.knot_table(group), h=1, w=len(group))
        expected = [[ref_inverse(m, pi) for pi in p] for m in group]
        assert np.array_equal(inverse_maps(cf, np.arange(len(group)), p), expected)


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
    forecasts, obs, _ = grid_points(fs, gs)
    args = (forecasts, obs)
    assert np.array_equal(reliability_curve(*args, LEVELS, pooled).empirical,
                          reliability_curve(*args, LEVELS, per_cell, (0, 0)).empirical)
    assert mae_mid_quantile(*args, pooled) == mae_mid_quantile(*args, per_cell, (0, 0))
    assert sharpness(forecasts, pooled) == sharpness(forecasts, per_cell, (0, 0))


def test_per_cell_errors_name_the_cell():
    flat = IsotonicMap([0.2, 0.8], [0.3, 0.6])
    fine = IsotonicMap([0.0, 1.0], [0.0, 1.0])
    cf = CalibratedForecaster("per_cell", *oracles.knot_table([fine, fine, flat, flat]), h=2, w=2)
    cols = ForecastColumns(means=[0.0], stds=[1.0])
    assert sharpness(cols, cf, (0, 1)) > 0.0
    with pytest.raises(ValueError, match=r"too degenerate for sharpness in cell \(1, 0\)"):
        sharpness(cols, cf, (1, 0))
    # Per-forecast cells: the first degenerate map in row-major order that
    # some forecast reads; maps no forecast reads are not checked.
    three = ForecastColumns(means=[0.0, 1.0, 2.0], stds=[1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match=r"too degenerate for sharpness in cell \(1, 0\)"):
        sharpness(three, cf, (np.array([1, 0, 1]), np.array([1, 0, 0])))
    assert sharpness(three, cf, (np.array([0, 0, 0]), np.array([1, 0, 1]))) > 0.0
    times = tuple(range(40))
    values = np.zeros((40, 2, 3))
    values[5:, 1, 2] = np.nan
    fs = ForecastSeries(times=times, means=np.zeros((40, 2, 3)), stds=np.ones((40, 2, 3)))
    with pytest.raises(ValueError, match=r"cell \(1, 2\) has 5 calibration points"):
        fit_calibrator(fs, GridSeries(times=times, values=values), scope="per_cell")


def per_cell_loop(forecasts, obs, cell, cf, levels):
    """The reference: evaluation of a per-cell model one cell at a time,
    pooled by point counts, as the CLI did before one call took every
    cell. Cells without points are skipped. Gives the covered counts per
    level, the pooled MAE and the pooled sharpness."""
    rows, cols = cell
    total, counts, mae, spread = 0, np.zeros(len(levels)), 0.0, 0.0
    for r, c in np.ndindex(cf.h, cf.w):
        here = np.flatnonzero((rows == r) & (cols == c))
        if here.size:
            f, o = forecasts[here], obs[here]
            counts += np.round(reliability_curve(f, o, levels, cf, (r, c)).empirical * here.size)
            mae += here.size * mae_mid_quantile(f, o, cf, (r, c))
            spread += here.size * sharpness(f, cf, (r, c))
            total += here.size
    return counts, mae / total, spread / total


@pytest.mark.parametrize("kind", ["gaussian", "ensemble"])
def test_one_call_over_all_cells_matches_the_per_cell_loop(kind):
    rng = np.random.default_rng(23)
    t, h, w = 60, 3, 4
    times = tuple(range(t))

    def grids(drop):
        centre = rng.uniform(-3, 3, size=(t, h, w))
        values = centre + rng.normal(size=(t, h, w))
        values[rng.uniform(size=(t, h, w)) < drop] = np.nan
        if kind == "gaussian":
            fs = ForecastSeries(times=times, means=centre, stds=np.full((t, h, w), 2.0))
        else:
            fs = ForecastSeries(times=times, samples=centre[..., None] + 2.0 * rng.normal(size=(t, h, w, 20)))
        return fs, GridSeries(times=times, values=values)

    fitted = fit_calibrator(*grids(0.0), scope="per_cell")
    # Cell (2, 1) has no observation to evaluate, and a map too flat for
    # sharpness: it is skipped, as the loop skips it.
    maps = list(fitted.maps)
    maps[2 * w + 1] = IsotonicMap([0.2, 0.8], [0.3, 0.6])
    cf = CalibratedForecaster("per_cell", *oracles.knot_table(maps), h=h, w=w)
    fs, gs = grids(0.3)  # ragged cells
    values = gs.values.copy()
    values[:, 2, 1] = np.nan
    forecasts, obs, cell = grid_points(fs, GridSeries(times=times, values=values))
    assert len(set(np.bincount(cell[0] * w + cell[1], minlength=h * w))) > 3

    counts, mae, spread = per_cell_loop(forecasts, obs, cell, cf, LEVELS)
    assert np.array_equal(reliability_curve(forecasts, obs, LEVELS, cf, cell).empirical,
                          counts / obs.size)
    assert mae_mid_quantile(forecasts, obs, cf, cell) == pytest.approx(mae, rel=1e-12)
    assert sharpness(forecasts, cf, cell) == pytest.approx(spread, rel=1e-12)
    with pytest.raises(ValueError, match="cells for"):
        sharpness(forecasts, cf, (cell[0][1:], cell[1][1:]))


@pytest.mark.parametrize("kind", ["gaussian", "ensemble"])
def test_in_sample_coverage_is_the_exact_count(kind):
    """Per-cell maps scored on the points they were fitted on: with
    distinct PIT values, a cell of n points covers level p at exactly
    1 + #{1 <= i < n : i/n <= p} of them, ties i/n == p included."""
    rng = np.random.default_rng(37)
    t, h, w = 120, 3, 4
    times = tuple(range(t))
    centre = rng.uniform(-3, 3, size=(t, h, w))
    if kind == "gaussian":
        fs = ForecastSeries(times=times, means=centre, stds=np.full((t, h, w), 2.0))
        values = centre + rng.normal(size=(t, h, w))
    else:
        members = centre[..., None] + 2.0 * rng.normal(size=(t, h, w, 20))
        fs = ForecastSeries(times=times, samples=members)
        # Inside the members' range, so no PIT value is 0 or 1.
        low, high = members.min(axis=-1), members.max(axis=-1)
        values = low + (high - low) * rng.uniform(0.01, 0.99, size=(t, h, w))
    values[rng.uniform(size=(t, h, w)) < 0.2] = np.nan  # cells of unequal n
    gs = GridSeries(times=times, values=values)
    cf = fit_calibrator(fs, gs, scope="per_cell")
    forecasts, obs, (rows, cols) = grid_points(fs, gs)
    levels = np.round(np.arange(1, 100) * 0.01, 10)
    for r, c in np.ndindex(h, w):
        here = (rows == r) & (cols == c)
        n = np.count_nonzero(here)
        pit = forecasts[here].cdf(obs[here])
        assert np.unique(pit).size == n and pit.min() > 1e-6 and pit.max() < 1 - 1e-6
        expected = [(1 + np.count_nonzero(np.arange(1, n) / n <= p)) / n for p in levels]
        curve = reliability_curve(forecasts[here], obs[here], levels, cf, (r, c))
        assert np.array_equal(curve.empirical, expected)


def quantile_path(forecasts, obs, levels, cf, cell):
    """The reference: coverage as it was counted before it read PIT values,
    every forecast's n x levels quantiles at its map's raw levels against
    its outcome. Gives the verdicts and the quantiles, both n x levels."""
    raw, index, _, _ = (cf or IDENTITY).raw_levels(levels, cell, obs.size)
    q = forecasts.quantiles(raw, index)
    return obs[:, None] <= q, q


def differential_cases(seed):
    """(forecasts, observations) of every kind the differential test runs:
    ensembles of k = 1..7 members on a 0.1 grid, half the outcomes on a
    member, and Gaussians with half the outcomes on one of their quantiles."""
    rng = np.random.default_rng(seed)
    n = 60
    for k in range(1, 8):
        xs = rng.integers(-20, 21, size=(n, k)) / 10.0
        y = rng.integers(-25, 26, size=n) / 10.0
        on = rng.uniform(size=n) < 0.5
        y[on] = xs[on, rng.integers(0, k, size=n)[on]]
        yield ForecastColumns(samples=xs), y
    cols = ForecastColumns(means=rng.uniform(-5, 5, size=n), stds=rng.uniform(0.1, 3.0, size=n))
    y = cols.means + cols.stds * rng.normal(size=n)
    on = rng.uniform(size=n) < 0.5
    y[on] = cols.quantiles(LEVELS)[on, rng.integers(0, LEVELS.size, size=n)[on]]
    yield cols, y


def differential_models(forecasts, obs, rng):
    """(calibrator, cell) pairs: none, a pooled fit on the points
    themselves, a step map, a steep map, a map saturating at both ends, and
    the knots of all of these as one per-cell model that each point reads
    at random, once read as linear maps and once as step maps."""
    maps = (fit_calibrator(forecasts, obs).maps[0],
            IsotonicMap([0.1, 0.5, 0.9], [0.2, 0.5, 0.9], "step"),
            IsotonicMap([0.0, 0.4, np.nextafter(0.4, 1.0), 1.0], [0.0, 0.1, 0.9, 1.0]),
            IsotonicMap([0.2, 0.8], [0.3, 0.6]))
    yield None, None
    for m in maps:
        yield CalibratedForecaster("pooled", *oracles.knot_table([m])), None
    cell = (np.zeros(obs.size, dtype=int), rng.integers(0, len(maps), size=obs.size))
    for mode in ("linear", "step"):
        yield CalibratedForecaster("per_cell", *oracles.knot_table(maps, mode), h=1, w=len(maps)), cell


def test_coverage_matches_the_quantile_path_up_to_rounding_ties():
    """A point covers a level exactly when P(X < y) <= r, its raw level.
    Where that verdict and the quantile comparison disagree, the outcome
    lies on the quantile up to rounding."""
    k_positions = [(np.arange(k) + 0.5) / k for k in range(1, 8)]
    levels = np.unique(np.concatenate([LEVELS, *k_positions]))  # plotting positions too
    differ = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        for forecasts, obs in differential_cases(seed):
            for cf, cell in differential_models(forecasts, obs, rng):
                old, q = quantile_path(forecasts, obs, levels, cf, cell)
                raw, index, _, _ = (cf or IDENTITY).raw_levels(levels, cell, obs.size)
                new = forecasts.cdf(obs, strict=True)[:, None] <= raw[index]
                curve = reliability_curve(forecasts, obs, levels, cf, cell)
                assert np.array_equal(curve.empirical, np.count_nonzero(new, axis=0) / obs.size)
                assert np.all(np.abs(obs[:, None] - q)[old != new] <= 1e-14)
                differ += np.count_nonzero(old != new)
    assert differ > 0  # the ties are exercised
