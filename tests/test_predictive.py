import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isocal
from isocal import predictive
from isocal.gridio import ForecastSeries
from isocal.predictive import (Empirical, ForecastColumns, Gaussian, cdf, forecast_fields, per_kind,
                               quantile, std_normal_cdf, std_normal_quantile, variance)

import oracles


def test_gaussian_cdf_at_mean():
    assert cdf(Gaussian(0, 1), 0.0) == pytest.approx(0.5, abs=1e-15)


def test_gaussian_cdf_against_series_oracle():
    assert cdf(Gaussian(0, 1), 1.959964) == pytest.approx(oracles.PHI_AT_1_959964, abs=1e-6)
    # implementation accuracy contract is much tighter than the example tolerance
    assert cdf(Gaussian(0, 1), 1.959964) == pytest.approx(oracles.PHI_AT_1_959964, abs=1e-12)


def test_empirical_cdf_interpolates_between_samples():
    assert cdf(Empirical([1, 2, 3, 4]), 2.5) == pytest.approx(0.5)


def test_empirical_cdf_outside_range():
    d = Empirical([1, 2, 3, 4])
    assert cdf(d, 0.0) == 0.0
    assert cdf(d, 9.0) == 1.0
    assert cdf(d, 1.0) == pytest.approx(0.125)   # (1 - 0.5) / 4
    assert cdf(d, 4.0) == pytest.approx(0.875)   # (4 - 0.5) / 4


def test_empirical_cdf_tied_samples():
    # three of four samples at or below 2, with 2 duplicated
    assert cdf(Empirical([1, 2, 2, 3]), 2.0) == pytest.approx((3 - 0.5) / 4)


def test_strict_empirical_cdf_counts_members_below():
    # P(X < y): tied members equal to y count as above it
    cols = ForecastColumns(samples=np.tile([1.0, 2.0, 2.0, 3.0], (6, 1)))
    y = np.array([2.0, 1.0, 0.5, 2.5, 3.0, 4.0])
    assert cols.cdf(y, strict=True).tolist() == [1.5 / 4, 0.0, 0.0, 0.75, 3.5 / 4, 1.0]
    assert cols.cdf(y).tolist() == [2.5 / 4, 0.5 / 4, 0.0, 0.75, 3.5 / 4, 1.0]
    assert ForecastColumns(samples=[[1.0]]).cdf([1.0], strict=True).tolist() == [0.0]
    gauss = ForecastColumns(means=[0.0, 1.0], stds=[1.0, 2.0])
    assert np.array_equal(gauss.cdf([0.3, 1.0], strict=True), gauss.cdf([0.3, 1.0]))


def test_cdf_rejects_non_finite():
    with pytest.raises(ValueError, match="invalid input value"):
        cdf(Gaussian(0, 1), math.nan)
    with pytest.raises(ValueError, match="invalid input value"):
        cdf(Empirical([1.0, 2.0]), math.inf)


def test_per_kind_runs_one_kernel_call_per_kind_in_input_order():
    dists = [Gaussian(0, 1), Empirical([0.0, 1.0]), Gaussian(2, 1), Empirical([0.0, 1.0, 5.0]),
             Empirical([3.0, 4.0])]
    ys = np.array([0.5, 0.5, 1.0, 1.0, 3.5])
    sizes = []

    def kernel(cols, y):
        sizes.append(len(cols))
        return cols.cdf(y)

    assert np.array_equal(per_kind(dists, kernel, ys), [cdf(d, y) for d, y in zip(dists, ys)])
    assert sizes == [2, 2, 1]  # the Gaussians, the 2-member and the 3-member ensembles
    cols = ForecastColumns(samples=[[0.0, 1.0], [2.0, 3.0]])
    assert per_kind(cols, lambda c: c) is cols


def test_ensemble_members_must_fit_the_double_range():
    wide = ForecastColumns(samples=[[-8e307, 8e307], [0.0, 1.0]])
    assert wide.cdf([4e307, 0.5]).tolist() == [0.625, 0.5]
    with pytest.raises(ValueError, match=r"^invalid input value: ensemble members from -1e\+308 to 1e\+308 "):
        ForecastColumns(samples=[[0.0, 1.0], [1e308, -1e308]])
    with pytest.raises(ValueError, match=r"^invalid input value: ensemble members from -1e\+308 to 1e\+308 "):
        Empirical([1e308, 0.0, -1e308])


# Every container of forecasts, by name: the number of axes that index its
# forecasts, and how it is built from forecast arrays of that many axes.
CONTAINERS = {
    "Gaussian": (0, lambda means, stds: Gaussian(means.item(), stds.item())),
    "Empirical": (0, lambda samples: Empirical(samples)),
    "ForecastColumns": (1, ForecastColumns),
    "ForecastSeries": (3, lambda **arrays: ForecastSeries(times=(0,), **arrays)),
}


def _gaussian(lead, mean=0.0, std=1.0):
    return {"means": np.full(lead, mean), "stds": np.full(lead, std)}


def _ensemble(lead, members=(0.0, 1.0)):
    return {"samples": np.broadcast_to(np.array(members, dtype=np.float64), lead + (len(members),))}


# Each rule of a forecast array: the bad arrays for a container's leading
# shape (every axis of length 1) and the one message of the rule, with the
# container's count of forecast axes in place of {axes}, and that count
# plus the member axis in place of {members}.
BAD_FORECASTS = {
    "nan mean": (lambda lead: _gaussian(lead, mean=math.nan),
                 "invalid input value: non-finite forecast means"),
    "inf mean": (lambda lead: _gaussian(lead, mean=-math.inf),
                 "invalid input value: non-finite forecast means"),
    "inf std": (lambda lead: _gaussian(lead, std=math.inf),
                "invalid input value: non-finite forecast stds"),
    "nan std": (lambda lead: _gaussian(lead, std=math.nan),
                "invalid input value: non-finite forecast stds"),
    "zero std": (lambda lead: _gaussian(lead, std=0.0), "nonpositive std: 0.0"),
    "negative std": (lambda lead: _gaussian(lead, std=-1.0), "nonpositive std: -1.0"),
    "nan member": (lambda lead: _ensemble(lead, (0.0, math.nan)),
                   "invalid input value: non-finite forecast samples"),
    "inf member": (lambda lead: _ensemble(lead, (math.inf, 0.0)),
                   "invalid input value: non-finite forecast samples"),
    "means with an extra axis": (lambda lead: _gaussian(lead + (1,)),
                                 "means and stds need one shape with ndim {axes}"),
    "means and stds of two shapes": (
        lambda lead: {"means": np.zeros((2,) + lead[1:]), "stds": np.ones(lead)},
        "means and stds need one shape with ndim {axes}"),
    "samples without a member axis": (
        lambda lead: {"samples": np.zeros(lead)},
        "samples need ndim {members}, the last axis holding at least one member"),
    "zero members": (
        lambda lead: _ensemble(lead, ()),
        "samples need ndim {members}, the last axis holding at least one member"),
    "members wider than the double range": (lambda lead: _ensemble(lead, (-1e308, 1e308)),
                                            "invalid input value: ensemble members from -1e+308 "
                                            "to 1e+308 span more than the double range"),
    "neither kind": (lambda lead: {}, "provide either means and stds, or samples"),
    "both kinds": (lambda lead: {**_gaussian(lead), **_ensemble(lead)},
                   "provide either means and stds, or samples"),
}


def _takes(container, arrays) -> bool:
    """Whether ``container`` takes arrays of these names: scalar types take
    exactly their own kind, the array containers any set of names."""
    if container == "Gaussian":
        return set(arrays) == {"means", "stds"} and arrays["means"].ndim == 0
    return container != "Empirical" or set(arrays) == {"samples"}


@pytest.mark.parametrize("rule", BAD_FORECASTS)
def test_every_container_refuses_a_bad_forecast_with_the_rule_message(rule):
    bad, message = BAD_FORECASTS[rule]
    refused = {}
    for container, (axes, make) in CONTAINERS.items():
        arrays = bad((1,) * axes)
        if not _takes(container, arrays):
            continue
        with pytest.raises(ValueError) as info:
            make(**arrays)
        refused[container] = str(info.value)
        assert refused[container] == message.format(axes=axes, members=axes + 1), container
    assert len(refused) >= 2


@pytest.mark.parametrize("container", ["ForecastColumns", "ForecastSeries"])
@pytest.mark.parametrize("kind", [_gaussian, _ensemble])
def test_array_containers_hold_the_checked_arrays_read_only(container, kind):
    axes, make = CONTAINERS[container]
    arrays = kind((1,) * axes)
    fields = forecast_fields(make(**arrays))
    assert list(fields) == list(arrays)
    for name, arr in fields.items():
        assert arr.dtype == np.float64 and not arr.flags.writeable
        assert np.array_equal(arr, arrays[name])


def test_series_and_columns_keep_their_own_rules():
    with pytest.raises(ValueError, match=r"^samples must be T x H x W x k with k >= 2$"):
        ForecastSeries(times=(0,), samples=np.zeros((1, 1, 1, 1)))
    assert ForecastColumns(samples=[[3.0, 1.0, 2.0]]).samples.tolist() == [[1.0, 2.0, 3.0]]
    assert len(ForecastColumns(samples=np.zeros((0, 2)))) == 0


def test_gaussian_quantile_median():
    assert quantile(Gaussian(10, 2), 0.5) == pytest.approx(10.0, abs=1e-12)


def test_gaussian_quantile_against_series_oracle():
    assert quantile(Gaussian(0, 1), 0.975) == pytest.approx(oracles.Z_0975, abs=1e-6)
    assert quantile(Gaussian(0, 1), 0.975) == pytest.approx(oracles.Z_0975, abs=1e-10)


def test_empirical_quantile_interpolates():
    assert quantile(Empirical([1, 2, 3, 4]), 0.5) == pytest.approx(2.5)


def test_quantile_rejects_out_of_range_levels():
    for p in (0.0, 1.0, -0.2, 1.7, math.nan):
        with pytest.raises(ValueError, match="quantile level out of range"):
            quantile(Gaussian(0, 1), p)


def test_variance_examples():
    assert variance(Gaussian(5, 3)) == pytest.approx(9.0)
    assert variance(Empirical([2, 2, 2])) == 0.0
    assert variance(Empirical([0, 2])) == pytest.approx(1.0)


def test_gaussian_rejects_zero_std():
    with pytest.raises(ValueError, match="nonpositive std"):
        Gaussian(0.0, 0.0)


def test_gaussian_roundtrip_on_level_grid():
    d = Gaussian(3.5, 0.7)
    for p in np.arange(0.01, 0.995, 0.01):
        assert abs(cdf(d, quantile(d, p)) - p) <= 1e-9


@given(mean=st.floats(-100, 100), std=st.floats(0.01, 50),
       p1=st.floats(0.001, 0.999), p2=st.floats(0.001, 0.999))
def test_gaussian_quantile_monotone(mean, std, p1, p2):
    d = Gaussian(mean, std)
    lo, hi = sorted((p1, p2))
    assert quantile(d, lo) <= quantile(d, hi)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
       st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
def test_empirical_cdf_monotone(samples, y1, y2):
    d = Empirical(samples)
    lo, hi = sorted((y1, y2))
    assert cdf(d, lo) <= cdf(d, hi)


@given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=25, unique=True),
       st.floats(0.01, 0.99))
@settings(max_examples=200)
def test_empirical_generalized_inverse(samples, frac):
    """quantile and cdf invert each other strictly inside the sample range."""
    d = Empirical([float(s) for s in samples])
    xs = d.samples
    y = float(xs[0] + frac * (xs[-1] - xs[0]))
    if y <= xs[0] or y >= xs[-1]:
        return
    assert quantile(d, cdf(d, y)) == pytest.approx(y, rel=1e-9, abs=1e-9)


@given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0.1, 10))
def test_variance_ignores_location(m1, m2, s):
    assert variance(Gaussian(m1, s)) == variance(Gaussian(m2, s))


def _normal_test_points(rng):
    """Levels in [1e-300, 1 - 1e-16]: log-uniform in both tails and uniform."""
    lower = 10.0 ** rng.uniform(-300, -1, 600)
    upper = 1.0 - 10.0 ** rng.uniform(-16, -1, 600)
    return np.concatenate([[1e-300, 1e-16, 0.5, 1 - 1e-16], lower, upper, rng.uniform(0, 1, 600)])


def test_std_normal_cdf_against_mpmath():
    rng = np.random.default_rng(11)
    x = np.concatenate([np.linspace(-38.0, 9.0, 941), rng.uniform(-38.0, 9.0, 1000)])
    expected = np.array([oracles.normal_cdf(v) for v in x])
    assert np.max(np.abs(std_normal_cdf(x) - expected)) <= 2.3e-16


def test_std_normal_quantile_against_mpmath():
    p = _normal_test_points(np.random.default_rng(12))
    expected = np.array([oracles.normal_quantile(v) for v in p])
    got = std_normal_quantile(p)
    assert got[2] == 0.0
    nonzero = expected != 0.0
    assert np.max(np.abs(got - expected)[nonzero] / np.abs(expected[nonzero])) <= 2e-15


def test_std_normal_kernels_against_scipy():
    from scipy.special import ndtr, ndtri
    rng = np.random.default_rng(13)
    x = np.concatenate([rng.uniform(-38.0, 9.0, 500_000), 4.0 * rng.standard_normal(500_000)])
    assert np.max(np.abs(std_normal_cdf(x) - ndtr(x))) <= 4.6e-16
    p = np.concatenate([rng.uniform(0.0, 1.0, 500_000), 10.0 ** rng.uniform(-300, 0, 250_000),
                        1.0 - 10.0 ** rng.uniform(-16, 0, 250_000)])
    p = p[(p > 0.0) & (p < 1.0)]
    want = ndtri(p)
    nonzero = want != 0.0
    assert np.max(np.abs(std_normal_quantile(p) - want)[nonzero] / np.abs(want[nonzero])) <= 4e-15


def test_std_normal_kernels_are_the_standard_library_functions():
    """Bit for bit `NormalDist().inv_cdf` and 0.5 * libm's erfc(-x / sqrt(2)),
    so no output depends on the SIMD code numpy dispatches to."""
    rng = np.random.default_rng(14)
    p = np.concatenate([rng.uniform(0.0, 1.0, 200_000), 10.0 ** rng.uniform(-300, 0, 150_000),
                        1.0 - 10.0 ** rng.uniform(-16, 0, 150_000), [1e-300, 0.5, 1.0 - 2.0**-53]])
    p = p[(p > 0.0) & (p < 1.0)]
    assert p.size >= 500_000
    inv_cdf = NormalDist().inv_cdf
    np.testing.assert_array_equal(std_normal_quantile(p), [inv_cdf(v) for v in p.tolist()], strict=True)
    x = np.concatenate([rng.uniform(-38.0, 9.0, 100_000), 4.0 * rng.standard_normal(100_000)])
    np.testing.assert_array_equal(std_normal_cdf(x), [0.5 * math.erfc(-v / math.sqrt(2)) for v in x.tolist()])


def _inv_cdf_or_edge(v: float) -> float:
    """`std_normal_quantile`'s contract for one level: ``inv_cdf`` inside
    (0, 1), -inf at 0, inf at 1 and NaN elsewhere."""
    return NormalDist().inv_cdf(v) if 0.0 < v < 1.0 else {0.0: -math.inf, 1.0: math.inf}.get(v, math.nan)


def test_std_normal_quantile_branch_edges_are_inv_cdf():
    """Levels a few ulps either side of 0.075 and 0.925, where AS241 leaves
    its central branch (|p - 0.5| <= 0.425) for the tails."""
    p = np.array([x for edge in (0.075, 0.925) for x in (edge, np.nextafter(edge, 0.0),
                                                         np.nextafter(edge, 1.0))])
    for _ in range(2):
        p = np.unique(np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, 1.0)]))
    central = np.abs(p - 0.5) <= 0.425
    assert central.any() and not central.all()
    np.testing.assert_array_equal(std_normal_quantile(p), [_inv_cdf_or_edge(v) for v in p.tolist()],
                                  strict=True)


def test_std_normal_quantile_table_across_blocks_is_inv_cdf():
    """A 2-d table longer than one block, mixing both branches with the edges."""
    rng = np.random.default_rng(15)
    p = np.concatenate([rng.uniform(0.0, 1.0, 20_000), 10.0 ** rng.uniform(-300, 0, 1_000),
                        [0.0, 1.0, np.nan, -0.5, 1.5, -np.inf, np.inf, 1e308, -1e308] * 50])
    p = rng.permutation(p).reshape(3, -1)
    assert p.size > predictive._MAP_BLOCK
    want = np.reshape([_inv_cdf_or_edge(v) for v in p.ravel().tolist()], p.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(std_normal_quantile(p), want, strict=True)


def test_std_normal_quantile_memory_is_bounded_by_its_blocks():
    """The whole table is never a temporary: a 256 x 512 table (the per-cell
    sharpness table) peaks within 4x its bytes plus 1 MB."""
    p = np.tile((np.arange(512) + 0.5) / 512, (256, 1))
    tracemalloc.start()
    try:
        std_normal_quantile(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * p.nbytes + 2**20


def test_std_normal_kernels_edges_raise_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert std_normal_quantile(0.0) == -np.inf
        assert std_normal_quantile(1.0) == np.inf
        np.testing.assert_array_equal(std_normal_quantile(np.array([0.0, 0.5, 1.0])),
                                      [-np.inf, 0.0, np.inf])
        assert np.isnan(std_normal_quantile(np.array([-0.5, 1.5, np.nan]))).all()
        np.testing.assert_array_equal(std_normal_cdf(np.array([-np.inf, np.inf])), [0.0, 1.0])
        assert std_normal_cdf(-np.inf) == 0.0 and std_normal_cdf(np.inf) == 1.0
        assert np.isnan(std_normal_cdf(np.nan))


def test_std_normal_kernels_keep_shapes_and_scalars():
    for fn, arg in ((std_normal_cdf, 0.3), (std_normal_quantile, 0.3)):
        assert type(fn(arg)) is np.float64
        assert type(fn(np.float64(arg))) is np.float64
        assert type(fn(np.array(arg))) is np.float64
        assert fn(np.full((2, 3), arg)).shape == (2, 3)
        assert fn(np.array([])).shape == (0,)


def test_import_loads_no_scipy():
    src = str(Path(isocal.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, isocal.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
