import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isocal.isotonic import IsotonicMap, check_knots, evaluate_map, fit_isotonic, inverse_maps

import oracles

unit_floats = st.floats(0.0, 1.0)


def _instances(n_min=1, n_max=8, weighted=False):
    base = st.lists(unit_floats, min_size=n_min, max_size=n_max)
    if not weighted:
        return base.map(lambda ys: (ys, None))
    return base.flatmap(
        lambda ys: st.tuples(
            st.just(ys),
            st.lists(st.floats(0.1, 3.0), min_size=len(ys), max_size=len(ys)),
        )
    )


def test_fit_pools_single_violator():
    m = fit_isotonic([0.1, 0.2, 0.3], [0.2, 0.5, 0.4])
    assert m.breakpoints.tolist() == [0.1, 0.2, 0.3]
    assert m.values == pytest.approx([0.2, 0.45, 0.45])


def test_fit_keeps_monotone_data():
    m = fit_isotonic([0.1, 0.5, 0.9], [0.1, 0.5, 0.9])
    for x, y in zip([0.1, 0.5, 0.9], [0.1, 0.5, 0.9]):
        assert m.evaluate(x) == pytest.approx(y)


def test_fit_full_pool():
    m = fit_isotonic([0.2, 0.4, 0.6, 0.8], [0.9, 0.1, 0.9, 0.1])
    assert m.values == pytest.approx([0.5, 0.5, 0.5, 0.5])


def test_fit_merges_ties_by_weighted_mean():
    m = fit_isotonic([0.3, 0.3, 0.7], [0.2, 0.6, 0.8], weights=[1.0, 3.0, 1.0])
    assert m.breakpoints.tolist() == [0.3, 0.7]
    assert m.values[0] == pytest.approx(0.5)  # (0.2 + 3 * 0.6) / 4


def test_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_isotonic([], [])
    with pytest.raises(ValueError, match="out of unit square"):
        fit_isotonic([0.5], [1.5])
    with pytest.raises(ValueError, match="out of unit square"):
        fit_isotonic([-0.1], [0.5])
    with pytest.raises(ValueError):
        fit_isotonic([0.5], [0.5], weights=[0.0])
    with pytest.raises(ValueError, match="^weights must match xs in length$"):
        fit_isotonic([0.1, 0.2], [0.1, 0.2], weights=[1.0])


def test_evaluate_identity_fit():
    m = fit_isotonic([0.1, 0.5, 0.9], [0.1, 0.5, 0.9])
    assert m.evaluate(0.5) == pytest.approx(0.5)


def test_evaluate_single_point_is_constant():
    m = fit_isotonic([0.5], [0.3])
    for q in (0.0, 0.2, 0.5, 1.0):
        assert m.evaluate(q) == pytest.approx(0.3)


def test_evaluate_linear_interpolation():
    m = fit_isotonic([0.1, 0.3], [0.2, 0.45])
    assert m.evaluate(0.2) == pytest.approx(0.325)


def test_evaluate_steep_segment_by_fraction():
    """A segment so narrow that its slope overflows takes the fraction of
    the segment: v_lo + frac * (v_hi - v_lo), capped at v_hi."""
    b = 2.2250738585e-313
    m = fit_isotonic([0.0, b], [0.0, 0.5])
    frac = 5e-324 / b
    assert m.evaluate([5e-324, b / 2, b, 1.0]).tolist() == [frac * 0.5, 0.25, 0.5, 0.5]
    assert 0.0 < frac * 0.5 < 1e-10


def test_evaluate_holds_end_values_beyond_the_knots():
    m = IsotonicMap([0.25, 0.5, 0.75], [0.1, 0.2, 0.3])
    assert m.evaluate([0.0, 0.25, 0.75, 1.0]).tolist() == [0.1, 0.1, 0.3, 0.3]


def test_evaluate_is_the_one_map_call_of_evaluate_map():
    m = IsotonicMap([0.1, 0.4, 0.8], [0.2, 0.3, 0.9])
    qs = np.linspace(0.0, 1.0, 11)
    assert m.evaluate(qs).tolist() == evaluate_map(m, 0, qs).tolist()
    assert m.evaluate(0.6) == float(evaluate_map(m, 0, 0.6)) == pytest.approx(0.6)
    assert np.shape(evaluate_map(m, 0, [[0.5]])) == (1, 1)


def test_evaluate_rejects_out_of_range():
    m = fit_isotonic([0.5], [0.5])
    with pytest.raises(ValueError):
        m.evaluate(-0.01)
    with pytest.raises(ValueError):
        m.evaluate(1.01)


def test_inverse_identity():
    m = fit_isotonic([0.1, 0.5, 0.9], [0.1, 0.5, 0.9])
    assert m.inverse(0.7) == pytest.approx(0.7)


def test_inverse_constant_map():
    m = fit_isotonic([0.2, 0.4, 0.6, 0.8], [0.9, 0.1, 0.9, 0.1])  # constant 0.5
    assert m.inverse(0.5) == 0.0
    assert m.inverse(0.6) == 1.0


def test_inverse_of_linear_segment():
    m = fit_isotonic([0.1, 0.3], [0.2, 0.45])
    assert m.inverse(0.325) == pytest.approx(0.2)


def test_inverse_rejects_out_of_range():
    m = fit_isotonic([0.5], [0.5])
    with pytest.raises(ValueError):
        m.inverse(1.2)


def test_inverse_of_no_levels_is_empty():
    m = IsotonicMap([0.2, 0.6], [0.3, 0.8])
    assert m.inverse(np.array([])).shape == (0,)
    assert m.evaluate(np.array([])).shape == (0,)
    assert inverse_maps(m, [0, 0, 0], []).shape == (3, 0)


@pytest.mark.parametrize("shape", [(2, 3), (2, 1, 3), (3, 2, 2)])
def test_inverse_and_evaluate_keep_the_shape_of_their_levels(shape):
    """A level array of any shape gives the flat call's values, bit for bit, in that shape."""
    m = IsotonicMap([0.0, 0.5, 1.0], [0.0, 0.2, 1.0])
    p = np.array([0.1, 0.6, 0.3, 0.9, 0.2, 0.5, 0.0, 1.0, 0.2, 0.75, 0.05, 0.4])[:np.prod(shape)].reshape(shape)
    for call in (m.inverse, m.evaluate):
        got = call(p)
        assert got.shape == shape
        assert got.tobytes() == call(p.ravel()).tobytes()
    assert inverse_maps(m, [0, 0], p).tobytes() == inverse_maps(m, [0, 0], p.ravel()).tobytes()
    assert inverse_maps(m, [0, 0], p).shape == (2, p.size)


def test_map_validation():
    with pytest.raises(ValueError):
        IsotonicMap([0.5, 0.5], [0.1, 0.2])  # breakpoints not strictly increasing
    with pytest.raises(ValueError):
        IsotonicMap([0.1, 0.5], [0.4, 0.2])  # values decreasing
    with pytest.raises(ValueError, match="^breakpoints and values must be nonempty 1-d arrays of equal length$"):
        check_knots([0.0, 1.0], [0.0], [0])


def test_knot_error_names_its_map_only_in_a_table_of_several():
    """A one-map table (an `IsotonicMap`, a pooled model) states the rule
    alone; a table of several maps names the first bad one."""
    rule = "breakpoints must be strictly increasing"
    for refuse in (lambda: check_knots([0.5, 0.5], [0.1, 0.2], [0]),
                   lambda: IsotonicMap([0.5, 0.5], [0.1, 0.2])):
        with pytest.raises(ValueError, match=f"^{rule}$"):
            refuse()
    with pytest.raises(ValueError, match=f"^model map 1: {rule}$"):
        check_knots([0.2, 0.5, 0.7, 0.7], [0.1, 0.2, 0.3, 0.4], [0, 2])
    # A decrease across a map start breaks no rule.
    assert check_knots([0.2, 0.5, 0.1, 0.9], [0.1, 0.2, 0.0, 0.4], [0, 2])[2].tolist() == [0, 2]


@given(_instances(weighted=True))
@settings(max_examples=150, deadline=None)
def test_pava_matches_exact_oracle(instance):
    ys, ws = instance
    xs = np.linspace(0.05, 0.95, len(ys))
    m = fit_isotonic(xs, ys, weights=ws)
    oracle_fit, oracle_obj = oracles.isotonic_exact(ys, ws)
    assert m.values == pytest.approx(oracle_fit, abs=1e-9)
    w = np.ones(len(ys)) if ws is None else np.asarray(ws)
    pava_obj = float(np.sum(w * (m.values - np.asarray(ys)) ** 2))
    assert pava_obj == pytest.approx(oracle_obj, abs=1e-9)


@given(_instances())
@settings(max_examples=100, deadline=None)
def test_pava_objective_matches_grid_oracle(instance):
    ys, _ = instance
    xs = np.linspace(0.05, 0.95, len(ys))
    m = fit_isotonic(xs, ys)
    pava_obj = float(np.sum((m.values - np.asarray(ys)) ** 2))
    assert abs(pava_obj - oracles.isotonic_grid_objective(ys)) <= 1e-3


@given(st.lists(st.tuples(unit_floats, unit_floats), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_fit_is_idempotent(points):
    xs = np.asarray([p[0] for p in points])
    ys = [p[1] for p in points]
    first = fit_isotonic(xs, ys)
    second = fit_isotonic(first.breakpoints, first.evaluate(first.breakpoints))
    assert second.breakpoints == pytest.approx(first.breakpoints)
    assert second.values == pytest.approx(first.values, abs=1e-12)


@given(st.lists(st.tuples(unit_floats, unit_floats), min_size=1, max_size=15), unit_floats)
@settings(max_examples=200, deadline=None)
# knots one ulp apart: the interpolated inverse rounds onto the left knot
@example(points=[(1.0, 1.0), (0.9999999999999999, 0.5)], level=0.625)
# three equal ys at one x: their mean must not round an ulp above them
@example(points=[(0.0, 0.48488647955530795), (0.25, 0.48488647955530795), (0.25, 0.48488647955530795),
                 (0.25, 0.48488647955530795)], level=0.1875)
def test_galois_connection(points, level):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    m = fit_isotonic(xs, ys)
    q = m.inverse(level)
    if level <= m.values[-1]:
        assert m.evaluate(q) >= level - 1e-9
    inv_round = m.inverse(m.evaluate(level))
    assert inv_round <= level + 1e-9


@given(st.lists(st.tuples(unit_floats, unit_floats, unit_floats), min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_upward_shift_never_lowers_fit(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    shifted = [min(1.0, p[1] + p[2] * (1.0 - p[1])) for p in points]
    base = fit_isotonic(xs, ys)
    up = fit_isotonic(xs, shifted)
    assert np.all(up.values >= base.values - 1e-12)


@given(st.lists(st.tuples(unit_floats, unit_floats), min_size=1, max_size=15),
       st.lists(unit_floats, min_size=1, max_size=10))
@settings(max_examples=100, deadline=None)
# a segment so steep that its slope overflows
@example(points=[(0.0, 0.0), (2.2250738585e-313, 0.5)], queries=[5e-324, 1.0])
def test_evaluate_monotone_and_bounded(points, queries):
    m = fit_isotonic([p[0] for p in points], [p[1] for p in points])
    qs = np.sort(np.asarray(queries))
    out = m.evaluate(qs)
    assert np.all((out >= 0.0) & (out <= 1.0))
    assert np.all(np.diff(out) >= -1e-12)
