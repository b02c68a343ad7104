import numpy as np
import pytest

from isocal.metrics import reliability_curve
from isocal.predictive import Empirical, Gaussian, std_normal_quantile
from isocal.synth import MEAN_RANGE, STD_RANGE, SynthConfig, generate, generate_gridded, true_recalibration_map

import oracles


def _empirical_frequency(cfg: SynthConfig, level: float) -> float:
    """Fraction of outcomes with forecast CDF value at or below the level."""
    forecasts, obs = generate(cfg)
    return float(reliability_curve(forecasts, obs, [level]).empirical[0])


class TestDeterminism:
    def test_identical_configs_reproduce_bitwise(self):
        cfg = SynthConfig(n=500, alpha=1.3, bias=0.2, seed=999)
        f1, o1 = generate(cfg)
        f2, o2 = generate(cfg)
        np.testing.assert_array_equal(o1, o2)
        assert all(a.mean == b.mean and a.std == b.std for a, b in zip(f1, f2))

    def test_sample_set_reproduces_bitwise(self):
        cfg = SynthConfig(n=100, alpha=0.7, mode="sample_set", k=11, seed=4)
        f1, _ = generate(cfg)
        f2, _ = generate(cfg)
        for a, b in zip(f1, f2):
            np.testing.assert_array_equal(a.samples, b.samples)

    def test_top_word_draws_a_finite_normal(self):
        """At this seed sample 0's outcome draw is the all-ones word, whose
        53-bit uniform rounds to 1: it is capped below 1, so z stays finite."""
        _, obs = generate(SynthConfig(n=1, seed=17650617955581180289))
        assert np.isfinite(obs[0]) and obs[0] > 5.0

    def test_seed_changes_output(self):
        _, o1 = generate(SynthConfig(n=50, seed=1))
        _, o2 = generate(SynthConfig(n=50, seed=2))
        assert not np.array_equal(o1, o2)

    def test_prefix_consistency(self):
        """Per-sample counter blocks make any prefix independent of n."""
        short_f, short_o = generate(SynthConfig(n=40, alpha=2.0, seed=77))
        long_f, long_o = generate(SynthConfig(n=400, alpha=2.0, seed=77))
        np.testing.assert_array_equal(short_o, long_o[:40])
        assert all(a.mean == b.mean and a.std == b.std
                   for a, b in zip(short_f, long_f[:40]))


class TestDistributionalProperties:
    def test_probability_integral_transform(self):
        forecasts, obs = generate(SynthConfig(n=100_000, alpha=1.0, seed=8))
        means = np.array([d.mean for d in forecasts])
        stds = np.array([d.std for d in forecasts])
        from scipy.special import ndtr
        c = ndtr((obs - means) / stds)
        assert oracles.ks_statistic(c) <= 1.95 / np.sqrt(100_000)

    def test_overdispersed_frequency_at_08(self):
        freq = _empirical_frequency(SynthConfig(n=100_000, alpha=2.0, seed=9), 0.8)
        assert freq == pytest.approx(oracles.DISPERSED_A2_P08, abs=0.005)

    def test_underdispersed_frequency_at_09(self):
        freq = _empirical_frequency(SynthConfig(n=100_000, alpha=0.5, seed=10), 0.9)
        assert freq == pytest.approx(oracles.DISPERSED_A05_P09, abs=0.005)

    def test_overdispersion_is_monotone_miscalibration(self):
        forecasts, obs = generate(SynthConfig(n=100_000, alpha=2.0, seed=14))
        levels = np.round(np.arange(1, 20) * 0.05, 10)
        curve = reliability_curve(forecasts, obs, levels)
        for p, freq in zip(curve.levels, curve.empirical):
            if p > 0.5 + 1e-9:
                assert freq > p - 0.01
            elif p < 0.5 - 1e-9:
                assert freq < p + 0.01

    def test_bias_shifts_observations_relative_to_forecasts(self):
        forecasts, obs = generate(SynthConfig(n=20_000, alpha=1.0, bias=1.0, seed=15))
        means = np.array([d.mean for d in forecasts])
        assert np.mean(means - obs) == pytest.approx(1.0, abs=0.05)


class TestModes:
    def test_gaussian_mode_types(self):
        forecasts, obs = generate(SynthConfig(n=10, seed=0))
        assert len(forecasts) == len(obs) == 10
        assert all(isinstance(d, Gaussian) for d in forecasts)

    def test_sample_set_mode_types(self):
        forecasts, _ = generate(SynthConfig(n=10, mode="sample_set", k=7, seed=0))
        assert all(isinstance(d, Empirical) and d.samples.size == 7 for d in forecasts)

    def test_grid_mode_shapes(self):
        fs, gs = generate_gridded(SynthConfig(grid=(3, 4, 25), seed=6))
        assert gs.values.shape == (25, 3, 4)
        assert fs.means.shape == (25, 3, 4)
        assert gs.times == tuple(range(25))

    def test_grid_field_stays_in_flat_mean_range(self):
        _, gs = generate_gridded(SynthConfig(grid=(6, 8, 40), seed=16))
        forecasts, _ = generate(SynthConfig(grid=(6, 8, 40), seed=16))
        means = np.array([d.mean for d in forecasts])
        assert np.all(np.abs(means) <= 5.0)

    def test_flat_config_becomes_single_cell_grid(self):
        fs, gs = generate_gridded(SynthConfig(n=30, seed=3))
        assert gs.values.shape == (30, 1, 1)
        forecasts, obs = generate(SynthConfig(n=30, seed=3))
        np.testing.assert_array_equal(gs.values[:, 0, 0], obs)
        np.testing.assert_array_equal(fs.means[:, 0, 0], [d.mean for d in forecasts])

    def test_gridded_sample_set(self):
        fs, _ = generate_gridded(SynthConfig(grid=(2, 2, 20), mode="sample_set", k=5, seed=2))
        assert fs.samples.shape == (20, 2, 2, 5)


class TestTrueRecalibrationMap:
    def test_identity_at_alpha_one(self):
        for p in (0.1, 0.5, 0.9):
            assert true_recalibration_map(1.0, p) == pytest.approx(p, abs=1e-12)

    def test_median_is_fixed_point(self):
        assert true_recalibration_map(2.0, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_matches_series_oracle(self):
        assert true_recalibration_map(2.0, 0.8) == pytest.approx(oracles.DISPERSED_A2_P08, abs=1e-4)
        assert true_recalibration_map(2.0, 0.8) == pytest.approx(oracles.DISPERSED_A2_P08, abs=1e-12)

    def test_rejects_boundary_levels(self):
        with pytest.raises(ValueError):
            true_recalibration_map(2.0, 0.0)
        with pytest.raises(ValueError):
            true_recalibration_map(2.0, 1.0)
        with pytest.raises(ValueError):
            true_recalibration_map(0.0, 0.5)

    def test_rejects_nan_level(self):
        with pytest.raises(ValueError, match="out of range"):
            true_recalibration_map(2.0, float("nan"))


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf")])
def test_one_alpha_rule_for_config_and_map(alpha):
    for use in (lambda: SynthConfig(n=10, alpha=alpha), lambda: true_recalibration_map(alpha, 0.5)):
        with pytest.raises(ValueError, match=f"^alpha must be finite and positive: {alpha}$"):
            use()


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SynthConfig(n=0)
        with pytest.raises(ValueError):
            SynthConfig(n=10, alpha=0.0)
        with pytest.raises(ValueError):
            SynthConfig(n=10, alpha=-1.0)
        with pytest.raises(ValueError):
            SynthConfig(n=10, mode="sample_set", k=1)
        with pytest.raises(ValueError):
            SynthConfig(n=10, mode="bootstrap")
        with pytest.raises(ValueError):
            SynthConfig(grid=(0, 2, 2))

    @pytest.mark.parametrize("changes, message", [
        ({"bias": float("inf")}, "bias must be finite"),
        ({"seed": -1}, "seed must fit in 64 bits"),
        ({"mode": "sample_set", "k": 2**70}, f"too many draws: 10 x {2**70 + 3} = {10 * (2**70 + 3)} exceeds 2**62"),
        ({"n": 2**61}, f"too many draws: {2**61} x 3 = {3 * 2**61} exceeds 2**62"),
    ], ids=["bias", "seed", "k", "n"])
    def test_refusal_names_its_rule(self, changes, message):
        with pytest.raises(ValueError) as info:
            SynthConfig(**{"n": 10, **changes})
        assert str(info.value) == message

    def test_sample_counters_stay_below_the_field_phases(self):
        """Sample i draws counters [i*b, (i+1)*b), b = 3 + k: the last block
        may end at the phase region, 2**62, and not past it."""
        assert SynthConfig(n=2**59, mode="sample_set", k=5).n * 8 == 2**62
        with pytest.raises(ValueError, match=r"^too many draws: 1 x 4611686018427387905 = "):
            SynthConfig(n=1, mode="sample_set", k=2**62 - 2)

    def test_ensemble_members_that_could_overflow_are_refused_at_the_boundary(self):
        """The largest alpha accepted in sample_set mode is the largest whose
        most extreme member, at the generator's most extreme normal, is finite."""
        def accepted(alpha):
            try:
                SynthConfig(n=50, alpha=alpha, mode="sample_set")
            except ValueError as exc:
                assert "(members would overflow)" in str(exc)
                return False
            return True

        def as_float(bits):
            return float(np.int64(bits).view(np.float64))

        lo, hi = np.array([1.0, 1e308]).view(np.int64).tolist()  # accepted, refused: bisect the bits
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if accepted(as_float(mid)) else (lo, mid)
        alpha, above = as_float(lo), as_float(hi)
        # The extreme uniforms: 0.5 * 2**-53 from the all-zeros word, and 1 - 2**-53.
        z = std_normal_quantile(np.array([2.0**-54, np.nextafter(1.0, 0.0)]))
        member = lambda a: MEAN_RANGE[1] + a * STD_RANGE[1] * float(max(-z[0], z[1]))
        assert np.isfinite(member(alpha)) and not np.isfinite(member(above))
        forecasts, _ = generate(SynthConfig(n=50, alpha=alpha, mode="sample_set"))
        assert all(np.isfinite(f.samples).all() for f in forecasts)
        SynthConfig(n=50, alpha=alpha / 2, mode="sample_set")
        with pytest.raises(ValueError, match="alpha too large"):  # a bias takes the other half
            SynthConfig(n=50, alpha=alpha / 2, bias=-1e308, mode="sample_set")
        SynthConfig(n=50, alpha=above, mode="gaussian_params")  # only the std: it stays finite

    def test_grid_sets_n(self):
        assert SynthConfig(grid=(2, 3, 4)).n == 24
