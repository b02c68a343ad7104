"""Synthetic forecaster emulators with known miscalibration.

Each sample draws a true mean and spread, an observation from the true
distribution, and a forecast whose reported spread is scaled by a
dispersion ratio ``alpha`` (and whose mean may carry an additive bias).
``alpha`` = 1 yields a perfectly calibrated forecaster by the probability
integral transform; ``alpha`` > 1 is overdispersed and ``alpha`` < 1
underdispersed. The analytic recalibration map for bias-free Gaussian
emulators is ``true_recalibration_map``.

Randomness comes from a counter-based generator so that output is a pure
function of the seed: raw 64-bit words are splitmix64 finalizations of
``seed + (counter + 1) * 0x9E3779B97F4A7C15``, uniforms take the top 53
bits via ``((word >> 11) + 0.5) * 2**-53`` capped below 1 (the top word
would round to 1), and normals apply the standard normal quantile to one
uniform each (CPython's ``NormalDist().inv_cdf``, through
`predictive.std_normal_quantile`; the analytic map uses the same function
and `std_normal_cdf`, libm's ``erfc``). The grid field's float64 ``np.sin``
and ``np.cos`` are the only other transcendental functions; they give the
same bits with numpy's AVX512 code switched on and off.
Sample ``i`` owns the counter block ``[i*b, (i+1)*b)`` with ``b = 3 + k``
draws per sample (k = 0 in gaussian mode), so any chunking of the sample
range reproduces sequential output exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gridio import ForecastSeries, GridSeries
from .predictive import Empirical, Gaussian, PredictiveDist, std_normal_cdf, std_normal_quantile

__all__ = ["SynthConfig", "generate", "generate_gridded", "true_recalibration_map"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64(0xFFFFFFFFFFFFFFFF)

# Counter region reserved for the smooth-field phases in grid mode, far
# above any per-sample block.
_FIELD_PHASE_BASE = np.uint64(1) << np.uint64(62)

MEAN_RANGE = (-5.0, 5.0)
STD_RANGE = (0.5, 2.0)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _uniform_open(seed: int, counters: np.ndarray) -> np.ndarray:
    """Uniforms in the open interval (0, 1), one per counter."""
    raw = _mix64((np.uint64(seed) + (counters + np.uint64(1)) * _GOLDEN) & _U64)
    return np.minimum(((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53, np.nextafter(1.0, 0.0))


def _normals(seed: int, counters: np.ndarray) -> np.ndarray:
    return std_normal_quantile(_uniform_open(seed, counters))


@dataclass(frozen=True)
class SynthConfig:
    """Configuration for one synthetic dataset.

    ``grid`` switches to gridded output with dims (h, w, t); the sample
    count is then h*w*t and the true means form a smooth spatial field
    instead of independent uniform draws. ``mode`` selects Gaussian
    parameter forecasts or ensembles of ``k`` member draws per forecast.
    """

    n: int = 0
    alpha: float = 1.0
    bias: float = 0.0
    mode: str = "gaussian_params"
    k: int = 10
    seed: int = 0
    grid: tuple[int, int, int] | None = None

    def __post_init__(self):
        if self.grid is not None:
            h, w, t = self.grid
            if h < 1 or w < 1 or t < 1:
                raise ValueError(f"grid dims must be positive: {self.grid}")
            object.__setattr__(self, "n", h * w * t)
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"alpha must be positive: {self.alpha}")
        if not math.isfinite(self.alpha * STD_RANGE[1]):
            raise ValueError(f"alpha too large: {self.alpha} (the reported std would overflow)")
        if not math.isfinite(self.bias):
            raise ValueError("bias must be finite")
        if self.mode not in ("gaussian_params", "sample_set"):
            raise ValueError(f"unknown mode: {self.mode!r}")
        if self.mode == "sample_set" and self.k < 2:
            raise ValueError("sample_set mode needs k >= 2 members")
        if self.mode == "sample_set":  # members are fmean + fstd * z; |true mean| <= 5 in both layouts
            z = -float(std_normal_quantile(2.0**-54))  # the largest |z| drawn: the smallest uniform's
            if not math.isfinite(abs(self.bias) + MEAN_RANGE[1] + self.alpha * STD_RANGE[1] * z):
                raise ValueError(f"alpha too large: {self.alpha} with bias {self.bias} (members would overflow)")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")


def _true_means(cfg: SynthConfig) -> np.ndarray:
    """True means: uniform draws, or a smooth field in grid mode.

    Grid samples are ordered time-major, then row, then column. The field
    is a product of sinusoids in row and column plus a 12-step seasonal
    cycle, with phases drawn once from a reserved counter region.
    """
    idx = np.arange(cfg.n, dtype=np.uint64)
    stride = np.uint64(3 + (cfg.k if cfg.mode == "sample_set" else 0))
    if cfg.grid is None:
        u = _uniform_open(cfg.seed, idx * stride)
        lo, hi = MEAN_RANGE
        return lo + (hi - lo) * u
    h, w, t = cfg.grid
    phases = 2.0 * np.pi * _uniform_open(cfg.seed, _FIELD_PHASE_BASE + np.arange(3, dtype=np.uint64))
    tt, rr, cc = np.meshgrid(np.arange(t), np.arange(h), np.arange(w), indexing="ij")
    field = (4.0 * np.sin(2.0 * np.pi * rr / h + phases[0]) * np.cos(2.0 * np.pi * cc / w + phases[1])
             + np.sin(2.0 * np.pi * tt / 12.0 + phases[2]))
    return field.reshape(-1)


def _draw(cfg: SynthConfig) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Forecast arrays by `ForecastSeries` field (members sorted per row)
    and the observations, both flattened as `generate` returns them."""
    n = cfg.n
    kd = cfg.k if cfg.mode == "sample_set" else 0
    stride = np.uint64(3 + kd)
    base = np.arange(n, dtype=np.uint64) * stride

    mu = _true_means(cfg)
    lo, hi = STD_RANGE
    sigma = lo + (hi - lo) * _uniform_open(cfg.seed, base + np.uint64(1))
    observations = mu + sigma * _normals(cfg.seed, base + np.uint64(2))

    fmean = mu + cfg.bias
    fstd = cfg.alpha * sigma
    if cfg.mode == "gaussian_params":
        return {"means": fmean, "stds": fstd}, observations
    member_z = np.empty((n, kd))
    for j in range(kd):
        member_z[:, j] = _normals(cfg.seed, base + np.uint64(3 + j))
    return {"samples": np.sort(fmean[:, None] + fstd[:, None] * member_z, axis=1)}, observations


def generate(cfg: SynthConfig) -> tuple[list[PredictiveDist], np.ndarray]:
    """Draw forecasts and matching observations, deterministically in the seed.

    Returns the forecast list and an observation array of length ``cfg.n``;
    grid-mode samples are flattened time-major, row-major.
    """
    params, observations = _draw(cfg)
    if "samples" in params:
        return [Empirical(row) for row in params["samples"]], observations
    return [Gaussian(float(m), float(s)) for m, s in zip(params["means"], params["stds"])], observations


def generate_gridded(cfg: SynthConfig) -> tuple[ForecastSeries, GridSeries]:
    """Same draws as `generate`, reshaped into file-ready grid series.

    Without an explicit grid the dataset becomes a T x 1 x 1 series with
    T = n, so flat configurations still flow through the CSV pipeline.
    """
    params, observations = _draw(cfg)
    h, w, t = cfg.grid if cfg.grid is not None else (1, 1, cfg.n)
    times = tuple(range(t))
    grids = {name: arr.reshape((t, h, w) + arr.shape[1:]) for name, arr in params.items()}
    return ForecastSeries(times=times, **grids), GridSeries(times=times, values=observations.reshape(t, h, w))


def true_recalibration_map(alpha: float, p):
    """Exact recalibration map for a bias-free Gaussian emulator.

    For dispersion ratio ``alpha`` the CDF value the forecaster assigns to
    the outcome has distribution function Phi(alpha * Phi^-1(p)), which is
    what a consistent recalibrator must converge to. Levels must lie
    strictly inside (0, 1); accepts a scalar or an array of levels.
    """
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be positive: {alpha}")
    p_arr = np.asarray(p, dtype=np.float64)
    if not np.all((p_arr > 0.0) & (p_arr < 1.0)):
        raise ValueError(f"quantile level out of range: {p!r}")
    out = std_normal_cdf(alpha * std_normal_quantile(p_arr))
    return float(out) if p_arr.ndim == 0 else out
