"""Isotonic recalibration and verification of probabilistic forecasts."""

from .gridio import ForecastSeries, GridSeries, ParseError
from .isotonic import IsotonicMap, fit_isotonic
from .metrics import (
    ReliabilityCurve,
    calibration_error,
    coverage,
    interval_coverage,
    mae_mid_quantile,
    reliability_curve,
    sharpness,
)
from .predictive import Empirical, Gaussian, PredictiveDist, cdf, quantile, variance
from .recalibration import (
    CalibratedForecaster,
    build_calibration_dataset,
    calibrated_cdf,
    calibrated_quantile,
    central_interval,
    fit_calibrator,
    load_model,
    save_model,
)
from .synth import SynthConfig, generate, generate_gridded, true_recalibration_map

__version__ = "0.1.0"

__all__ = [
    "CalibratedForecaster",
    "Empirical",
    "ForecastSeries",
    "Gaussian",
    "GridSeries",
    "IsotonicMap",
    "ParseError",
    "PredictiveDist",
    "ReliabilityCurve",
    "SynthConfig",
    "build_calibration_dataset",
    "calibrated_cdf",
    "calibrated_quantile",
    "calibration_error",
    "cdf",
    "central_interval",
    "coverage",
    "fit_calibrator",
    "fit_isotonic",
    "generate",
    "generate_gridded",
    "interval_coverage",
    "load_model",
    "mae_mid_quantile",
    "quantile",
    "reliability_curve",
    "save_model",
    "sharpness",
    "true_recalibration_map",
    "variance",
]
