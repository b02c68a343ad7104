"""Correctness gate for the files the isocal CLI stages write.

Each check raises `CheckFailed` with a one-line reason. The gate covers:
strict, finite JSON; a well-formed model; calibrated CE below
uncalibrated CE; a reliability CSV that agrees with the evaluate report;
and, for bias-free Gaussian inputs, a fitted map inside a
Dvoretzky-Kiefer-Wolfowitz band around the closed-form truth
``isocal.synth.true_recalibration_map(alpha, p)``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Chance that one map leaves its band although the program is right; small
# enough that a correct program does not fail the gate on any seed in use.
DKW_FAILURE_PROB = 1e-6


class CheckFailed(Exception):
    """An output file is wrong."""


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _reject_constant(name):
    raise CheckFailed(f"non-standard JSON constant {name}")


def strict_json(path):
    """Parse a JSON file, rejecting NaN/Infinity and non-finite numbers."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{Path(path).name}: invalid JSON: {exc}") from None
    stack = [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
        elif isinstance(node, float) and not math.isfinite(node):
            raise CheckFailed(f"{Path(path).name}: non-finite number")
    return doc


def dkw_band(n_points: int, failure_prob: float) -> float:
    """Sup-norm radius of the fitted map around the true PIT CDF.

    DKW bounds sup|F_n - F| by sqrt(ln(2/delta) / (2n)) with probability
    1 - delta. The fitted map sits within 1/n of F_n: its knots are the
    left limits F_n(c-) and it interpolates linearly between them.
    """
    return math.sqrt(math.log(2.0 / failure_prob) / (2.0 * n_points)) + 1.0 / n_points


def check_model(path, scope: str, h: int, w: int, points_per_map: int, truth=None) -> dict:
    """Validate the model file; with ``truth`` also check the DKW band."""
    doc = strict_json(path)
    want_scope = "per_cell" if scope == "per-cell" else "pooled"
    if doc.get("scope") != want_scope or doc.get("interpolation") != "linear":
        raise CheckFailed(f"model scope/interpolation {doc.get('scope')}/{doc.get('interpolation')}")
    n_maps = h * w if want_scope == "per_cell" else 1
    maps = doc.get("maps", [])
    if len(maps) != n_maps:
        raise CheckFailed(f"model has {len(maps)} maps, want {n_maps}")
    eps = dkw_band(points_per_map, DKW_FAILURE_PROB / n_maps)
    grid = np.linspace(1e-6, 1.0 - 1e-6, 4001)
    for i, m in enumerate(maps):
        bp = np.asarray(m["breakpoints"], dtype=np.float64)
        vals = np.asarray(m["values"], dtype=np.float64)
        if (bp.size == 0 or bp.shape != vals.shape or np.any(np.diff(bp) <= 0.0)
                or np.any(np.diff(vals) < 0.0) or vals.min() < 0.0 or vals.max() > 1.0):
            raise CheckFailed(f"map {i} is not a monotone map of the unit square")
        if truth is not None:
            p = np.union1d(grid, bp[(bp > 0.0) & (bp < 1.0)])
            err = float(np.max(np.abs(np.interp(p, bp, vals) - truth(p))))
            if err > eps:
                raise CheckFailed(f"map {i} is {err:.4g} from the true map, band is {eps:.4g}")
    return doc


def check_report(path) -> dict:
    """Validate the evaluate report; return it."""
    doc = strict_json(path)
    for block in ("uncalibrated", "calibrated"):
        if not isinstance(doc.get(block), dict) or "ce" not in doc[block]:
            raise CheckFailed(f"report lacks the {block} block")
        cov = doc[block]["coverage"]
        if len(cov) != len(doc["levels"]) or not all(0.0 <= v <= 1.0 for v in cov.values()):
            raise CheckFailed(f"{block} coverage is malformed")
    ce_cal, ce_raw = doc["calibrated"]["ce"], doc["uncalibrated"]["ce"]
    if not ce_cal < ce_raw:
        raise CheckFailed(f"calibrated CE {ce_cal:.6g} is not below uncalibrated CE {ce_raw:.6g}")
    return doc


def check_curve(path, report: dict) -> None:
    """The reliability CSV must match the report's calibrated coverage."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "level,empirical,weight":
        raise CheckFailed("reliability CSV header is wrong")
    cov = report["calibrated"]["coverage"]
    if len(lines) - 1 != len(report["levels"]):
        raise CheckFailed(f"reliability CSV has {len(lines) - 1} rows, want {len(report['levels'])}")
    for line, key in zip(lines[1:], report["levels"]):
        level, emp, _ = (float(x) for x in line.split(","))
        if not math.isclose(level, float(key), rel_tol=1e-8):
            raise CheckFailed(f"reliability CSV level {level} != report level {key}")
        if not math.isclose(emp, cov[key], rel_tol=1e-8, abs_tol=1e-9):
            raise CheckFailed(f"reliability CSV at {key}: {emp} != report coverage {cov[key]}")
