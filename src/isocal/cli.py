"""Command-line pipelines: synthesize, calibrate, evaluate, emit curves.

Exit codes: 0 success, 1 usage error, 2 input parse/IO error, 3
computation or validation error. Reports are machine-readable JSON by
default; ``evaluate --human`` prints a compact text table with signed
percent deltas instead.

Calibration must be fitted on data disjoint from the evaluation split;
the two invocations cannot see each other's inputs, so keeping the
files distinct is the caller's responsibility (output paths are checked
against input paths, which is the part that can be enforced here).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import gridio
from .gridio import ParseError, read_forecasts, read_observations
from .isotonic import INTERPOLATION_MODES
from .metrics import (
    CE_VARIANTS,
    calibration_error,
    check_levels,
    mae_mid_quantile,
    reliability_curve,
    sharpness,
    write_reliability_csv,
)
from .recalibration import (DEFAULT_MIN_POINTS_PER_CELL, fit_calibrator, grid_points, load_model,
                            save_model)
from .synth import SynthConfig, generate_gridded

__all__ = ["main"]


class UsageError(Exception):
    """Bad flag, flag value or flag combination: exit 1."""

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_COMPUTE = 3

DEFAULT_LEVELS = "0.05:0.95:0.05"
MAX_LEVELS = 1000


class _Parser(argparse.ArgumentParser):
    """argparse subclass whose refusals reach `main` as a `UsageError`."""

    def error(self, message):
        raise UsageError(message)


def _parse_levels(spec: str) -> np.ndarray:
    """Levels from ``start:stop:step`` or a comma-separated list, at most
    `MAX_LEVELS` of them."""
    try:
        if ":" in spec:
            start, stop, step = (float(x) for x in spec.split(":"))
            count = math.floor((stop - start) / step + 1e-9) + 1  # no level past STOP
            levels = [round(start + i * step, 10) for i in range(min(count, MAX_LEVELS + 1))]
        else:
            levels = [round(float(x), 10) for x in spec.split(",")]
    except (ValueError, ZeroDivisionError, OverflowError):
        raise argparse.ArgumentTypeError(f"bad levels spec: {spec!r}") from None
    if len(levels) > MAX_LEVELS:
        raise argparse.ArgumentTypeError(f"more than {MAX_LEVELS} levels: {spec!r}")
    try:
        return check_levels(levels)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}: {spec!r}") from None


def _parse_grid(spec: str) -> tuple[int, int, int]:
    try:
        h, w, t = (int(x) for x in spec.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid spec (want HxWxT): {spec!r}") from None
    return h, w, t


def _parse_cell(spec: str) -> tuple[int, int]:
    try:
        r, c = (int(x) for x in spec.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad cell spec (want ROW,COL): {spec!r}") from None
    return r, c


def _level_key(p: float) -> str:
    return repr(float(p))


def _cell_path(out, cell) -> Path:
    return Path(out).with_stem(f"{Path(out).stem}_cell{cell[0]}-{cell[1]}")


def _check_outputs(args):
    """Refuse an output path that names an input or another output."""
    outs = ([_cell_path(args.out, cell) for cell in args.cell] if getattr(args, "cell", None) else
            [getattr(args, name, None) for name in ("out", "out_forecasts", "out_observations")])
    taken = {Path(p).resolve(): "an input file" for p in
             (getattr(args, name, None) for name in ("forecasts", "observations", "model")) if p}
    for out in filter(None, outs):
        path = Path(out).resolve()
        if path in taken:
            raise UsageError(f"output path {str(out)!r} would overwrite {taken[path]}")
        taken[path] = "another output"


def _load_grids(args):
    """The observation grid, and `grid_points` of the two input files."""
    fs = read_forecasts(args.forecasts)
    gs = read_observations(args.observations)
    return gs, grid_points(fs, gs)


def _load_model(args, gs):
    """The ``--model`` file, if given, checked against the data grid."""
    model = load_model(args.model) if args.model else None
    if model is not None and model.scope == "per_cell" and (model.h, model.w) != (gs.h, gs.w):
        raise ValueError(f"grid dimension mismatch: model {model.h}x{model.w}, "
                         f"data {gs.h}x{gs.w}")
    return model


def _metric_block(points, calibrator, levels, variant):
    """Coverage, CE, MAE and sharpness of the points (forecasts, observations, cell)."""
    forecasts, obs, cell = points
    curve = reliability_curve(forecasts, obs, levels, calibrator, cell)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN, refused below
        block = {
            "ce": calibration_error(curve, variant),
            "mae": mae_mid_quantile(forecasts, obs, calibrator, cell),
            "sharpness": sharpness(forecasts, calibrator, cell),
            "coverage": {_level_key(p): float(e) for p, e in zip(levels, curve.empirical)},
        }
    for key, name in (("mae", "MAE"), ("sharpness", "sharpness")):
        if not np.isfinite(block[key]):
            raise ValueError(f"{name} overflows the double range")
    return block


def _delta_pct(before: float, after: float) -> float | None:
    if before == 0.0:
        return None
    return round((after - before) / abs(before) * 100.0, 1)


def _human_delta(pct: float | None) -> str:
    if pct is None:
        return "(n/a)"
    arrow = "↓" if pct < 0 else "↑"
    return f"({arrow} {abs(pct):.1f}%)"


def cmd_calibrate(args) -> int:
    if args.min_points_per_cell < 2:
        raise UsageError(f"--min-points-per-cell must be at least 2, got {args.min_points_per_cell}")
    fs = read_forecasts(args.forecasts)
    gs = read_observations(args.observations)
    scope = "per_cell" if args.scope == "per-cell" else "pooled"
    cf = fit_calibrator(fs, gs, scope=scope, interpolation=args.interpolation,
                        min_points_per_cell=args.min_points_per_cell)
    save_model(cf, args.out)
    # fit_calibrator aligned the grids and fitted on the valid observations.
    valid = gs.mask
    total = int(np.count_nonzero(valid))
    incomplete = int(np.count_nonzero(~valid.all(axis=0)))
    print(f"scope: {scope}")
    print(f"grid: {gs.h}x{gs.w}, {len(gs.times)} time steps")
    print(f"calibration points: {total}")
    print(f"cells with missing observations: {incomplete}")
    print(f"model: {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    gs, points = _load_grids(args)
    model = _load_model(args, gs)
    levels = args.levels
    report = {
        "levels": [_level_key(p) for p in levels],
        "ce_variant": args.ce_variant,
        "uncalibrated": _metric_block(points, None, levels, args.ce_variant),
    }
    if model is not None:
        report["calibrated"] = _metric_block(points, model, levels, args.ce_variant)
        report["deltas_pct"] = {
            key: _delta_pct(report["uncalibrated"][key], report["calibrated"][key])
            for key in ("ce", "mae", "sharpness")
        }

    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    if args.human:
        _print_human(report, args.ce_variant)
    elif not args.out:
        sys.stdout.write(text)
    return EXIT_OK


def _print_human(report, variant):
    labels = {"ce": f"CE ({variant})", "mae": "MAE", "sharpness": "sharpness"}
    uncal = report["uncalibrated"]
    cal = report.get("calibrated")
    if cal is None:
        for key, label in labels.items():
            print(f"{label:<16}{uncal[key]:>12.6g}")
        return
    deltas = report["deltas_pct"]
    print(f"{'metric':<16}{'uncalibrated':>14}{'calibrated':>14}  delta")
    for key, label in labels.items():
        print(f"{label:<16}{uncal[key]:>14.6g}{cal[key]:>14.6g}  {_human_delta(deltas[key])}")


def cmd_reliability(args) -> int:
    gs, (forecasts, obs, (rows, cols)) = _load_grids(args)
    model = _load_model(args, gs)
    targets = [(args.out, slice(None), (rows, cols))]  # (path, points, cell) per curve
    if args.cell:
        for r, c in args.cell:  # every cell is checked before any file is written
            if not (0 <= r < gs.h and 0 <= c < gs.w):
                raise ValueError(f"cell out of range: ({r}, {c}) for {gs.h}x{gs.w} grid")
            if not np.any((rows == r) & (cols == c)):
                raise ValueError(f"cell ({r}, {c}) has no valid observations")
        targets = [(_cell_path(args.out, cell), (rows == cell[0]) & (cols == cell[1]), cell)
                   for cell in args.cell]
    for path, here, cell in targets:
        curve = reliability_curve(forecasts[here], obs[here], args.levels, model, cell)
        write_reliability_csv(curve, path)
        print(f"curve: {path}")
    return EXIT_OK


def cmd_synth(args) -> int:
    if (args.n is None) == (args.grid is None):
        raise UsageError("provide exactly one of --n and --grid")
    try:
        cfg = SynthConfig(n=args.n or 0, alpha=args.alpha, bias=args.bias, mode=args.mode,
                          k=args.k, seed=args.seed, grid=args.grid)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    fs, gs = generate_gridded(cfg)
    gridio.write_forecasts(fs, args.out_forecasts)
    gridio.write_observations(gs, args.out_observations)
    print(f"forecasts: {args.out_forecasts} ({fs.kind}, {cfg.n} points)")
    print(f"observations: {args.out_observations}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="isocal", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    cal = sub.add_parser("calibrate", help="fit a recalibration model from forecast/observation files")
    cal.add_argument("--forecasts", required=True)
    cal.add_argument("--observations", required=True)
    cal.add_argument("--scope", choices=["pooled", "per-cell"], default="pooled")
    cal.add_argument("--interpolation", choices=INTERPOLATION_MODES, default="linear")
    cal.add_argument("--min-points-per-cell", type=int, default=DEFAULT_MIN_POINTS_PER_CELL)
    cal.add_argument("--out", required=True, help="model JSON path")
    cal.set_defaults(func=cmd_calibrate)

    scoring = _Parser(add_help=False)  # the inputs evaluate and reliability share
    scoring.add_argument("--forecasts", required=True)
    scoring.add_argument("--observations", required=True)
    scoring.add_argument("--model")
    scoring.add_argument("--levels", type=_parse_levels, default=_parse_levels(DEFAULT_LEVELS),
                         help=f"START:STOP:STEP or a comma list, at most {MAX_LEVELS} levels "
                              f"(default {DEFAULT_LEVELS})")

    ev = sub.add_parser("evaluate", parents=[scoring],
                        help="metrics report, optionally with a fitted model")
    ev.add_argument("--ce-variant", choices=CE_VARIANTS, default="absolute")
    ev.add_argument("--human", action="store_true", help="text table instead of JSON on stdout")
    ev.add_argument("--out", help="write the JSON report here")
    ev.set_defaults(func=cmd_evaluate)

    rel = sub.add_parser("reliability", parents=[scoring], help="emit reliability curve CSV")
    rel.add_argument("--cell", type=_parse_cell, action="append",
                     help="ROW,COL; repeatable, one output file per cell")
    rel.add_argument("--out", required=True, help="curve CSV path")
    rel.set_defaults(func=cmd_reliability)

    sy = sub.add_parser("synth", help="generate synthetic forecast/observation files")
    sy.add_argument("--n", type=int)
    sy.add_argument("--grid", type=_parse_grid, help="HxWxT gridded output")
    sy.add_argument("--alpha", type=float, default=1.0,
                    help="dispersion ratio (reported std = alpha * true std)")
    sy.add_argument("--bias", type=float, default=0.0)
    sy.add_argument("--mode", choices=["gaussian_params", "sample_set"], default="gaussian_params")
    sy.add_argument("--k", type=int, default=10, help="ensemble members in sample_set mode")
    sy.add_argument("--seed", type=int, default=0)
    sy.add_argument("--out-forecasts", required=True)
    sy.add_argument("--out-observations", required=True)
    sy.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; each refusal is one stderr line and its exit code."""
    try:
        args = _build_parser().parse_args(argv)
        _check_outputs(args)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"isocal: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"isocal: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"isocal: io error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"isocal: error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except MemoryError as exc:
        print(f"isocal: error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
