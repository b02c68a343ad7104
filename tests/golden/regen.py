"""Golden outputs: a fixed isocal CLI script on small grids.

    python tests/golden/regen.py

rewrites every other file in this directory from the source tree next to
it. ``tests/test_golden.py`` runs the same script into a temporary
directory and requires every file to match byte for byte, so any output
change shows up as a diff of these files and is declared as such.

The script, run through ``isocal.cli.main`` in-process:
- ``synth`` inputs at fixed seeds: a Gaussian 3x3x40 grid (fit split with
  15 % of its observations blanked to NaN, and a clean evaluation split)
  and an ensemble 2x2x32 grid with k = 8 (fit and evaluation splits).
  Each cell keeps at least 20 fitted points, so that a per-cell map's
  top value (n - 1)/n leaves fewer than 5 % of the sharpness levels
  saturated;
- ``calibrate`` for each kind, pooled and per-cell, ``linear`` and
  ``step``: the model files;
- ``evaluate`` of each model on its evaluation split: the JSON report and
  the ``--human`` table, and once per kind without a model. The step
  per-cell ensemble model exits 3: one of its maps saturates more than
  5 % of the sharpness levels;
- ``reliability`` of each model, pooled and for two cells;
- two damaged model files, which exit 3: a repeated breakpoint inside map 5 of a
  per-cell model, and a model that is not UTF-8.

``transcript.txt`` records every command with its exit code, stdout and
stderr (stderr lines start with ``! ``). Paths are relative to this
directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
KINDS = {  # kind: (synth flags, fit seed, evaluation seed)
    "gauss": (["--grid", "3x3x40"], 1, 2),
    "ens": (["--grid", "2x2x32", "--mode", "sample_set", "--k", "8"], 5, 6),
}
NAN_FRACTION = 0.15  # of the Gaussian fit split's observations
MIN_POINTS_PER_CELL = "20"
CELLS = ["--cell", "0,0", "--cell", "1,1"]


def write_golden(out: Path) -> None:
    """Run the script with every file in ``out``; write the transcript last."""
    from isocal.cli import main

    out = Path(out)
    log = []

    def run(*argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([str(out / a) if a.endswith((".csv", ".json")) else a for a in argv])
        text = stdout.getvalue() + "".join(f"! {line}\n" for line in stderr.getvalue().splitlines())
        log.append(f"$ isocal {' '.join(argv)}\n[exit {code}]\n{text.replace(f'{out}/', '')}")
        return code

    for kind, (flags, fit_seed, eval_seed) in KINDS.items():
        for split, seed in (("fit", fit_seed), ("eval", eval_seed)):
            run("synth", *flags, "--alpha", "2", "--seed", str(seed),
                "--out-forecasts", f"{kind}_{split}_fc.csv", "--out-observations", f"{kind}_{split}_obs.csv")
    _blank_observations(out / "gauss_fit_obs.csv", NAN_FRACTION)

    for kind in KINDS:
        fit = ["--forecasts", f"{kind}_fit_fc.csv", "--observations", f"{kind}_fit_obs.csv"]
        split = ["--forecasts", f"{kind}_eval_fc.csv", "--observations", f"{kind}_eval_obs.csv"]
        run("evaluate", *split, "--out", f"report_{kind}_none.json")
        run("evaluate", *split, "--human")
        for scope in ("pooled", "per-cell"):
            for mode in ("linear", "step"):
                tag = f"{kind}_{scope}_{mode}"
                run("calibrate", *fit, "--scope", scope, "--interpolation", mode,
                    "--min-points-per-cell", MIN_POINTS_PER_CELL, "--out", f"model_{tag}.json")
                model = ["--model", f"model_{tag}.json"]
                run("evaluate", *split, *model, "--out", f"report_{tag}.json")
                run("evaluate", *split, *model, "--human")
                run("reliability", *split, *model, "--out", f"curve_{tag}.csv")
                run("reliability", *split, *model, *CELLS, "--out", f"curve_{tag}.csv")

    doc = json.loads((out / "model_gauss_per-cell_linear.json").read_text())
    knots = doc["maps"][5]["breakpoints"]
    knots[3] = knots[2]
    (out / "bad_repeated_breakpoint.json").write_text(json.dumps(doc) + "\n")
    (out / "bad_not_utf8.json").write_bytes(b'{"version": 1, "scope": "pooled\xff"}\n')
    split = ["--forecasts", "gauss_eval_fc.csv", "--observations", "gauss_eval_obs.csv"]
    for bad in ("bad_repeated_breakpoint.json", "bad_not_utf8.json"):
        run("evaluate", *split, "--model", bad)
    (out / "transcript.txt").write_text("\n".join(log))


def _blank_observations(path: Path, fraction: float) -> None:
    """Set a fixed random ``fraction`` of the observation rows to NaN."""
    header, *rows = path.read_text().splitlines()
    blank = np.random.default_rng(0).uniform(size=len(rows)) < fraction
    rows = [row.rsplit(",", 1)[0] + ",NaN" if b else row for row, b in zip(rows, blank)]
    path.write_text("\n".join([header, *rows]) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))  # the source tree next to this file
    for old in HERE.iterdir():
        if old.is_file() and old.name != Path(__file__).name:
            old.unlink()
    write_golden(HERE)
