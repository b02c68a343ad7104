"""Whole-pipeline invariances, run through the in-process CLI.

The method sees the data only through PIT values, which a strictly
increasing map applied to forecasts and outcomes alike leaves unchanged.
Scaling every value by a power of two is such a map and is exact in
floating point, so model files, coverage and CE stay byte for byte the
same, MAE scales by s and sharpness by s**2. The record order of the
input files carries no information either.
"""

import contextlib
import io
import json
import random
import warnings

import pytest

from isocal.cli import main

KINDS = {"gauss": [], "ens": ["--mode", "sample_set", "--k", "8"]}
SCOPES = ["pooled", "per-cell"]
OVERFLOW = (3, "isocal: error: sharpness overflows the double range\n")


def run_recorded(*argv):
    """Exit code and stderr of one in-process run, with every warning
    written ahead of it as Python prints one."""
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main([str(a) for a in argv])
    shown = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)
    return code, shown + stderr.getvalue()


@pytest.fixture(scope="module")
def grids(tmp_path_factory):
    """Fit and evaluation files of each kind on a 4x4x60 grid, as text."""
    base = tmp_path_factory.mktemp("grids")
    texts = {}
    for kind, flags in KINDS.items():
        for split, seed in (("fit", 1), ("eval", 2)):
            fc, obs = base / f"{kind}_{split}_fc.csv", base / f"{kind}_{split}_obs.csv"
            assert run_recorded("synth", "--grid", "4x4x60", "--alpha", "2", "--seed", seed, *flags,
                                "--out-forecasts", fc, "--out-observations", obs) == (0, "")
            texts[f"{split}_fc", kind], texts[f"{split}_obs", kind] = fc.read_text(), obs.read_text()
    return texts


def scaled(text, s):
    """A grid file with every value field (the columns after the keys) times s."""
    header, *records = text.splitlines()
    keys = 4 if "sample_idx" in header else 3
    out = [header]
    for record in records:
        fields = record.split(",")
        out.append(",".join(fields[:keys] + [repr(float(x) * s) for x in fields[keys:]]))
    return "\n".join(out) + "\n"


def shuffled(text):
    header, *records = text.splitlines()
    random.Random(5).shuffle(records)
    return "\n".join([header] + records) + "\n"


def pipeline(d, texts, kind, scope, edit):
    """Every stage on the edited input files: each stage's (exit code,
    stderr) and the bytes of every file written."""
    (d / "in").mkdir(parents=True)
    paths = {}
    for name in ("fit_fc", "fit_obs", "eval_fc", "eval_obs"):
        paths[name] = d / "in" / f"{name}.csv"
        paths[name].write_text(edit(texts[name, kind]))
    scoring = ["--forecasts", paths["eval_fc"], "--observations", paths["eval_obs"]]
    model = d / "model.json"
    runs = {
        "calibrate": run_recorded("calibrate", "--forecasts", paths["fit_fc"], "--observations",
                                  paths["fit_obs"], "--scope", scope, "--out", model),
        "evaluate": run_recorded("evaluate", *scoring, "--out", d / "raw.json"),
        "evaluate_model": run_recorded("evaluate", *scoring, "--model", model, "--out", d / "cal.json"),
        "reliability": run_recorded("reliability", *scoring, "--model", model, "--out", d / "curve.csv"),
    }
    return runs, {p.name: p.read_bytes() for p in d.iterdir() if p.is_file()}


def unscaled(report, s):
    """The report with MAE divided by s and sharpness by s**2, every block."""
    for block in ("uncalibrated", "calibrated"):
        if block in report:
            report[block]["mae"] /= s
            report[block]["sharpness"] /= s * s
    return report


@pytest.mark.parametrize("scope", SCOPES)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("s", [4.0, 2.0 ** -10])
def test_power_of_two_scale(tmp_path, grids, kind, scope, s):
    base_runs, base = pipeline(tmp_path / "base", grids, kind, scope, lambda text: text)
    runs, out = pipeline(tmp_path / "scaled", grids, kind, scope, lambda text: scaled(text, s))
    assert runs == base_runs  # failing stages fail the same way
    assert base_runs["calibrate"] == base_runs["reliability"] == base_runs["evaluate"] == (0, "")
    assert out.keys() == base.keys()
    for name in ("model.json", "curve.csv"):
        assert out[name] == base[name]
    for name in ("raw.json", "cal.json"):
        if name in base:
            # exact: sharpness is s**2 times and MAE s times the original, to the bit
            assert unscaled(json.loads(out[name]), s) == json.loads(base[name])


def test_the_degenerate_per_cell_ensemble_model_fails_at_every_scale(tmp_path, grids):
    runs = [pipeline(tmp_path / f"s{i}", grids, "ens", "per-cell", lambda text, s=s: scaled(text, s))[0]
            for i, s in enumerate((1.0, 4.0, 2.0 ** -10))]
    assert runs[0]["evaluate_model"][0] == 3
    assert "too degenerate for sharpness" in runs[0]["evaluate_model"][1]
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize("scope", SCOPES)
@pytest.mark.parametrize("kind", KINDS)
def test_scale_beyond_the_double_range_of_sharpness(tmp_path, grids, kind, scope):
    """At s = 2**600 ensemble members lie near 5e180 and the variance near
    1e360: the models are unchanged, and evaluate says so in one line."""
    s = 2.0 ** 600
    _, base = pipeline(tmp_path / "base", grids, kind, scope, lambda text: text)
    runs, out = pipeline(tmp_path / "scaled", grids, kind, scope, lambda text: scaled(text, s))
    assert runs["calibrate"] == runs["reliability"] == (0, "")
    assert runs["evaluate"] == runs["evaluate_model"] == OVERFLOW
    assert (out["model.json"], out["curve.csv"]) == (base["model.json"], base["curve.csv"])
    assert "raw.json" not in out and "cal.json" not in out


@pytest.mark.parametrize("scope", SCOPES)
@pytest.mark.parametrize("kind", KINDS)
def test_record_order(tmp_path, grids, kind, scope):
    base_runs, base = pipeline(tmp_path / "base", grids, kind, scope, lambda text: text)
    runs, out = pipeline(tmp_path / "shuffled", grids, kind, scope, shuffled)
    assert (runs, out) == (base_runs, base)
