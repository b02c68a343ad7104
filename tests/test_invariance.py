"""Whole-pipeline invariances, run through the in-process CLI.

The method sees the data only through PIT values, which a strictly
increasing map applied to forecasts and outcomes alike leaves unchanged.
Scaling every value by a power of two is such a map and is exact in
floating point, so model files, coverage and CE stay byte for byte the
same, MAE scales by s and sharpness by s**2. The record order of the
input files carries no information either, nor the order of an
ensemble's members. A per-cell map is the pooled map of its cell's
points.
"""

import contextlib
import io
import itertools
import json
import random
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def shuffled(text, seed=5):
    header, *records = text.splitlines()
    random.Random(seed).shuffle(records)
    return "\n".join([header] + records) + "\n"


def permuted_members(text):
    """A grid file with each ensemble's member values shuffled among its
    ``sample_idx`` labels; a file with no members is returned as it is."""
    header, *records = text.splitlines()
    if "sample_idx" not in header:
        return text
    fields = [record.split(",") for record in records]
    members = {}
    for f in fields:
        members.setdefault(tuple(f[:3]), []).append(f)
    rng = random.Random(7)
    for group in members.values():
        values = [f[4] for f in group]
        rng.shuffle(values)
        for f, value in zip(group, values):
            f[4] = value
    return "\n".join([header] + [",".join(f) for f in fields]) + "\n"


def one_cell(text, row, col):
    """The records of grid cell (row, col), as the one cell of a 1x1 grid."""
    header, *records = text.splitlines()
    fields = [record.split(",") for record in records]
    return "\n".join([header] + [",".join(f[:1] + ["0", "0"] + f[3:]) for f in fields
                                  if f[1:3] == [str(row), str(col)]]) + "\n"


def calibrated(d, fc_text, obs_text, *flags):
    """The model file that `calibrate` fits on the two texts with ``flags``."""
    d.mkdir(parents=True, exist_ok=True)
    fc, obs, model = d / "fc.csv", d / "obs.csv", d / "model.json"
    fc.write_text(fc_text)
    obs.write_text(obs_text)
    assert run_recorded("calibrate", "--forecasts", fc, "--observations", obs, *flags,
                        "--out", model) == (0, "")
    return model.read_bytes()


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
@settings(max_examples=12, deadline=None)
@given(h=st.integers(1, 3), w=st.integers(1, 3), t=st.integers(2, 60), k=st.integers(2, 12),
       alpha=st.sampled_from([0.5, 1.0, 2.0]), seed=st.integers(0, 2**32),
       exponent=st.integers(-128, 128), order=st.integers(0, 2**32))
def test_invariants_on_drawn_grids(kind, scope, h, w, t, k, alpha, seed, exponent, order):
    """Scaling by s = 2**exponent and shuffling the records, on small grids
    of any shape: per-cell fits of fewer than 30 steps per cell, and
    evaluations of degenerate maps, must fail the same way too."""
    s = 2.0 ** exponent
    flags = ["--mode", "sample_set", "--k", k] if kind == "ens" else []
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        texts = {}
        for split, split_seed in (("fit", seed), ("eval", seed + 1)):
            fc, obs = d / f"{split}_fc.csv", d / f"{split}_obs.csv"
            assert run_recorded("synth", "--grid", f"{h}x{w}x{t}", "--alpha", alpha, "--seed", split_seed,
                                *flags, "--out-forecasts", fc, "--out-observations", obs) == (0, "")
            texts[f"{split}_fc", kind], texts[f"{split}_obs", kind] = fc.read_text(), obs.read_text()

        def run(name, edit):
            """`pipeline` in directory ``name``, which its messages do not name."""
            runs, out = pipeline(d / name, texts, kind, scope, edit)
            return {stage: (code, err.replace(str(d / name), "")) for stage, (code, err) in runs.items()}, out

        base_runs, base = run("base", lambda text: text)
        runs, out = run("scaled", lambda text: scaled(text, s))
        assert runs == base_runs
        assert out.keys() == base.keys()
        for name in base:
            if name.endswith(".json") and name != "model.json":
                assert unscaled(json.loads(out[name]), s) == json.loads(base[name])
            else:
                assert out[name] == base[name]
        assert run("shuffled", lambda text: shuffled(text, order)) == (base_runs, base)


@pytest.mark.parametrize("scope", SCOPES)
@pytest.mark.parametrize("kind", KINDS)
def test_record_order(tmp_path, grids, kind, scope):
    base_runs, base = pipeline(tmp_path / "base", grids, kind, scope, lambda text: text)
    runs, out = pipeline(tmp_path / "shuffled", grids, kind, scope, shuffled)
    assert (runs, out) == (base_runs, base)


@pytest.mark.parametrize("scope", SCOPES)
def test_member_order(tmp_path, grids, scope):
    assert permuted_members(grids["fit_fc", "ens"]) != grids["fit_fc", "ens"]
    base_runs, base = pipeline(tmp_path / "base", grids, "ens", scope, lambda text: text)
    runs, out = pipeline(tmp_path / "permuted", grids, "ens", scope, permuted_members)
    assert (runs, out) == (base_runs, base)


@pytest.mark.parametrize("kind", KINDS)
def test_each_per_cell_map_is_the_pooled_map_of_its_cell(tmp_path, grids, kind):
    fc, obs = grids["fit_fc", kind], grids["fit_obs", kind]
    cells = json.loads(calibrated(tmp_path / "cells", fc, obs, "--scope", "per-cell"))
    assert (cells["h"], cells["w"]) == (4, 4)
    for r, c in itertools.product(range(4), range(4)):
        pooled = json.loads(calibrated(tmp_path / f"cell{r}-{c}", one_cell(fc, r, c), one_cell(obs, r, c)))
        assert pooled["maps"] == [cells["maps"][r * 4 + c]]

