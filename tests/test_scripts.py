"""Smoke tests: the experiment scripts, `python -m isocal` and README's
python examples run end to end at a small size."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args):
    """A child ``python *args`` from the repository root, a RuntimeWarning an error."""
    env = {**os.environ, "PYTHONPATH": "src"}
    argv = [sys.executable, "-W", "error::RuntimeWarning", *map(str, args)]
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


def run_script(name, *args):
    """The script's stdout lines; it must exit 0."""
    proc = run_python(f"scripts/{name}", *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_run_synth_experiment():
    lines = run_script("run_synth_experiment.py", "--n", 200)
    assert lines[0].split()[:3] == ["emulator", "alpha", "|"]
    assert lines[1] == "-" * 103
    rows = [line.split("|")[0].split() for line in lines[2:]]
    assert [(" ".join(row[:-1]), row[-1]) for row in rows] == [
        (label, alpha) for label in ("gaussian head", "ensemble k=10", "ensemble k=40")
        for alpha in ("0.50", "1.00", "2.00")]


def test_make_reliability_curves(tmp_path):
    lines = run_script("make_reliability_curves.py", "--n", 200, "--out-dir", tmp_path)
    tags = ["alpha0p5", "alpha1", "alpha2"]
    assert lines == [f"alpha={alpha}: wrote {tag}_uncalibrated.csv and {tag}_calibrated.csv"
                     for alpha, tag in zip(("0.5", "1", "2"), tags)]
    for tag in tags:
        for kind in ("uncalibrated", "calibrated"):
            curve = (tmp_path / f"{tag}_{kind}.csv").read_text().splitlines()
            assert curve[0] == "level,empirical,weight"
            assert len(curve) == 40


def test_readme_python_blocks():
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.S | re.M)
    assert blocks
    for code in blocks:
        proc = run_python("-c", code)
        assert (proc.returncode, proc.stderr) == (0, "")


def test_python_dash_m_isocal(tmp_path):
    fc, obs = tmp_path / "fc.csv", tmp_path / "obs.csv"
    proc = run_python("-m", "isocal", "synth", "--n", 20, "--seed", 3, "--out-forecasts", fc, "--out-observations", obs)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [f"forecasts: {fc} (gaussian, 20 points)", f"observations: {obs}"]
    assert fc.read_text().startswith("time,row,col,mean,std\n0,0,0,")
    assert obs.read_text().startswith("time,row,col,value\n0,0,0,")
    missing = tmp_path / "missing.csv"
    proc = run_python("-m", "isocal", "evaluate", "--forecasts", missing, "--observations", obs)
    assert proc.returncode == 2  # io error, through sys.exit
    assert proc.stderr.startswith("isocal: io error: ") and proc.stderr.count("\n") == 1
