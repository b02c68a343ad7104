"""Smoke tests: the experiment script, `python -m isocal` and README's
python and bash examples run end to end."""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

from isocal.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args, cwd=ROOT):
    """A child ``python *args`` in ``cwd``, a RuntimeWarning an error."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, "-W", "error::RuntimeWarning", *map(str, args)]
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


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


def test_readme_python_blocks():
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.S | re.M)
    assert blocks
    for code in blocks:
        proc = run_python("-c", code)
        assert (proc.returncode, proc.stderr) == (0, "")


# Each command of a bash block, logged as its argument count and arguments,
# NUL-terminated, instead of run.
LOG_COMMANDS = """
log() { printf '%s\\0' "$#" "$@" >> "$COMMAND_LOG"; }
isocal() { log isocal "$@"; }
python() { log python "$@"; }
"""


def test_readme_bash_blocks(tmp_path, monkeypatch):
    """Each ```bash block of README.md runs in an empty directory, with
    `scripts/` linked in, and every command exits 0 with nothing on stderr.
    bash runs the block with `isocal` and `python` logging their arguments;
    the logged commands then run in order, `isocal` in this process through
    `isocal.cli.main` and `python` as a child."""
    blocks = re.findall(r"^```bash\n(.*?)^```$", (ROOT / "README.md").read_text(), re.S | re.M)
    assert len(blocks) == 3
    for i, block in enumerate(blocks):
        work = tmp_path / f"block{i}"
        work.mkdir()
        (work / "scripts").symlink_to(ROOT / "scripts")
        log = work / "commands"
        proc = subprocess.run(["bash", "-e", "-c", LOG_COMMANDS + block], cwd=work, capture_output=True,
                              text=True, env={**os.environ, "COMMAND_LOG": str(log)}, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        fields = log.read_text().split("\0")[:-1]
        monkeypatch.chdir(work)
        while fields:
            n, fields = int(fields[0]), fields[1:]
            (program, *args), fields = fields[:n], fields[n:]
            if program == "isocal":
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main(args)
                assert (code, err.getvalue()) == (0, ""), args
            else:
                proc = run_python(*args, cwd=work)
                assert (proc.returncode, proc.stderr) == (0, ""), args
    assert [p.name for p in sorted((tmp_path / "block2" / "curves").glob("alpha*"))] == [
        f"alpha{tag}_{kind}.csv" for tag in ("0p5", "1", "2") for kind in ("calibrated", "uncalibrated")]


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
