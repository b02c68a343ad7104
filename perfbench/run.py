#!/usr/bin/env python3
"""Stage-and-layer benchmark of the isocal CLI pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload gauss-pooled --seed 1 --seconds 42 --trace 0

Set-up writes the workload's fit split (seed s) and evaluation split
(seed s+1) with ``isocal synth``. The measured loop then runs
``calibrate`` -> ``evaluate --model`` -> ``reliability --model`` as child
processes, one at a time, until ``--seconds`` (counted from the start of
set-up) would be exceeded: a closed loop with a single caller, because
isocal is a batch tool whose caller waits for each result. Wall time,
CPU time and max RSS of each child come from ``os.wait4``. Every output is
checked (see checks.py); a failed check or a nonzero exit counts as a
failed operation and makes the command exit 1.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` also calls
``isocal.cli.main(argv)`` in-process, once plain and once with the layer
spans of tracing.py, and prints per-layer metrics prefixed by stage.
The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass, replace
from importlib import metadata
from pathlib import Path

import checks
from checks import CheckFailed
from tracing import Tracer, hooks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

ALPHA = 2.0
SETUP_REPEATS = 3
MIN_ITERATIONS = 2
CHILD_TIMEOUT_S = 120.0
STAGES = ("calibrate", "evaluate", "reliability")


@dataclass(frozen=True)
class Workload:
    name: str
    grid: tuple[int, int, int]  # H, W, T
    scope: str  # CLI --scope value
    k: int = 0  # ensemble members; 0 means Gaussian parameters

    @property
    def points(self) -> int:
        h, w, t = self.grid
        return h * w * t

    @property
    def gaussian(self) -> bool:
        return self.k == 0

    def synth_argv(self, seed: int, fc: Path, obs: Path) -> list[str]:
        h, w, t = self.grid
        argv = ["synth", "--grid", f"{h}x{w}x{t}", "--alpha", str(ALPHA), "--seed", str(seed),
                "--out-forecasts", str(fc), "--out-observations", str(obs)]
        if not self.gaussian:
            argv += ["--mode", "sample_set", "--k", str(self.k)]
        return argv


# Sizes are a quarter (Gaussian) and an eighth (ensemble) of the ROADMAP
# baseline grids, so that one run fits several repeats of each stage in
# its time budget. --full-size restores the baseline grids.
WORKLOADS = {
    "gauss-pooled": Workload("gauss-pooled", (16, 16, 120), "pooled"),
    "gauss-cells": Workload("gauss-cells", (16, 16, 120), "per-cell"),
    "ensemble-pooled": Workload("ensemble-pooled", (8, 8, 60), "pooled", k=20),
}
FULL_SIZE_GRIDS = {
    "gauss-pooled": (32, 32, 120),
    "gauss-cells": (32, 32, 120),
    "ensemble-pooled": (16, 16, 120),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "calibrate_s": "s",
    "evaluate_s": "s",
    "reliability_s": "s",
    "pipeline_points_per_s": "points/s",
    "peak_rss_mb": "MB",
    "model_mb": "MB",
    "ce_reduction": "1",
}

STAGE_METRICS = ("wall_s", "cpu_s", "inproc_s", "traced_s", "trace_overhead_s")
SETUP_LAYER_METRICS = ("cli.import_s", "cli.self_s", "synth.generate_gridded_s",
                       "gridio.write_forecasts_s", "gridio.write_observations_s")
PIPELINE_LAYER_METRICS = (
    "cli.import_s", "cli.import_scipy_special_s", "cli.self_s",
    "gridio.read_forecasts_s", "gridio.read_observations_s",
    "gridio.records_parsed", "gridio.records_per_s",
    "recalibration.grid_points_s", "recalibration.dist_objects",
    "recalibration.build_calibration_dataset_s", "recalibration.fit_calibrator_s",
    "recalibration.save_model_s", "recalibration.load_model_s", "recalibration.model_knots",
    "isotonic.fit_isotonic_s", "isotonic.fit_calls", "isotonic.pava_pooled_frac",
    "isotonic.inverse_s", "isotonic.inverse_calls",
    "predictive.cdf_calls", "predictive.quantile_calls", "predictive.variance_calls",
    "metrics.reliability_curve_s", "metrics.sharpness_s",
    "metrics.mae_mid_quantile_s", "metrics.write_reliability_csv_s",
)
# Counts must repeat exactly from one traced run to the next.
COUNT_METRICS = {"gridio.records_parsed", "recalibration.dist_objects",
                 "recalibration.model_knots", "isotonic.fit_calls", "isotonic.pava_pooled_frac",
                 "isotonic.inverse_calls", "predictive.cdf_calls", "predictive.quantile_calls",
                 "predictive.variance_calls"}


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = [f"setup.{m}" for m in SETUP_LAYER_METRICS + STAGE_METRICS]
    for stage in STAGES:
        names += [f"{stage}.{m}" for m in PIPELINE_LAYER_METRICS + STAGE_METRICS]
    return names


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "1" if name.endswith("_frac") else "count"


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it, if any."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def iterations(seconds: float):
    """Yield iteration numbers while the next one should still end within
    ``seconds`` (judged by the last one), and at least MIN_ITERATIONS."""
    start = time.perf_counter()
    last = 0.0
    i = 0
    while i < MIN_ITERATIONS or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        yield i
        last = time.perf_counter() - began
        i += 1


def environment() -> dict:
    nproc = len(os.sched_getaffinity(0))
    return {"nproc": nproc, "python": sys.version.split()[0],
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy")}


def child_env(nproc: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(nproc, int(env.get(var) or nproc)))
    return env


@dataclass
class ChildRun:
    exit_code: int
    wall_s: float
    cpu_s: float
    max_rss_mb: float


def run_child(cmd: list[str], env: dict, log: Path) -> ChildRun:
    """Run one child to completion; resources come from its own wait4."""
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        actions = [(os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_DUP2, fd, 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(cmd[0], cmd, env, file_actions=actions)
    finally:
        os.close(fd)
    killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, 9))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    return ChildRun(os.waitstatus_to_exitcode(status), wall,
                    usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6)


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, what: str, reason: str) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {reason}")
        print(f"perfbench: FAILED {what}: {reason}", file=sys.stderr)


class Bench:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        self.wl = workload
        self.seed = seed
        self.dir = work_dir
        self.env_info = environment()
        self.env = child_env(self.env_info["nproc"])
        self.ledger = Ledger()
        self.digests: dict[str, str] = {}
        self.samples: dict[str, list[float]] = {}
        self.quality: dict[str, float] = {}
        self.spans: list[dict] = []
        d = work_dir
        self.fit = (d / "fit_fc.csv", d / "fit_obs.csv")
        self.ev = (d / "eval_fc.csv", d / "eval_obs.csv")

    # ---- stage command lines -------------------------------------------------

    def outputs(self, tag: str = "") -> dict[str, Path]:
        d = self.dir
        return {"calibrate": d / f"model{tag}.json", "evaluate": d / f"report{tag}.json",
                "reliability": d / f"curve{tag}.csv"}

    def stage_argv(self, stage: str, tag: str = "") -> list[str]:
        out = self.outputs(tag)
        if stage == "calibrate":
            fc, obs = self.fit
            return ["calibrate", "--forecasts", str(fc), "--observations", str(obs),
                    "--scope", self.wl.scope, "--out", str(out["calibrate"])]
        fc, obs = self.ev
        return [stage, "--forecasts", str(fc), "--observations", str(obs),
                "--model", str(self.outputs()["calibrate"]), "--out", str(out[stage])]

    def setup_argvs(self, tag: str = "") -> list[list[str]]:
        d = self.dir
        if not tag:
            splits = ((self.seed, self.fit), (self.seed + 1, self.ev))
        else:
            splits = ((self.seed, (d / f"fit_fc{tag}.csv", d / f"fit_obs{tag}.csv")),
                      (self.seed + 1, (d / f"eval_fc{tag}.csv", d / f"eval_obs{tag}.csv")))
        return [self.wl.synth_argv(s, fc, obs) for s, (fc, obs) in splits]

    def cli_child(self, argv: list[str], what: str) -> ChildRun | None:
        """One CLI child process; None (and a failure) on a nonzero exit."""
        self.ledger.attempted += 1
        log = self.dir / f"{what}.log"
        run = run_child([sys.executable, "-m", "isocal", *argv], self.env, log)
        if run.exit_code != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-1:] or [""]
            self.ledger.fail(what, f"exit {run.exit_code}: {tail[0]}")
            return None
        return run

    # ---- correctness ---------------------------------------------------------

    def same_as_before(self, key: str, path: Path) -> None:
        """Byte-identical to the first file recorded under ``key``."""
        d = checks.digest(path)
        if self.digests.setdefault(key, d) != d:
            raise CheckFailed(f"{path.name} differs from an earlier run with the same inputs")

    def check(self, what: str, fn, *args) -> bool:
        try:
            fn(*args)
        except CheckFailed as exc:
            self.ledger.fail(what, str(exc))
            return False
        return True

    def gate_outputs(self) -> dict | None:
        """Full output gate on one pipeline pass; returns the report."""
        from isocal.synth import true_recalibration_map
        out = self.outputs()
        h, w, t = self.wl.grid
        per_map = t if self.wl.scope == "per-cell" else self.wl.points
        truth = (lambda p: true_recalibration_map(ALPHA, p)) if self.wl.gaussian else None
        report = {}
        ok = self.check("calibrate", lambda: checks.check_model(
            out["calibrate"], self.wl.scope, h, w, per_map, truth))
        ok &= self.check("evaluate", lambda: report.update(checks.check_report(out["evaluate"])))
        if report:
            ok &= self.check("reliability", checks.check_curve, out["reliability"], report)
        return report if ok else None

    def pass_identical(self) -> bool:
        ok = True
        for stage, path in self.outputs().items():
            ok &= self.check(stage, self.same_as_before, stage, path)
        return ok

    # ---- set-up ----------------------------------------------------------------

    def setup(self, repeats: int) -> list[float]:
        """Write both splits ``repeats`` times; wall time of each pair."""
        times = []
        for _ in range(repeats):
            total = 0.0
            for argv in self.setup_argvs():
                run = self.cli_child(argv, "setup")
                if run is None:
                    return times
                total += run.wall_s
            times.append(total)
            for path in (*self.fit, *self.ev):
                if not self.check("setup", self.same_as_before, path.name, path):
                    return times
        return times

    def warm_up(self) -> None:
        """Fill the bytecode and page caches so the first timed run is not special."""
        run_child([sys.executable, "-c", "import isocal"], self.env, self.dir / "warmup.log")

    # ---- untraced run ----------------------------------------------------------

    def run_untraced(self, seconds: float) -> dict:
        start = time.perf_counter()
        self.warm_up()
        setup_times = self.setup(SETUP_REPEATS)
        if len(setup_times) < SETUP_REPEATS:
            return {}
        samples = {stage: [] for stage in STAGES}
        rss, rates = [], []
        report = None
        for _ in iterations(seconds - (time.perf_counter() - start)):
            runs = []
            for stage in STAGES:
                run = self.cli_child(self.stage_argv(stage), stage)
                if run is None:
                    break
                runs.append(run)
            if len(runs) < len(STAGES):
                break
            if report is None:
                report = self.gate_outputs()
                if report is None:
                    break
            if not self.pass_identical():
                break
            for stage, run in zip(STAGES, runs):
                samples[stage].append(run.wall_s)
            rss.append(max(r.max_rss_mb for r in runs))
            rates.append(self.wl.points / sum(r.wall_s for r in runs))
        if not rss:
            return {}
        self.samples = {"setup_s": setup_times, **{f"{s}_s": v for s, v in samples.items()}}
        ce_cal, ce_raw = report["calibrated"]["ce"], report["uncalibrated"]["ce"]
        self.quality = {"ce_calibrated": ce_cal, "ce_uncalibrated": ce_raw}
        med = statistics.median
        return {
            "setup_s": med(setup_times),
            **{f"{s}_s": med(v) for s, v in samples.items()},
            "pipeline_points_per_s": med(rates),
            "peak_rss_mb": med(rss),
            "model_mb": self.outputs()["calibrate"].stat().st_size / 1e6,
            "ce_reduction": 1.0 - ce_cal / ce_raw,
        }

    # ---- traced run ------------------------------------------------------------

    def import_probe(self) -> dict[str, float]:
        """Fresh ``import isocal`` in a child, split by ``-X importtime``."""
        log = self.dir / "importtime.log"
        run_child([sys.executable, "-X", "importtime", "-c", "import isocal"], self.env, log)
        out = {"cli.import_s": 0.0, "cli.import_scipy_special_s": 0.0}
        for line in log.read_text().splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            cumulative = int(parts[1]) / 1e6
            name = parts[2].strip()
            if name == "isocal":
                out["cli.import_s"] = cumulative
            elif name in ("scipy", "scipy.special"):
                out["cli.import_scipy_special_s"] += cumulative
        return out

    def in_process(self, argv_list: list[list[str]], tracer=None) -> float | None:
        """Call isocal.cli.main for each argv; wall time, or None on failure."""
        import isocal.cli
        sink = io.StringIO()
        total = 0.0
        for argv in argv_list:
            self.ledger.attempted += 1
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                patch = tracer.installed(hooks()) if tracer else contextlib.nullcontext()
                with patch:
                    start = time.perf_counter()
                    code = isocal.cli.main(argv)
                    total += time.perf_counter() - start
            if code != 0:
                self.ledger.fail(f"{argv[0]} in-process", f"exit {code}: {sink.getvalue()[-200:]}")
                return None
        return total

    def traced_stage(self, stage: str, iteration: int) -> dict | None:
        """Child, plain in-process and traced in-process runs of one stage."""
        if stage == "setup":
            child_argvs = self.setup_argvs()
            plain, traced = self.setup_argvs("_inproc"), self.setup_argvs("_traced")
        else:
            child_argvs = [self.stage_argv(stage)]
            plain, traced = [self.stage_argv(stage, "_inproc")], [self.stage_argv(stage, "_traced")]
        wall = cpu = 0.0
        for argv in child_argvs:
            run = self.cli_child(argv, stage)
            if run is None:
                return None
            wall += run.wall_s
            cpu += run.cpu_s
        inproc = self.in_process(plain)
        tracer = Tracer(f"{self.wl.name}-s{self.seed}-{stage}-{iteration}")
        traced_s = self.in_process(traced, tracer)
        if inproc is None or traced_s is None:
            return None
        self.spans.extend(tracer.span_records())
        # Traced, plain and child runs must write byte-identical files.
        for argvs in (child_argvs, plain, traced):
            for i, argv in enumerate(argvs):
                for j, path in enumerate(output_files(argv)):
                    if not self.check(stage, self.same_as_before, f"{stage}-{i}-{j}", path):
                        return None
        layers = tracer.layer_metrics()
        layers.update(self.import_probe())
        names = SETUP_LAYER_METRICS if stage == "setup" else PIPELINE_LAYER_METRICS
        out = {m: float(layers.get(m, 0.0)) for m in names}
        out.update(wall_s=wall, cpu_s=cpu, inproc_s=inproc, traced_s=traced_s,
                   trace_overhead_s=traced_s - inproc)
        return out

    def run_traced(self, seconds: float) -> dict:
        start = time.perf_counter()
        self.warm_up()
        if len(self.setup(1)) < 1:
            return {}
        import isocal.cli
        if Path(isocal.__file__).resolve().parent != SRC / "isocal":
            raise SystemExit(f"perfbench: imported isocal from {isocal.__file__}, not {SRC}")
        originals = [(h.target, h.attr, getattr(h.target, h.attr)) for h in hooks()]
        rounds: list[dict[str, float]] = []
        for _ in iterations(seconds - (time.perf_counter() - start)):
            metrics = {}
            for stage in ("setup", *STAGES):
                got = self.traced_stage(stage, len(rounds))
                if got is None:
                    return {}
                metrics.update({f"{stage}.{k}": v for k, v in got.items()})
            if not rounds and self.gate_outputs() is None:
                return {}
            rounds.append(metrics)
        for target, attr, original in originals:
            if getattr(target, attr) is not original:
                self.ledger.fail("trace", f"{attr} was not restored")
        out = {}
        for name in per_layer_names():
            values = [r[name] for r in rounds]
            if name.split(".", 1)[1] in COUNT_METRICS and len(set(values)) != 1:
                self.ledger.fail("trace", f"{name} differs between traced runs: {values}")
            out[name] = statistics.median(values)
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def output_files(argv: list[str]) -> list[Path]:
    flags = ("--out-forecasts", "--out-observations") if argv[0] == "synth" else ("--out",)
    return [Path(argv[argv.index(f) + 1]) for f in flags]


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        work_dir: Path) -> tuple[dict, Bench]:
    """One benchmark run: the result object printed last, and its `Bench`."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    bench = Bench(workload, seed, work_dir)
    metrics = bench.run_traced(seconds) if trace else bench.run_untraced(seconds)
    led = bench.ledger
    if bench.spans:
        bench.write_spans(work_dir / f"spans-s{seed}.jsonl")
    result = {"correct": led.failed == 0 and bool(metrics), "attempted": max(led.attempted, 1),
              "failed": led.failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
    return result, bench


def print_summary(result: dict, bench: Bench, trace: bool) -> None:
    """Comment lines ahead of the result: environment, sample counts, quality."""
    info = {"workload": bench.wl.name, "grid": "x".join(map(str, bench.wl.grid)),
            "seed": bench.seed, "trace": int(trace), **bench.env_info}
    print("# " + json.dumps(info))
    for name, samples in bench.samples.items():
        tail = tail_percentile(samples)
        tail_text = f"p{tail[0]:.0f}={tail[1]:.4f}" if tail else "no tail percentile (n < 11)"
        print(f"# {name:<16} median={statistics.median(samples):.4f} "
              f"min={min(samples):.4f} max={max(samples):.4f} n={len(samples)} {tail_text}")
    for name, value in bench.quality.items():
        print(f"# {name:<16} {value:.6g}")
    attempted = result["attempted"]
    print(f"# failed_frac      {result['failed'] / attempted:.4g} "
          f"({result['failed']} of {attempted} operations)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full-size", action="store_true",
                        help="use the ROADMAP baseline grids instead of the benchmark's")
    args = parser.parse_args(argv)
    if not (SRC / "isocal" / "__init__.py").is_file():
        print(f"perfbench: no isocal sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64 - 1:
        parser.error("--seed must lie in [0, 2**64 - 1)")
    workload = WORKLOADS[args.workload]
    if args.full_size:
        workload = replace(workload, grid=FULL_SIZE_GRIDS[workload.name])
    work_dir = WORK / f"{workload.name}-t{args.trace}"
    result, bench = run(workload, args.seed, args.seconds, bool(args.trace), work_dir)
    print_summary(result, bench, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
