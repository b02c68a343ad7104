"""Spans and counters around the public functions of each isocal module.

A traced stage run calls ``isocal.cli.main(argv)`` in-process while every
entry in `hooks` is replaced by a wrapper at the name its caller looks up
(``isocal.cli.read_forecasts``, ``isocal.recalibration.fit_isotonic``,
``IsotonicMap.inverse``, ...). `Tracer.installed` puts the originals back
on exit, whatever happened inside. Nothing under ``src/`` is changed.

Spans stay in memory: name, start, end, own id, parent id and the run id
shared by one stage run. A layer's busy time is its spans' duration minus
the time covered by their child spans. Per-point scalar functions
(``cdf``, ``quantile``, ``variance``, ``ForecastSeries.dist``) are only
counted, so the traced run stays close to the untraced one.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: int | None
    run_id: str


@dataclass(frozen=True)
class Hook:
    """One attribute to wrap: ``target.attr`` becomes a span or a counter."""

    target: object
    attr: str
    name: str  # span name ("<layer>.<function>") or counter metric name
    counter_only: bool = False
    calls: str | None = None  # counter metric bumped once per span
    observe: object = None  # observe(counts, args, result), run after the stage


def _records(counts, args, fs):
    counts["gridio.records_parsed"] += (fs.means if fs.kind == "gaussian" else fs.samples).size


def _obs_records(counts, args, gs):
    counts["gridio.records_parsed"] += gs.values.size


def _knots(counts, args, cf):
    counts["recalibration.model_knots"] += sum(m.breakpoints.size for m in cf.maps)


def _pava_pooled(counts, args, iso_map):
    """Fit inputs whose fitted value differs from their target."""
    x = np.asarray(args[0], dtype=np.float64)
    y = np.asarray(args[1], dtype=np.float64)
    fitted = iso_map.values[np.searchsorted(iso_map.breakpoints, x)]
    counts["isotonic.pava_pooled"] += int(np.count_nonzero(fitted != y))
    counts["isotonic.fit_points"] += x.size


def hooks() -> list[Hook]:
    """Every attribute of the imported ``isocal`` package that gets wrapped."""
    import isocal.cli as cli
    from isocal import gridio, metrics
    from isocal import recalibration as rec
    from isocal.isotonic import IsotonicMap as iso_cls
    return [
        Hook(cli, "main", "cli.main"),
        Hook(cli, "read_forecasts", "gridio.read_forecasts", observe=_records),
        Hook(cli, "read_observations", "gridio.read_observations", observe=_obs_records),
        Hook(gridio, "write_forecasts", "gridio.write_forecasts"),
        Hook(gridio, "write_observations", "gridio.write_observations"),
        Hook(cli, "generate_gridded", "synth.generate_gridded"),
        Hook(cli, "grid_points", "recalibration.grid_points"),
        Hook(rec, "grid_points", "recalibration.grid_points"),
        Hook(gridio.ForecastSeries, "dist", "recalibration.dist_objects", counter_only=True),
        Hook(cli, "fit_calibrator", "recalibration.fit_calibrator", observe=_knots),
        Hook(rec, "build_calibration_dataset", "recalibration.build_calibration_dataset"),
        Hook(cli, "save_model", "recalibration.save_model"),
        Hook(cli, "load_model", "recalibration.load_model", observe=_knots),
        Hook(rec, "fit_isotonic", "isotonic.fit_isotonic", calls="isotonic.fit_calls",
             observe=_pava_pooled),
        Hook(iso_cls, "inverse", "isotonic.inverse", calls="isotonic.inverse_calls"),
        Hook(rec, "cdf", "predictive.cdf_calls", counter_only=True),
        Hook(rec, "quantile", "predictive.quantile_calls", counter_only=True),
        Hook(metrics, "quantile", "predictive.quantile_calls", counter_only=True),
        Hook(metrics, "variance", "predictive.variance_calls", counter_only=True),
        Hook(cli, "reliability_curve", "metrics.reliability_curve"),
        Hook(cli, "sharpness", "metrics.sharpness"),
        Hook(cli, "mae_mid_quantile", "metrics.mae_mid_quantile"),
        Hook(cli, "write_reliability_csv", "metrics.write_reliability_csv"),
    ]


class Tracer:
    """Spans and counts of one stage run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._pending: list[tuple] = []

    def _span(self, hook: Hook, fn):
        def wrapper(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(hook.name, start, end, span_id, parent, self.run_id))
            if hook.calls:
                self.counts[hook.calls] += 1
            if hook.observe:
                self._pending.append((hook.observe, args, result))
            return result
        return wrapper

    def _counter(self, hook: Hook, fn):
        counts = self.counts
        name = hook.name

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self, hook_list: list[Hook]):
        """Wrap every hook for the duration of the block, then restore."""
        saved = []
        try:
            for hook in hook_list:
                original = getattr(hook.target, hook.attr)
                saved.append((hook, original))
                wrap = self._counter if hook.counter_only else self._span
                setattr(hook.target, hook.attr, wrap(hook, original))
            yield self
        finally:
            for hook, original in reversed(saved):
                setattr(hook.target, hook.attr, original)
        for observe, args, result in self._pending:
            observe(self.counts, args, result)
        self._pending.clear()

    def self_times(self) -> dict[str, float]:
        """Busy time per span name: duration minus child-span time."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += (s.end - s.start) - child[s.span_id]
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Layer metrics of this stage run, keyed without the stage prefix."""
        busy = self.self_times()
        counts = dict(self.counts)
        fit_points = counts.pop("isotonic.fit_points", 0)
        pooled = counts.pop("isotonic.pava_pooled", 0)
        out = {f"{name}_s": t for name, t in busy.items() if name != "cli.main"}
        out["cli.self_s"] = busy.get("cli.main", 0.0)
        out.update(counts)
        read_s = busy.get("gridio.read_forecasts", 0.0) + busy.get("gridio.read_observations", 0.0)
        records = counts.get("gridio.records_parsed", 0)
        out["gridio.records_per_s"] = records / read_s if read_s else 0.0
        out["isotonic.pava_pooled_frac"] = pooled / fit_points if fit_points else 0.0
        return out

    def span_records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
