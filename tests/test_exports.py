"""Names that code outside a module looks up in it must exist.

Every name in each isocal module's ``__all__`` is resolved, and so is
every attribute that the benchmark's tracer (``perfbench/tracing.py``)
wraps by name, and the tracer's observers read the model they are given.
The tracer is executed from its source file, without importing it as a
module or writing anything next to it.
"""

import importlib
import pkgutil
import runpy
from collections import Counter
from pathlib import Path

import isocal
from isocal.synth import SynthConfig, generate_gridded

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_exported_and_traced_names_resolve():
    modules = [isocal] + [importlib.import_module(f"isocal.{info.name}")
                          for info in pkgutil.iter_modules(isocal.__path__)
                          if info.name != "__main__"]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in module.__all__ if not hasattr(module, name)]
    hooks = runpy.run_path(str(TRACING))["hooks"]()
    missing += [f"{getattr(h.target, '__name__', h.target)}.{h.attr}" for h in hooks
                if not hasattr(h.target, h.attr)]
    assert len(modules) >= 8 and len(hooks) > 20
    assert missing == []


def test_tracer_counts_the_knots_of_a_per_cell_model():
    fs, gs = generate_gridded(SynthConfig(alpha=2.0, seed=3, grid=(2, 3, 40)))
    cf = isocal.fit_calibrator(fs, gs, scope="per_cell")
    counts = Counter()
    runpy.run_path(str(TRACING))["_knots"](counts, (), cf)
    assert counts["recalibration.model_knots"] == cf.breakpoints.size == 240  # one per point
