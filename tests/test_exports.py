"""Names that code outside a module looks up in it must exist.

Every name in each isocal module's ``__all__`` is resolved, and so is
every attribute that the benchmark's tracer (``perfbench/tracing.py``)
wraps by name. The tracer is executed from its source file, without
importing it as a module or writing anything next to it.
"""

import importlib
import pkgutil
import runpy
from pathlib import Path

import isocal

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
