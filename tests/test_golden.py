"""The CLI's outputs on fixed inputs equal the committed golden files.

``tests/golden/regen.py`` holds the script and rewrites the files; a
change that moves any of them is an output change and is declared.
"""

import runpy
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_golden_outputs_are_unchanged(tmp_path):
    runpy.run_path(str(GOLDEN / "regen.py"))["write_golden"](tmp_path)
    want = sorted(p.name for p in GOLDEN.iterdir() if p.is_file() and p.name != "regen.py")
    assert sorted(p.name for p in tmp_path.iterdir()) == want
    changed = [name for name in want if (tmp_path / name).read_bytes() != (GOLDEN / name).read_bytes()]
    assert changed == []
