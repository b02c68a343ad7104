"""Self-tests of the benchmark, on grids small enough to run in seconds.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import run as bench  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
TINY_CELLS = replace(bench.WORKLOADS["gauss-cells"], grid=(4, 4, 40))
TINY_ENSEMBLE = replace(bench.WORKLOADS["ensemble-pooled"], grid=(3, 3, 40))
SEED = 7


def _run(workload, trace, path):
    result, b = bench.run(workload, SEED, 0.0, trace, path)
    assert result["correct"], b.ledger.errors
    assert result["failed"] == 0
    return result, b


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    sys.path.insert(0, str(bench.SRC))
    from tracing import hooks
    originals = [(h.target, h.attr, getattr(h.target, h.attr)) for h in hooks()]
    base = tmp_path_factory.mktemp("perfbench")
    return {
        "originals": originals,
        "untraced": _run(TINY_CELLS, False, base / "untraced"),
        "traced": _run(TINY_CELLS, True, base / "traced"),
        "traced_again": _run(TINY_CELLS, True, base / "traced_again"),
        "ensemble": _run(TINY_ENSEMBLE, True, base / "ensemble"),
    }


def test_emitted_names_match_benchmark_json(runs):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in declared["end_to_end"]]
    layers = [m["name"] for m in declared["per_layer"]]
    assert list(runs["untraced"][0]["metrics"]) == e2e
    assert list(runs["traced"][0]["metrics"]) == layers
    emitted = {**runs["untraced"][0]["metrics"], **runs["traced"][0]["metrics"]}
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert NAME_RE.fullmatch(metric["name"])
        assert emitted[metric["name"]]["unit"] == metric["unit"]


def test_wrapped_attributes_are_restored(runs):
    for target, attr, original in runs["originals"]:
        assert getattr(target, attr) is original, attr


def test_traced_and_untraced_outputs_are_identical(runs):
    plain = runs["untraced"][1].outputs()
    traced = runs["traced"][1].outputs("_traced")
    for stage in bench.STAGES:
        assert traced[stage].read_bytes() == plain[stage].read_bytes(), stage


@pytest.mark.parametrize("name", ["gridio.records_parsed", "recalibration.model_knots",
                                  "isotonic.inverse_calls", "predictive.quantile_calls"])
def test_counts_repeat_between_traced_runs(runs, name):
    for stage in bench.STAGES:
        key = f"{stage}.{name}"
        assert (runs["traced"][0]["metrics"][key]["value"]
                == runs["traced_again"][0]["metrics"][key]["value"]), key


def test_layer_counts_follow_the_workload(runs):
    cells = runs["traced"][0]["metrics"]
    ens = runs["ensemble"][0]["metrics"]
    assert cells["calibrate.isotonic.fit_calls"]["value"] == 16
    assert cells["evaluate.predictive.quantile_calls"]["value"] == 0
    assert ens["evaluate.predictive.quantile_calls"]["value"] > 0
    assert cells["calibrate.isotonic.pava_pooled_frac"]["value"] == 0.0


def test_strict_json_rejects_nan(tmp_path):
    path = tmp_path / "r.json"
    path.write_text('{"ce": NaN}')
    with pytest.raises(checks.CheckFailed):
        checks.strict_json(path)


def test_model_outside_the_dkw_band_fails(tmp_path):
    p = np.linspace(0.0, 1.0, 101)
    doc = {"scope": "pooled", "interpolation": "linear", "h": 0, "w": 0,
           "maps": [{"breakpoints": p.tolist(), "values": p.tolist()}]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    checks.check_model(path, "pooled", 4, 4, 10**6, truth=lambda q: q)
    with pytest.raises(checks.CheckFailed):
        checks.check_model(path, "pooled", 4, 4, 10**6, truth=lambda q: q ** 2)


def test_tail_percentile_needs_ten_samples_beyond():
    assert bench.tail_percentile([1.0] * 10) is None
    pct, value = bench.tail_percentile(list(range(20)))
    assert pct == 50.0 and value == 9
