import argparse
import contextlib
import io
import json
import tempfile
import warnings
from inspect import signature
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isocal.cli
import isocal.recalibration
from isocal.cli import _build_parser, _human_delta, main
from isocal.gridio import read_forecasts, read_observations
from isocal.isotonic import IsotonicMap, inverse_maps
from isocal.metrics import (
    CE_VARIANTS,
    calibration_error,
    coverage,
    mae_mid_quantile,
    reliability_curve,
    sharpness,
    write_reliability_csv,
)
from isocal.recalibration import (
    DEFAULT_MIN_POINTS_PER_CELL,
    IDENTITY,
    fit_calibrator,
    grid_points,
    load_model,
    save_model,
)
from isocal.synth import true_recalibration_map

import oracles
from mutations import mutated


def run(*argv):
    return main([str(a) for a in argv])


def synth_files(tmp_path, tag, **flags):
    fc = tmp_path / f"fc_{tag}.csv"
    obs = tmp_path / f"obs_{tag}.csv"
    argv = ["synth", "--out-forecasts", fc, "--out-observations", obs]
    for key, value in flags.items():
        argv += [f"--{key.replace('_', '-')}", value]
    assert run(*argv) == 0
    return fc, obs


class TestSynthCommand:
    def test_writes_both_files(self, tmp_path):
        fc, obs = synth_files(tmp_path, "a", n="100", alpha="1", seed="7")
        assert fc.read_text().startswith("time,row,col,mean,std\n")
        assert obs.read_text().startswith("time,row,col,value\n")

    def test_repeated_run_is_byte_identical(self, tmp_path):
        (tmp_path / "r1").mkdir()
        (tmp_path / "r2").mkdir()
        fc1, obs1 = synth_files(tmp_path / "r1", "a", n="100", alpha="1", seed="7")
        fc2, obs2 = synth_files(tmp_path / "r2", "a", n="100", alpha="1", seed="7")
        assert fc1.read_bytes() == fc2.read_bytes()
        assert obs1.read_bytes() == obs2.read_bytes()

    def test_sample_set_writes_ensemble_format(self, tmp_path):
        fc, _ = synth_files(tmp_path, "e", n="5", alpha="2", mode="sample_set", k="40")
        lines = fc.read_text().splitlines()
        assert lines[0] == "time,row,col,sample_idx,value"
        assert len(lines) == 1 + 5 * 40

    def test_zero_alpha_is_usage_error(self, tmp_path):
        code = run("synth", "--n", "10", "--alpha", "0",
                   "--out-forecasts", tmp_path / "f.csv",
                   "--out-observations", tmp_path / "o.csv")
        assert code == 1

    def test_paired_outputs_must_differ(self, tmp_path, capsys):
        same = tmp_path / "same.csv"
        capsys.readouterr()
        assert run("synth", "--n", "10", "--out-forecasts", same, "--out-observations", same) == 1
        assert capsys.readouterr().err == (f"isocal: usage error: output path {str(same)!r} "
                                           "would overwrite another output\n")
        assert not same.exists()

    def test_needs_exactly_one_size_flag(self, tmp_path):
        code = run("synth", "--out-forecasts", tmp_path / "f.csv",
                   "--out-observations", tmp_path / "o.csv")
        assert code == 1

    def test_grid_flag(self, tmp_path):
        fc, obs = synth_files(tmp_path, "g", grid="2x3x10", seed="1")
        text = obs.read_text()
        assert "9,1,2," in text

    # Every size here needs at least 7 PiB, which numpy refuses at once.
    @pytest.mark.parametrize("flags", [
        ["--grid", "100000x100000x100000"],
        ["--n", "1000000000000000"],
        ["--n", "1", "--mode", "sample_set", "--k", "1000000000000000"],
    ], ids=["grid", "n", "k"])
    def test_size_numpy_cannot_allocate_is_one_line_error(self, tmp_path, capsys, flags):
        fc, obs = tmp_path / "f.csv", tmp_path / "o.csv"
        assert run("synth", *flags, "--out-forecasts", fc, "--out-observations", obs) == 3
        err = capsys.readouterr().err
        assert err.startswith("isocal: error: not enough memory: ") and err.count("\n") == 1
        assert not fc.exists() and not obs.exists()

    def test_alpha_whose_std_overflows_is_usage_error(self, tmp_path, capsys):
        code = run("synth", "--n", "100", "--alpha", "1e308",
                   "--out-forecasts", tmp_path / "f.csv", "--out-observations", tmp_path / "o.csv")
        assert code == 1
        assert capsys.readouterr().err == \
            "isocal: usage error: alpha too large: 1e+308 (the reported std would overflow)\n"

    def test_alpha_whose_members_overflow_is_usage_error(self, tmp_path):
        fc, obs = tmp_path / "f.csv", tmp_path / "o.csv"
        code, err = run_captured("synth", "--n", "100", "--alpha", "8e307", "--mode", "sample_set",
                                 "--out-forecasts", fc, "--out-observations", obs)
        assert (code, err) == (1, "isocal: usage error: alpha too large: 8e+307 with bias 0.0 "
                                  "(members would overflow)\n")
        assert not fc.exists() and not obs.exists()
        assert run("synth", "--n", "100", "--alpha", "8e307",
                   "--out-forecasts", fc, "--out-observations", obs) == 0  # Gaussian: std only


@pytest.fixture(scope="module")
def alpha2_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("alpha2")
    run("synth", "--n", "20000", "--alpha", "2", "--seed", "42",
        "--out-forecasts", base / "fit_fc.csv", "--out-observations", base / "fit_obs.csv")
    run("synth", "--n", "5000", "--alpha", "2", "--seed", "43",
        "--out-forecasts", base / "test_fc.csv", "--out-observations", base / "test_obs.csv")
    assert run("calibrate", "--forecasts", base / "fit_fc.csv",
               "--observations", base / "fit_obs.csv", "--out", base / "model.json") == 0
    return base


class TestCalibrateCommand:
    def test_model_matches_analytic_map(self, alpha2_files):
        cf = load_model(alpha2_files / "model.json")
        ps = np.arange(0.05, 0.9501, 0.005)
        assert np.max(np.abs(cf.maps[0].evaluate(ps) - true_recalibration_map(2.0, ps))) <= 0.02

    def test_near_identity_for_calibrated_input(self, tmp_path):
        fc, obs = synth_files(tmp_path, "id", n="5000", alpha="1", seed="3")
        model = tmp_path / "model.json"
        assert run("calibrate", "--forecasts", fc, "--observations", obs, "--out", model) == 0
        cf = load_model(model)
        grid = np.linspace(0, 1, 201)
        assert np.max(np.abs(cf.maps[0].evaluate(grid) - grid)) <= 0.05

    def test_missing_file_exits_2(self, tmp_path):
        assert run("calibrate", "--forecasts", tmp_path / "nope.csv",
                   "--observations", tmp_path / "nope2.csv",
                   "--out", tmp_path / "m.json") == 2

    def test_output_may_not_clobber_input(self, tmp_path):
        fc, obs = synth_files(tmp_path, "c", n="50", seed="1")
        assert run("calibrate", "--forecasts", fc, "--observations", obs, "--out", fc) == 1

    def test_summary_lines(self, tmp_path, capsys):
        fc, obs = synth_files(tmp_path, "s", n="100", seed="2")
        capsys.readouterr()
        assert run("calibrate", "--forecasts", fc, "--observations", obs,
                   "--out", tmp_path / "m.json") == 0
        out = capsys.readouterr().out
        assert "scope: pooled" in out
        assert "calibration points: 100" in out

    @pytest.mark.parametrize("value", ["0", "1", "-3"])
    def test_min_points_per_cell_below_two_is_usage_error(self, tmp_path, capsys, value):
        fc, obs = synth_files(tmp_path, "mp", grid="2x2x10", seed="4")
        capsys.readouterr()
        assert run("calibrate", "--forecasts", fc, "--observations", obs, "--scope", "per-cell",
                   "--min-points-per-cell", value, "--out", tmp_path / "m.json") == 1
        assert capsys.readouterr().err == (
            f"isocal: usage error: --min-points-per-cell must be at least 2, got {value}\n")

    def test_outcome_beyond_the_double_range_of_its_z_is_a_pit_of_0_or_1(self, tmp_path):
        """(y - mean) / std overflows for these outcomes: the PIT is 1 and 0,
        with no numpy warning."""
        fc = tmp_path / "fc.csv"
        fc.write_text("time,row,col,mean,std\n0,0,0,-1e308,1.0\n1,0,0,0.0,1.0\n2,0,0,1e308,1.0\n")
        obs = tmp_path / "obs.csv"
        obs.write_text("time,row,col,value\n0,0,0,1e308\n1,0,0,0.0\n2,0,0,-1e308\n")
        model, curve = tmp_path / "m.json", tmp_path / "c.csv"
        files = ["--forecasts", fc, "--observations", obs]
        assert run_captured("calibrate", *files, "--out", model) == (0, "")
        assert load_model(model).breakpoints.tolist() == [0.0, 0.5, 1.0]
        assert run_captured("reliability", *files, "--model", model, "--out", curve) == (0, "")
        assert run_captured("reliability", *files, "--levels", "0.5", "--out", curve) == (0, "")
        assert curve.read_text().splitlines()[1] == "0.5,0.666666667,1"

    @pytest.mark.parametrize("scope", ["pooled", "per-cell"])
    def test_summary_counts_missing_observations(self, tmp_path, capsys, scope):
        fc, obs = synth_files(tmp_path, "m", grid="2x3x40", seed="4")
        lines = obs.read_text().splitlines()
        # time,row,col,value rows in time-major order: drop 3 steps of cell
        # (0, 1) and 1 step of cell (1, 2); the other 4 cells stay complete
        for i in (2, 8, 14, 24 + 6):
            lines[i] = lines[i].rsplit(",", 1)[0] + ",NaN"
        obs.write_text("\n".join(lines) + "\n")
        model = tmp_path / "m.json"
        capsys.readouterr()
        assert run("calibrate", "--forecasts", fc, "--observations", obs, "--scope", scope,
                   "--min-points-per-cell", "30", "--out", model) == 0
        assert capsys.readouterr().out == (
            f"scope: {scope.replace('-', '_')}\n"
            "grid: 2x3, 40 time steps\n"
            "calibration points: 236\n"
            "cells with missing observations: 2\n"
            f"model: {model}\n")
        cf = load_model(model)
        assert sum(m.breakpoints.size for m in cf.maps) == 236  # one knot per fitted point

    @pytest.mark.parametrize("scope", ["pooled", "per-cell"])
    def test_no_valid_observation_gives_the_line_evaluate_gives(self, tmp_path, capsys, scope):
        fc = tmp_path / "fc.csv"
        fc.write_text("time,row,col,mean,std\n0,0,0,0.0,1.0\n1,0,0,0.0,1.0\n")
        obs = tmp_path / "obs.csv"
        obs.write_text("time,row,col,value\n0,0,0,NaN\n1,0,0,NaN\n")
        out = tmp_path / "model.json"
        assert run("calibrate", "--forecasts", fc, "--observations", obs, "--scope", scope,
                   "--out", out) == 3
        assert capsys.readouterr() == ("", "isocal: error: no valid forecast/observation pairs\n")
        assert not out.exists()


class TestEvaluateCommand:
    def test_report_structure_and_direction(self, alpha2_files, tmp_path):
        report_path = tmp_path / "report.json"
        assert run("evaluate", "--forecasts", alpha2_files / "test_fc.csv",
                   "--observations", alpha2_files / "test_obs.csv",
                   "--model", alpha2_files / "model.json", "--out", report_path) == 0
        report = json.loads(report_path.read_text())
        for block in ("uncalibrated", "calibrated"):
            assert set(report[block]) == {"ce", "mae", "sharpness", "coverage"}
            assert len(report[block]["coverage"]) == 19
        assert report["calibrated"]["sharpness"] < report["uncalibrated"]["sharpness"]
        assert report["calibrated"]["ce"] < report["uncalibrated"]["ce"]
        assert report["deltas_pct"]["ce"] < 0

    def test_without_model(self, alpha2_files, capsys):
        assert run("evaluate", "--forecasts", alpha2_files / "test_fc.csv",
                   "--observations", alpha2_files / "test_obs.csv") == 0
        report = json.loads(capsys.readouterr().out)
        assert "calibrated" not in report
        assert report["uncalibrated"]["ce"] >= 0.05  # alpha=2 is clearly miscalibrated

    def test_human_output(self, alpha2_files, capsys):
        assert run("evaluate", "--forecasts", alpha2_files / "test_fc.csv",
                   "--observations", alpha2_files / "test_obs.csv",
                   "--model", alpha2_files / "model.json", "--human") == 0
        out = capsys.readouterr().out
        assert "CE (absolute)" in out
        assert "%" in out

    def test_delta_from_a_zero_ce_is_not_a_number(self, tmp_path, capsys):
        """Outcomes -1 and 1 around two N(0, 1) medians cover level 0.5
        exactly, so the uncalibrated CE is 0 and its delta has no base."""
        fit_fc, fit_obs = synth_files(tmp_path, "fit", n="200", alpha="2", seed="3")
        model = tmp_path / "model.json"
        assert run("calibrate", "--forecasts", fit_fc, "--observations", fit_obs, "--out", model) == 0
        fc, obs, report = tmp_path / "fc.csv", tmp_path / "obs.csv", tmp_path / "report.json"
        fc.write_text("time,row,col,mean,std\n0,0,0,0.0,1.0\n1,0,0,0.0,1.0\n")
        obs.write_text("time,row,col,value\n0,0,0,-1.0\n1,0,0,1.0\n")
        capsys.readouterr()
        assert run("evaluate", "--forecasts", fc, "--observations", obs, "--model", model,
                   "--levels", "0.5", "--human", "--out", report) == 0
        assert capsys.readouterr().out.splitlines()[1] == \
            "CE (absolute)                0             0  (n/a)"
        assert json.loads(report.read_text())["deltas_pct"]["ce"] is None

    def test_human_delta_arrow_follows_the_sign_bit(self):
        """A decrease that rounds to -0.0 points down, as its signed entry
        in ``deltas_pct`` does."""
        assert [_human_delta(pct) for pct in (-0.0, 0.0, -66.0, 12.5, None)] == \
            ["(↓ 0.0%)", "(↑ 0.0%)", "(↓ 66.0%)", "(↑ 12.5%)", "(n/a)"]

    @pytest.mark.parametrize("mode", ["gaussian_params", "sample_set"])
    def test_identity_model_changes_nothing(self, tmp_path, mode):
        fc, obs = synth_files(tmp_path, mode, grid="4x4x30", alpha="2", seed="2", mode=mode, k="20")
        model, report = tmp_path / "identity.json", tmp_path / "report.json"
        save_model(IDENTITY, model)
        assert run("evaluate", "--forecasts", fc, "--observations", obs,
                   "--model", model, "--out", report) == 0
        report = json.loads(report.read_text())
        assert report["deltas_pct"] == {"ce": 0.0, "mae": 0.0, "sharpness": 0.0}
        assert report["calibrated"] == report["uncalibrated"]

    def test_grid_dim_mismatch_exits_3(self, alpha2_files, tmp_path):
        fc, obs = synth_files(tmp_path, "grid", grid="2x2x50", alpha="2", seed="5")
        model = tmp_path / "grid_model.json"
        assert run("calibrate", "--forecasts", fc, "--observations", obs,
                   "--scope", "per-cell", "--min-points-per-cell", "10",
                   "--out", model) == 0
        assert run("evaluate", "--forecasts", alpha2_files / "test_fc.csv",
                   "--observations", alpha2_files / "test_obs.csv",
                   "--model", model) == 3

    def test_index_beyond_int64_is_parse_error(self, tmp_path, capsys):
        fc = tmp_path / "fc.csv"
        fc.write_text("time,row,col,mean,std\n0,0,0,0.0,1.0\n")
        obs = tmp_path / "obs.csv"
        obs.write_text("time,row,col,value\n0,0,0,0.5\n0,99999999999999999999,0,1.0\n")
        assert run("evaluate", "--forecasts", fc, "--observations", obs) == 2
        assert capsys.readouterr().err == \
            "isocal: parse error: line 3: invalid row: '99999999999999999999'\n"

    def test_levels_flag_variants(self, alpha2_files, capsys):
        assert run("evaluate", "--forecasts", alpha2_files / "test_fc.csv",
                   "--observations", alpha2_files / "test_obs.csv",
                   "--levels", "0.1,0.5,0.9") == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report["uncalibrated"]["coverage"]) == ["0.1", "0.5", "0.9"]
        assert run("evaluate", "--forecasts", alpha2_files / "test_fc.csv",
                   "--observations", alpha2_files / "test_obs.csv",
                   "--levels", "0.25:0.75:0.25") == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report["uncalibrated"]["coverage"]) == ["0.25", "0.5", "0.75"]

    @pytest.mark.parametrize("spec, levels", [
        ("0.1234567,0.1234568,0.5", ["0.1234567", "0.1234568", "0.5"]),  # alike to 6 digits
        ("0.1:0.65:0.2", ["0.1", "0.3", "0.5"]),  # a range stops at STOP
        ("0.1:0.87:0.3", ["0.1", "0.4", "0.7"]),
        ("0.05:0.95:0.05", [repr(round(0.05 * i, 10)) for i in range(1, 20)]),
    ])
    def test_level_spec_gives_one_report_key_per_level(self, alpha2_files, capsys, spec, levels):
        assert run("evaluate", "--forecasts", alpha2_files / "test_fc.csv",
                   "--observations", alpha2_files / "test_obs.csv", "--levels", spec) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["levels"] == list(report["uncalibrated"]["coverage"]) == levels

    def test_bad_levels_is_usage_error(self, alpha2_files):
        assert run("evaluate", "--forecasts", alpha2_files / "test_fc.csv",
                   "--observations", alpha2_files / "test_obs.csv",
                   "--levels", "0:1:0.5") == 1

    @pytest.mark.parametrize("levels", ["nan", "0.5,nan"])
    def test_nan_level_is_usage_error(self, alpha2_files, capsys, levels):
        assert run("evaluate", "--forecasts", alpha2_files / "test_fc.csv",
                   "--observations", alpha2_files / "test_obs.csv", "--levels", levels) == 1
        assert capsys.readouterr().err == ("isocal: usage error: argument --levels: "
                                           f"levels must lie strictly inside (0, 1): {levels!r}\n")

    def test_level_count_is_capped(self, alpha2_files, capsys):
        assert run("evaluate", "--forecasts", alpha2_files / "test_fc.csv",
                   "--observations", alpha2_files / "test_obs.csv",
                   "--levels", "0:1:1e-12") == 1
        assert "more than 1000 levels" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "reliability"])
    def test_no_valid_observation_is_one_line_error(self, tmp_path, capsys, command):
        fc = tmp_path / "fc.csv"
        fc.write_text("time,row,col,mean,std\n0,0,0,0.0,1.0\n1,0,0,0.0,1.0\n")
        obs = tmp_path / "obs.csv"
        obs.write_text("time,row,col,value\n0,0,0,NaN\n1,0,0,NaN\n")
        out = tmp_path / "out"
        assert run(command, "--forecasts", fc, "--observations", obs, "--out", out) == 3
        assert capsys.readouterr().err == "isocal: error: no valid forecast/observation pairs\n"
        assert not out.exists()

    @pytest.mark.parametrize("which", ["forecasts", "observations"])
    def test_header_without_line_break_is_parse_error(self, alpha2_files, tmp_path, capsys, which):
        files = {"forecasts": alpha2_files / "test_fc.csv", "observations": alpha2_files / "test_obs.csv"}
        files[which] = tmp_path / "header.csv"
        header = "time,row,col,mean,std" if which == "forecasts" else "time,row,col,value"
        files[which].write_bytes(header.encode())
        assert run("evaluate", "--forecasts", files["forecasts"],
                   "--observations", files["observations"]) == 2
        assert capsys.readouterr().err == "isocal: parse error: line 2: no data records\n"

    @pytest.mark.parametrize("command", ["calibrate", "evaluate", "reliability"])
    def test_ensemble_wider_than_the_double_range_is_one_line_error(self, tmp_path, capsys, command):
        """Members -1e308 and 1e308 are 2e308 apart: the PIT would divide
        by an infinite gap."""
        fc = tmp_path / "fc.csv"
        fc.write_text("time,row,col,sample_idx,value\n0,0,0,0,-1e308\n0,0,0,1,1e308\n"
                      "1,0,0,0,0.0\n1,0,0,1,1.0\n")
        obs = tmp_path / "obs.csv"
        obs.write_text("time,row,col,value\n0,0,0,9.9e307\n1,0,0,0.5\n")
        out = tmp_path / "out"
        assert run(command, "--forecasts", fc, "--observations", obs, "--out", out) == 3
        assert capsys.readouterr().err == ("isocal: error: invalid input value: ensemble members "
                                           "from -1e+308 to 1e+308 span more than the double range\n")
        assert not out.exists()

    def test_non_finite_metric_is_an_error_not_json_nan(self, tmp_path):
        fc = tmp_path / "fc.csv"
        fc.write_text("time,row,col,mean,std\n0,0,0,0.0,1e200\n1,0,0,0.0,1e200\n2,0,0,0.0,1e200\n")
        obs = tmp_path / "obs.csv"
        obs.write_text("time,row,col,value\n0,0,0,0.5\n1,0,0,1.0\n2,0,0,-1.0\n")
        assert run_captured("evaluate", "--forecasts", fc, "--observations", obs) == \
            (3, "isocal: error: sharpness overflows the double range\n")

    def test_mae_that_overflows_is_one_line_error(self, tmp_path):
        fc = tmp_path / "fc.csv"
        fc.write_text("time,row,col,mean,std\n0,0,0,-1.7e308,1.0\n1,0,0,0.0,1.0\n2,0,0,0.0,1.0\n")
        obs = tmp_path / "obs.csv"
        obs.write_text("time,row,col,value\n0,0,0,1.7e308\n1,0,0,0.5\n2,0,0,-0.5\n")
        assert run_captured("evaluate", "--forecasts", fc, "--observations", obs) == \
            (3, "isocal: error: MAE overflows the double range\n")


class TestModelFileValidation:
    """A bad model file is a one-line error with exit code 3."""

    @staticmethod
    def evaluate_with(alpha2_files, tmp_path, capsys, doc):
        model = tmp_path / "model.json"
        model.write_bytes(doc if isinstance(doc, bytes) else
                          (doc if isinstance(doc, str) else json.dumps(doc)).encode())
        capsys.readouterr()
        code = run("evaluate", "--forecasts", alpha2_files / "test_fc.csv",
                   "--observations", alpha2_files / "test_obs.csv", "--model", model)
        err = capsys.readouterr().err
        assert err.startswith("isocal: error: ") and err.count("\n") == 1
        return code, err

    @staticmethod
    def pooled(**changes):
        doc = {"version": 1, "scope": "pooled", "h": 0, "w": 0, "interpolation": "linear",
               "maps": [{"breakpoints": [0.0, 0.5, 1.0], "values": [0.0, 0.5, 1.0]}]}
        doc.update(changes)
        return doc

    def test_top_level_list(self, alpha2_files, tmp_path, capsys):
        code, err = self.evaluate_with(alpha2_files, tmp_path, capsys, "[1]")
        assert code == 3 and "expected a JSON object" in err

    def test_nesting_deeper_than_the_parser_goes(self, alpha2_files, tmp_path, capsys):
        code, err = self.evaluate_with(alpha2_files, tmp_path, capsys, "[" * 100_000 + "]" * 100_000)
        assert code == 3 and "malformed model file" in err

    def test_file_that_is_not_utf8(self, alpha2_files, tmp_path, capsys):
        doc = json.dumps(self.pooled()).encode().replace(b"pooled", b"pooled\xff")
        code, err = self.evaluate_with(alpha2_files, tmp_path, capsys, doc)
        assert code == 3 and err.startswith("isocal: error: malformed model file: 'utf-8' codec")

    def test_bad_knot_names_its_map(self, alpha2_files, tmp_path, capsys):
        maps = [{"breakpoints": [0.0, 0.5, 1.0], "values": [0.0, 0.5, 1.0]} for _ in range(8)]
        maps[5]["breakpoints"] = [0.0, 0.5, 0.5]
        doc = self.pooled(scope="per_cell", h=2, w=4, maps=maps)
        code, err = self.evaluate_with(alpha2_files, tmp_path, capsys, doc)
        assert (code, err) == (3, "isocal: error: model map 5: breakpoints must be strictly increasing\n")

    def test_map_without_breakpoints(self, alpha2_files, tmp_path, capsys):
        doc = self.pooled(maps=[{"values": [0.0, 1.0]}])
        code, err = self.evaluate_with(alpha2_files, tmp_path, capsys, doc)
        assert (code, err) == (3, "isocal: error: 'breakpoints' and 'values' must be nonempty lists "
                                  "of equal length\n")
        code, err = self.evaluate_with(alpha2_files, tmp_path, capsys, self.pooled(maps=[]))
        assert (code, err) == (3, "isocal: error: model field 'maps' must be a nonempty list\n")

    def test_pooled_model_with_grid_dims(self, alpha2_files, tmp_path, capsys):
        code, err = self.evaluate_with(alpha2_files, tmp_path, capsys, self.pooled(h=2, w=3))
        assert code == 3 and "pooled scope carries h = w = 0" in err

    def test_nan_knot(self, alpha2_files, tmp_path, capsys):
        text = json.dumps(self.pooled()).replace('"values": [0.0, 0.5', '"values": [0.0, NaN')
        code, err = self.evaluate_with(alpha2_files, tmp_path, capsys, text)
        assert code == 3 and "non-finite knot" in err

    @pytest.mark.parametrize("knots", [
        {"breakpoints": ["0", "1e0"], "values": [0.0, 1.0]},  # strings
        {"breakpoints": [0.0, 1.0], "values": [False, True]},  # booleans
        {"breakpoints": [0, 10 ** 400], "values": [0.0, 1.0]},  # beyond a double's range
    ], ids=["string", "bool", "huge-int"])
    def test_knot_that_is_not_a_json_number(self, alpha2_files, tmp_path, capsys, knots):
        code, err = self.evaluate_with(alpha2_files, tmp_path, capsys, self.pooled(maps=[knots]))
        assert (code, err) == (3, "isocal: error: every knot must be a JSON number\n")


class TestReliabilityCommand:
    def test_writes_curve(self, alpha2_files, tmp_path):
        out = tmp_path / "curve.csv"
        assert run("reliability", "--forecasts", alpha2_files / "test_fc.csv",
                   "--observations", alpha2_files / "test_obs.csv",
                   "--model", alpha2_files / "model.json", "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "level,empirical,weight"
        assert len(lines) == 20
        levels = [float(line.split(",")[0]) for line in lines[1:]]
        emp = [float(line.split(",")[1]) for line in lines[1:]]
        assert np.max(np.abs(np.array(emp) - np.array(levels))) <= 0.03

    def test_uncalibrated_curve_is_overdispersed(self, alpha2_files, tmp_path):
        out = tmp_path / "raw.csv"
        assert run("reliability", "--forecasts", alpha2_files / "test_fc.csv",
                   "--observations", alpha2_files / "test_obs.csv",
                   "--levels", "0.9", "--out", out) == 0
        emp = float(out.read_text().splitlines()[1].split(",")[1])
        assert emp == pytest.approx(oracles.DISPERSED_A2_P09, abs=0.01)

    def test_per_cell_files(self, tmp_path):
        fc, obs = synth_files(tmp_path, "pc", grid="2x2x60", alpha="2", seed="9")
        model = tmp_path / "m.json"
        assert run("calibrate", "--forecasts", fc, "--observations", obs,
                   "--scope", "per-cell", "--min-points-per-cell", "10", "--out", model) == 0
        out = tmp_path / "curve.csv"
        assert run("reliability", "--forecasts", fc, "--observations", obs,
                   "--model", model, "--cell", "0,0", "--cell", "1,1", "--out", out) == 0
        assert (tmp_path / "curve_cell0-0.csv").exists()
        assert (tmp_path / "curve_cell1-1.csv").exists()

    def test_cell_minus_zero_is_cell_zero(self, tmp_path):
        """A ``--cell`` value that starts with ``-`` is read as the flag's
        value: ``-0,0`` names cell (0, 0)."""
        fc, obs = synth_files(tmp_path, "mz", grid="2x2x40", alpha="2", seed="9")
        for tag, spec in (("plain", "0,0"), ("minus", "-0,0")):
            assert run("reliability", "--forecasts", fc, "--observations", obs,
                       "--cell", spec, "--out", tmp_path / f"{tag}.csv") == 0
        assert (tmp_path / "minus_cell0-0.csv").read_bytes() == (tmp_path / "plain_cell0-0.csv").read_bytes()

    def test_cell_inverts_only_its_own_map(self, tmp_path, monkeypatch):
        fc, obs = synth_files(tmp_path, "inv", grid="3x3x40", alpha="2", seed="9")
        model = tmp_path / "m.json"
        assert run("calibrate", "--forecasts", fc, "--observations", obs,
                   "--scope", "per-cell", "--min-points-per-cell", "10", "--out", model) == 0
        inverted = []

        def counting(table, rows, p):
            inverted.append(len(rows))
            return inverse_maps(table, rows, p)

        monkeypatch.setattr(isocal.recalibration, "inverse_maps", counting)
        assert run("reliability", "--forecasts", fc, "--observations", obs, "--model", model,
                   "--cell", "0,0", "--cell", "2,1", "--out", tmp_path / "c.csv") == 0
        assert inverted == [1, 1]

    def test_cell_output_may_not_clobber_input(self, tmp_path, capsys):
        fc, obs = tmp_path / "fc.csv", tmp_path / "curve_cell0-0.csv"
        assert run("synth", "--grid", "2x2x40", "--seed", "9",
                   "--out-forecasts", fc, "--out-observations", obs) == 0
        before = obs.read_bytes()
        capsys.readouterr()
        assert run("reliability", "--forecasts", fc, "--observations", obs, "--cell", "1,1",
                   "--cell", "0,0", "--out", tmp_path / "curve.csv") == 1
        assert capsys.readouterr().err == (f"isocal: usage error: output path {str(obs)!r} "
                                           "would overwrite an input file\n")
        assert obs.read_bytes() == before
        assert not (tmp_path / "curve_cell1-1.csv").exists()  # checked before any write
        assert run("reliability", "--forecasts", fc, "--observations", obs, "--cell", "1,1",
                   "--cell", "1,1", "--out", tmp_path / "curve.csv") == 1

    def test_cell_out_of_range(self, tmp_path):
        fc, obs = synth_files(tmp_path, "oo", grid="2x2x40", seed="9")
        out = tmp_path / "c.csv"
        assert run("reliability", "--forecasts", fc, "--observations", obs,
                   "--cell", "0,0", "--cell", "5,5", "--out", out) == 3
        assert list(tmp_path.glob("c_cell*.csv")) == []  # no file for the valid cell either

    def test_per_cell_equals_pooled_on_one_cell(self, tmp_path):
        fc, obs = synth_files(tmp_path, "one", grid="1x1x200", alpha="2", seed="21")
        outputs = []
        for scope in ("pooled", "per-cell"):
            model, report, curve = (tmp_path / f"{scope}.{ext}" for ext in ("json", "report", "csv"))
            assert run("calibrate", "--forecasts", fc, "--observations", obs,
                       "--scope", scope, "--out", model) == 0
            assert run("evaluate", "--forecasts", fc, "--observations", obs,
                       "--model", model, "--out", report) == 0
            assert run("reliability", "--forecasts", fc, "--observations", obs,
                       "--model", model, "--out", curve) == 0
            outputs.append((report.read_bytes(), curve.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_per_cell_model_without_cell_pools_cells(self, tmp_path):
        fc, obs = synth_files(tmp_path, "pool", grid="2x2x80", alpha="2", seed="13")
        model = tmp_path / "m.json"
        assert run("calibrate", "--forecasts", fc, "--observations", obs,
                   "--scope", "per-cell", "--min-points-per-cell", "10", "--out", model) == 0
        out = tmp_path / "pooled_curve.csv"
        levels = ("--levels", "0.25,0.5,0.75")
        assert run("reliability", "--forecasts", fc, "--observations", obs,
                   "--model", model, *levels, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        # The pooled curve counts the covered points of every cell's curve.
        cells = [arg for rc in ("0,0", "0,1", "1,0", "1,1") for arg in ("--cell", rc)]
        assert run("reliability", "--forecasts", fc, "--observations", obs,
                   "--model", model, *levels, *cells, "--out", out) == 0
        counts = sum(np.round(np.loadtxt(tmp_path / f"pooled_curve_cell{r}-{c}.csv", delimiter=",",
                                         skiprows=1, usecols=1) * 80)
                     for r in (0, 1) for c in (0, 1))
        assert lines[1:] == [f"{p:.9g},{k / 320:.9g},1" for p, k in zip((0.25, 0.5, 0.75), counts)]

    def test_pooled_per_cell_coverage_is_the_exact_count(self, tmp_path):
        """15 of 62 points covered is 15/62 exactly, through a per-cell
        identity model as without a model; weighting each cell's fraction
        by its size, 22 * (15/22) / 62, misses it by an ulp."""
        t = 40
        first = ["-5.0"] * 15 + ["5.0"] * 7 + ["NaN"] * 18
        fc, obs, model = tmp_path / "fc.csv", tmp_path / "obs.csv", tmp_path / "m.json"
        fc.write_text("time,row,col,mean,std\n" + "".join(
            f"{i},0,{c},0.0,1.0\n" for i in range(t) for c in (0, 1)))
        obs.write_text("time,row,col,value\n" + "".join(
            f"{i},0,0,{first[i]}\n{i},0,1,5.0\n" for i in range(t)))
        identity = {"breakpoints": [0.0, 1.0], "values": [0.0, 1.0]}
        model.write_text(json.dumps({"version": 1, "scope": "per_cell", "h": 1, "w": 2,
                                     "interpolation": "linear", "maps": [identity, identity]}))
        files = ("--forecasts", fc, "--observations", obs, "--levels", "0.5")
        assert run("evaluate", *files, "--model", model, "--out", tmp_path / "r.json") == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["calibrated"]["coverage"]["0.5"] == report["uncalibrated"]["coverage"]["0.5"] == 15 / 62
        assert run("reliability", *files, "--model", model, "--out", tmp_path / "cal.csv") == 0
        assert run("reliability", *files, "--out", tmp_path / "raw.csv") == 0
        assert (tmp_path / "cal.csv").read_text() == (tmp_path / "raw.csv").read_text() \
            == f"level,empirical,weight\n0.5,{15 / 62:.9g},1\n"

    def test_cell_without_observations_is_named(self, tmp_path, capsys):
        fc, obs = synth_files(tmp_path, "empty", grid="2x2x40", seed="9")
        lines = obs.read_text().splitlines()
        obs.write_text("\n".join(line.rsplit(",", 1)[0] + ",NaN" if line.split(",")[1:3] == ["1", "1"]
                                 else line for line in lines) + "\n")
        capsys.readouterr()
        assert run("reliability", "--forecasts", fc, "--observations", obs,
                   "--cell", "0,1", "--cell", "1,1", "--out", tmp_path / "c.csv") == 3
        assert capsys.readouterr().err == "isocal: error: cell (1, 1) has no valid observations\n"
        assert list(tmp_path.glob("c_cell*.csv")) == []


class TestMissingObservations:
    def test_grids_drop_missing_observations_before_any_scorer(self, tmp_path):
        """On an evaluation grid with about 15 % of its observations blank,
        `reliability` (pooled and per cell) and `evaluate` give what the
        library gives on `grid_points`' valid points; the flat grid with its
        NaN left in is refused by every scorer."""
        fc, full = synth_files(tmp_path, "full", grid="3x3x60", alpha="2", seed="5")
        model = tmp_path / "m.json"
        assert run("calibrate", "--forecasts", fc, "--observations", full, "--scope", "per-cell",
                   "--min-points-per-cell", "10", "--out", model) == 0
        lines = full.read_text().splitlines()
        blank = np.random.default_rng(0).uniform(size=len(lines) - 1) < 0.15
        obs = tmp_path / "holes.csv"
        obs.write_text("\n".join([lines[0]] + [line.rsplit(",", 1)[0] + ",NaN" if b else line
                                               for line, b in zip(lines[1:], blank)]) + "\n")
        forecasts, values, (rows, cols) = grid_points(read_forecasts(fc), read_observations(obs))
        assert values.size == 540 - np.count_nonzero(blank) and 60 < np.count_nonzero(blank) < 100
        cf, levels = load_model(model), [0.25, 0.5, 0.75]
        files = ("--forecasts", fc, "--observations", obs, "--model", model, "--levels", "0.25,0.5,0.75")

        assert run("reliability", *files, "--out", tmp_path / "c.csv", "--cell", "2,1") == 0
        assert run("reliability", *files, "--out", tmp_path / "c.csv") == 0
        here = (rows == 2) & (cols == 1)
        for name, points, cell in (("c.csv", slice(None), (rows, cols)), ("c_cell2-1.csv", here, (2, 1))):
            write_reliability_csv(reliability_curve(forecasts[points], values[points], levels, cf, cell),
                                  tmp_path / "lib.csv")
            assert (tmp_path / name).read_bytes() == (tmp_path / "lib.csv").read_bytes()

        assert run("evaluate", *files, "--out", tmp_path / "r.json") == 0
        report = json.loads((tmp_path / "r.json").read_text())
        for block, calibrator in (("uncalibrated", None), ("calibrated", cf)):
            curve = reliability_curve(forecasts, values, levels, calibrator, (rows, cols))
            assert report[block] == {
                "ce": calibration_error(curve, report["ce_variant"]),
                "mae": mae_mid_quantile(forecasts, values, calibrator, (rows, cols)),
                "sharpness": sharpness(forecasts, calibrator, (rows, cols)),
                "coverage": dict(zip(("0.25", "0.5", "0.75"), curve.empirical.tolist())),
            }

        all_forecasts, _, all_cells = grid_points(read_forecasts(fc), read_observations(full))
        flat = np.moveaxis(read_observations(obs).values, 0, -1).ravel()  # cell-major, as grid_points
        for scorer in (lambda: reliability_curve(all_forecasts, flat, levels, cf, all_cells),
                       lambda: mae_mid_quantile(all_forecasts, flat, cf, all_cells),
                       lambda: fit_calibrator(all_forecasts, flat),
                       lambda: coverage(np.zeros(flat.size), flat)):
            with pytest.raises(ValueError, match="^invalid input value: NaN observation$"):
                scorer()


class TestUsage:
    def test_unknown_subcommand(self):
        assert run("frobnicate") == 1

    def test_no_arguments(self):
        assert run() == 1

    def test_help_exits_zero(self):
        assert run("--help") == 0

    def test_choices_and_defaults_come_from_the_library(self):
        subcommands = next(a for a in _build_parser()._actions
                           if isinstance(a, argparse._SubParsersAction)).choices
        options = {(sub, action.dest): action for sub, parser in subcommands.items()
                   for action in parser._actions}
        minimum = options["calibrate", "min_points_per_cell"]
        assert minimum.default == DEFAULT_MIN_POINTS_PER_CELL
        assert minimum.default == signature(fit_calibrator).parameters["min_points_per_cell"].default
        variant = options["evaluate", "ce_variant"]
        assert tuple(variant.choices) == CE_VARIANTS
        assert variant.default == signature(calibration_error).parameters["variant"].default


@pytest.fixture(scope="module")
def refusal_inputs(tmp_path_factory):
    """A 3x3x40 Gaussian grid with a model fitted to it, a one-member
    ensemble file and four model files with a bad field."""
    base = tmp_path_factory.mktemp("refusals")
    fc, obs, model = base / "fc.csv", base / "obs.csv", base / "model.json"
    assert run("synth", "--grid", "3x3x40", "--alpha", "2", "--seed", "4",
               "--out-forecasts", fc, "--out-observations", obs) == 0
    assert run("calibrate", "--forecasts", fc, "--observations", obs, "--out", model) == 0
    (base / "one_member.csv").write_text("time,row,col,sample_idx,value\n0,0,0,0,1.0\n")
    doc = json.loads(model.read_text())
    (base / "h_float.json").write_text(json.dumps({**doc, "h": 1.5}))
    (base / "maps_dict.json").write_text(json.dumps({**doc, "maps": {}}))
    (base / "interpolation_step.json").write_text(json.dumps({**doc, "interpolation": "step"}))
    (base / "interpolation_1.json").write_text(json.dumps({**doc, "interpolation": 1}))
    return base


SYNTH = ("synth", "--out-forecasts", "{out}/f.csv", "--out-observations", "{out}/o.csv")
SCORE = ("--forecasts", "{in}/fc.csv", "--observations", "{in}/obs.csv")
EVALUATE = ("evaluate", *SCORE, "--out", "{out}/report.json")
RELIABILITY = ("reliability", *SCORE, "--out", "{out}/curve.csv")

# Every refusal: its argv, exit code and its one stderr line after "isocal: ".
# A line ending in " ..." is a prefix: the listing of choices after it is
# argparse's own and its spelling varies between Python versions.
REFUSALS = {
    "missing --observations": (("evaluate", "--forecasts", "{in}/fc.csv"), 1,
                               "usage error: the following arguments are required: --observations"),
    "unknown subcommand": (("frobnicate",), 1,
                           "usage error: argument subcommand: invalid choice: 'frobnicate' ..."),
    "synth --n and --grid": ((*SYNTH, "--n", "5", "--grid", "2x2x2"), 1,
                             "usage error: provide exactly one of --n and --grid"),
    "synth neither --n nor --grid": (SYNTH, 1, "usage error: provide exactly one of --n and --grid"),
    "alpha x": ((*SYNTH, "--n", "5", "--alpha", "x"), 1,
                "usage error: argument --alpha: invalid float value: 'x'"),
    "alpha 0": ((*SYNTH, "--n", "5", "--alpha", "0"), 1, "usage error: alpha must be finite and positive: 0.0"),
    "alpha nan": ((*SYNTH, "--n", "5", "--alpha", "nan"), 1, "usage error: alpha must be finite and positive: nan"),
    "alpha inf": ((*SYNTH, "--n", "5", "--alpha", "inf"), 1, "usage error: alpha must be finite and positive: inf"),
    "grid 0x2x3": ((*SYNTH, "--grid", "0x2x3"), 1, "usage error: grid dims must be positive: (0, 2, 3)"),
    "grid token -1x2x3": ((*SYNTH, "--grid", "-1x2x3"), 1, "usage error: grid dims must be positive: (-1, 2, 3)"),
    "bias token -inf": ((*SYNTH, "--n", "5", "--bias", "-inf"), 1, "usage error: bias must be finite"),
    "grid 2x3": ((*SYNTH, "--grid", "2x3"), 1,
                 "usage error: argument --grid: bad grid spec (want HxWxT): '2x3'"),
    "k 2**70": ((*SYNTH, "--n", "1", "--mode", "sample_set", "--k", str(2**70)), 1,
                f"usage error: too many draws: 1 x {2**70 + 3} = {2**70 + 3} exceeds 2**62"),
    "cell 1": ((*RELIABILITY, "--cell", "1"), 1,
               "usage error: argument --cell: bad cell spec (want ROW,COL): '1'"),
    "cell -1,0": ((*RELIABILITY, "--cell=-1,0"), 3, "error: cell out of range: (-1, 0) for 3x3 grid"),
    "cell token -1,0": ((*RELIABILITY, "--cell", "-1,0"), 3, "error: cell out of range: (-1, 0) for 3x3 grid"),
    "cell 9,9": ((*RELIABILITY, "--cell", "9,9"), 3, "error: cell out of range: (9, 9) for 3x3 grid"),
    "levels 1:2": ((*EVALUATE, "--levels", "1:2"), 1,
                   "usage error: argument --levels: bad levels spec: '1:2'"),
    "levels a": ((*EVALUATE, "--levels", "a"), 1, "usage error: argument --levels: bad levels spec: 'a'"),
    "levels 0:1:0": ((*EVALUATE, "--levels", "0:1:0"), 1,
                     "usage error: argument --levels: bad levels spec: '0:1:0'"),
    "levels 0.5:0.1:0.1": ((*EVALUATE, "--levels", "0.5:0.1:0.1"), 1, "usage error: argument --levels: "
                           "levels must be a nonempty 1-d sequence: '0.5:0.1:0.1'"),
    "levels 0.6,0.5": ((*EVALUATE, "--levels", "0.6,0.5"), 1,
                       "usage error: argument --levels: levels must be strictly increasing: '0.6,0.5'"),
    "levels token -0.5,0.5": ((*EVALUATE, "--levels", "-0.5,0.5"), 1, "usage error: argument --levels: "
                              "levels must lie strictly inside (0, 1): '-0.5,0.5'"),
    "abbreviated levels token -0.5,0.5": ((*EVALUATE, "--lev", "-0.5,0.5"), 1, "usage error: argument --levels: "
                                          "levels must lie strictly inside (0, 1): '-0.5,0.5'"),
    "human token -1": ((*EVALUATE, "--human", "-1"), 1,
                       "usage error: argument --human: ignored explicit argument '-1'"),
    "calibrate --interpolation step": (("calibrate", *SCORE, "--interpolation", "step", "--out", "{out}/m.json"),
                                       1, "usage error: unrecognized arguments: --interpolation step"),
    "one-member ensemble": (("calibrate", "--forecasts", "{in}/one_member.csv", "--observations",
                             "{in}/obs.csv", "--out", "{out}/m.json"), 2,
                            "parse error: ensemble files need at least 2 members per cell"),
    "model h 1.5": ((*EVALUATE, "--model", "{in}/h_float.json"), 3,
                    "error: model field 'h' must be an integer, got 1.5"),
    "model maps {}": ((*EVALUATE, "--model", "{in}/maps_dict.json"), 3,
                      "error: model field 'maps' must be a nonempty list"),
    "model interpolation step": ((*EVALUATE, "--model", "{in}/interpolation_step.json"), 3,
                                 "error: model field 'interpolation' must be 'linear', got 'step'"),
    "model interpolation 1": ((*EVALUATE, "--model", "{in}/interpolation_1.json"), 3,
                              "error: model field 'interpolation' must be 'linear', got 1"),
}


class TestEveryRefusalIsOneLine:
    @staticmethod
    def check(tmp_path, argv, code, line):
        """Run argv; it exits with code, prints the one line, warns of
        nothing and writes nothing."""
        out = tmp_path / "out"
        out.mkdir()
        got, err = run_captured(*argv)
        assert got == code
        if line.endswith(" ..."):
            assert err.startswith(f"isocal: {line[:-4]}") and err.count("\n") == 1
        else:
            assert err == f"isocal: {line}\n"
        assert "Traceback" not in err and list(out.iterdir()) == []

    @pytest.mark.parametrize("case", REFUSALS)
    def test_refusal(self, refusal_inputs, tmp_path, case):
        argv, code, line = REFUSALS[case]
        argv = [a.replace("{in}", str(refusal_inputs)).replace("{out}", str(tmp_path / "out"))
                for a in argv]
        self.check(tmp_path, argv, code, line)

    def test_memory_error_in_any_stage(self, refusal_inputs, tmp_path, monkeypatch):
        def refuse(path):
            raise MemoryError("Unable to allocate 7.11 PiB")

        monkeypatch.setattr(isocal.cli, "read_forecasts", refuse)
        self.check(tmp_path, ["calibrate", "--forecasts", refusal_inputs / "fc.csv",
                              "--observations", refusal_inputs / "obs.csv",
                              "--out", tmp_path / "out" / "m.json"],
                   3, "error: not enough memory: Unable to allocate 7.11 PiB")


class TestCliPathBuildsNoIsotonicMap:
    def test_per_cell_pipeline_runs_without_isotonic_maps(self, tmp_path, monkeypatch):
        """Fitting, saving, loading and scoring a per-cell model read the
        knot table only: with `IsotonicMap` unbuildable, all three stages
        still succeed."""
        fc, obs = synth_files(tmp_path, "t", grid="2x3x40", alpha="2", seed="5")

        def refuse(self):
            raise AssertionError("IsotonicMap built on the CLI path")

        monkeypatch.setattr(IsotonicMap, "__post_init__", refuse)
        model = tmp_path / "m.json"
        assert run("calibrate", "--forecasts", fc, "--observations", obs, "--scope", "per-cell",
                   "--min-points-per-cell", "20", "--out", model) == 0
        scoring = ["--forecasts", fc, "--observations", obs, "--model", model]
        assert run("evaluate", *scoring, "--out", tmp_path / "r.json") == 0
        assert run("reliability", *scoring, "--cell", "1,2", "--out", tmp_path / "c.csv") == 0
        with pytest.raises(AssertionError, match="built on the CLI path"):
            IsotonicMap([0.0, 1.0], [0.0, 1.0])


class TestPipelineDeterminism:
    def test_full_pipeline_reproduces_bytes(self, tmp_path):
        outputs = []
        for name in ("one", "two"):
            d = tmp_path / name
            d.mkdir()
            run("synth", "--n", "1500", "--alpha", "2", "--seed", "77",
                "--out-forecasts", d / "f.csv", "--out-observations", d / "o.csv")
            run("synth", "--n", "1500", "--alpha", "2", "--seed", "78",
                "--out-forecasts", d / "ft.csv", "--out-observations", d / "ot.csv")
            assert run("calibrate", "--forecasts", d / "f.csv", "--observations", d / "o.csv",
                       "--out", d / "m.json") == 0
            assert run("evaluate", "--forecasts", d / "ft.csv", "--observations", d / "ot.csv",
                       "--model", d / "m.json", "--out", d / "r.json") == 0
            assert run("reliability", "--forecasts", d / "ft.csv", "--observations", d / "ot.csv",
                       "--model", d / "m.json", "--out", d / "c.csv") == 0
            outputs.append({p.name: p.read_bytes()
                            for p in sorted(d.iterdir()) if p.is_file()})
        assert outputs[0] == outputs[1]


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Small valid inputs as text: forecasts of both kinds on one 2x2x8
    grid, its observations and a pooled model fitted to them. Undamaged,
    they pass calibrate and evaluate (exit 0)."""
    base = tmp_path_factory.mktemp("fuzz")
    fc, ens, obs, model = (base / name for name in ("gaussian.csv", "ensemble.csv", "obs.csv", "model.json"))
    synth = ["synth", "--grid", "2x2x8", "--alpha", "2", "--seed", "9"]
    assert run(*synth, "--out-forecasts", ens, "--out-observations", obs, "--mode", "sample_set", "--k", "10") == 0
    assert run(*synth, "--out-forecasts", fc, "--out-observations", obs) == 0
    assert run("calibrate", "--forecasts", fc, "--observations", obs, "--out", model) == 0
    for forecasts in (fc, ens):
        assert run("evaluate", "--forecasts", forecasts, "--observations", obs, "--model", model,
                   "--out", base / "report.json") == 0
    return {path.stem: path.read_text() for path in (fc, ens, obs, model)}


def run_captured(*argv):
    """Exit code and stderr of one in-process run; any warning is an error."""
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        code = run(*argv)
    return code, stderr.getvalue()


@pytest.mark.parametrize("target", ["gaussian", "ensemble", "obs", "model"])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_mutated_input_exits_with_a_documented_code(fuzz_inputs, target, data):
    """A damaged input file ends in exit 0, 2 or 3 with at most one line on
    stderr, through calibrate and evaluate (CSV) or evaluate (model)."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        fc = d / ("ensemble.csv" if target == "ensemble" else "gaussian.csv")
        obs, model = d / "obs.csv", d / "model.json"
        for path in (fc, obs, model):
            path.write_text(fuzz_inputs[path.stem])
        mutated_path = model if target == "model" else obs if target == "obs" else fc
        mutated_path.write_bytes(data.draw(mutated(fuzz_inputs[mutated_path.stem])))
        runs = []
        if target != "model":
            model = d / "fitted.json"
            runs.append(run_captured("calibrate", "--forecasts", fc, "--observations", obs, "--out", model))
        if not runs or runs[0][0] == 0:
            runs.append(run_captured("evaluate", "--forecasts", fc, "--observations", obs,
                                     "--model", model, "--out", d / "report.json"))
    for code, stderr in runs:
        assert code in (0, 2, 3)
        assert len(stderr.splitlines()) <= 1 and "Traceback" not in stderr
        assert (code == 0) == (stderr == "")
