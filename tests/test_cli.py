import contextlib
import io
import json
import math
import os
import platform
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwalk import Lattice, Law, WalkSpec, format_walk_spec, parse_walk_spec
import rwalk.cli as cli
import rwalk.recurrence as recurrence
import rwalk.spectral as spectral
import rwalk.tables as tables
import rwalk.tilting as tilting
from rwalk.cli import main
from rwalk.recurrence import worker_count

from conftest import FIXTURES, SINGULAR_3D

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "src" / "rwalk"
     / "report_schema.json").read_text())
README = Path(__file__).resolve().parent.parent / "README.md"


# --- minimal JSON-schema checker (type/properties/required/items/enum) ----

def _type_ok(value, tname):
    if tname == "object":
        return isinstance(value, dict)
    if tname == "array":
        return isinstance(value, list)
    if tname == "string":
        return isinstance(value, str)
    if tname == "boolean":
        return isinstance(value, bool)
    if tname == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if tname == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if tname == "null":
        return value is None
    raise AssertionError(f"unknown schema type {tname}")


def check_schema(value, schema, path="$"):
    t = schema.get("type")
    if t is not None:
        names = t if isinstance(t, list) else [t]
        assert any(_type_ok(value, n) for n in names), \
            f"{path}: {value!r} not of type {t}"
    if "enum" in schema:
        assert value in schema["enum"], f"{path}: {value!r} not in enum"
    if isinstance(value, float):
        assert math.isfinite(value), f"{path}: non-finite number"
    if isinstance(value, dict):
        for key in schema.get("required", []):
            assert key in value, f"{path}: missing required {key!r}"
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                check_schema(value[key], sub, f"{path}.{key}")
        if not schema.get("properties"):
            for key, v in value.items():
                if isinstance(v, float):
                    assert math.isfinite(v), f"{path}.{key}: non-finite"
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            check_schema(item, schema["items"], f"{path}[{i}]")


def fixture(name):
    return str(FIXTURES / name)


def test_analyze_bernoulli(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["analyze", fixture("bernoulli_025.spec"), "--json", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "theta*" in text and "rho" in text
    report = json.loads(out.read_text())
    check_schema(report, SCHEMA)
    assert report["spectral"]["theta"][0] == pytest.approx(0.5493061443, abs=1e-8)
    assert report["spectral"]["rho"] == pytest.approx(0.8660254038, abs=1e-9)
    assert report["spectral"]["R"] == pytest.approx(1.1547005384, abs=1e-9)
    assert report["exit_code"] == 0


def test_analyze_one_sided_exits_2(capsys):
    code = main(["analyze", fixture("one_sided.spec")])
    assert code == 2
    assert "half-space" in capsys.readouterr().err


def test_analyze_even_steps_exits_2(capsys):
    code = main(["analyze", fixture("even_steps.spec")])
    assert code == 2
    assert "index 2" in capsys.readouterr().err


def test_parse_error_exits_1(capsys):
    code = main(["analyze", fixture("bad_sum.spec")])
    assert code == 1
    assert "law block" in capsys.readouterr().err


def test_missing_file_exits_1(capsys, tmp_path):
    assert main(["analyze", str(tmp_path / "nope.spec")]) == 1


def test_usage_error_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


def test_tilt_bernoulli_roundtrip(capsys, tmp_path):
    out = tmp_path / "tilted.spec"
    code = main(["tilt", fixture("bernoulli_025.spec"), "-o", str(out)])
    assert code == 0
    tilted = parse_walk_spec(out.read_text())
    assert tilted.law.atoms[(1,)] == pytest.approx(0.5, abs=1e-10)
    assert tilted.law.atoms[(-1,)] == pytest.approx(0.5, abs=1e-10)
    # re-analyzing the emitted walk sits at the spectral minimum
    report = tmp_path / "re.json"
    assert main(["analyze", str(out), "--json", str(report)]) == 0
    again = json.loads(report.read_text())
    assert abs(again["spectral"]["theta"][0]) <= 1e-8
    assert again["spectral"]["R"] == pytest.approx(1.0, abs=1e-8)


def test_tilt_writes_its_report(capsys, tmp_path):
    out, rep = tmp_path / "tilted.spec", tmp_path / "tilt.json"
    assert main(["tilt", fixture("bernoulli_025.spec"), "-o", str(out),
                 "--json", str(rep)]) == 0
    report = json.loads(rep.read_text())
    check_schema(report, SCHEMA)
    assert report["exit_code"] == 0
    assert report["spec"]["path"] == fixture("bernoulli_025.spec")
    assert report["tool"]["workers"] == worker_count()
    assert report["spectral"]["R"] == pytest.approx(1.1547005384, abs=1e-9)
    assert "spectral" in report["timings"]
    # the spec and the report can share stdout: spec text first
    capsys.readouterr()
    assert main(["tilt", fixture("bernoulli_025.spec"), "-o", "-", "--json", "-"]) == 0
    text = capsys.readouterr().out
    spec_text = out.read_text()
    assert text.startswith(spec_text)
    again = json.loads(text[len(spec_text):])
    assert again.pop("timings").keys() == report.pop("timings").keys()
    assert again == report


def test_tilt_symmetric_unchanged(tmp_path):
    out = tmp_path / "tilted.spec"
    assert main(["tilt", fixture("symmetric.spec"), "-o", str(out)]) == 0
    spec = parse_walk_spec((FIXTURES / "symmetric.spec").read_text())
    tilted = parse_walk_spec(out.read_text())
    assert tilted.law.atoms == spec.law.atoms


def test_tilt_lazy_drift_oracle_atoms(tmp_path):
    out = tmp_path / "tilted.spec"
    assert main(["tilt", fixture("lazy_drift.spec"), "-o", str(out)]) == 0
    tilted = parse_walk_spec(out.read_text())
    R = 1.0 / (0.5 + 2.0 * math.sqrt(0.06))
    assert tilted.law.atoms[(0,)] == pytest.approx(R * 0.5, abs=1e-10)
    assert tilted.law.atoms[(1,)] == pytest.approx(
        R * math.sqrt(2.0 / 3.0) * 0.3, abs=1e-10)
    assert tilted.law.atoms[(1,)] == pytest.approx(tilted.law.atoms[(-1,)], abs=1e-12)


def test_verify_all_checks_pass(capsys, tmp_path):
    out = tmp_path / "verify.json"
    code = main(["verify", fixture("bernoulli_025.spec"), "--json", str(out)])
    text = capsys.readouterr().out
    assert code == 0
    assert text.count("PASS") == 6
    assert "FAIL" not in text
    report = json.loads(out.read_text())
    check_schema(report, SCHEMA)
    assert [c["name"] for c in report["checks"]] == \
        ["eq1", "eq17", "dual", "measure", "eq12", "corollary2"]
    assert all(c["passed"] for c in report["checks"])


def test_verify_subset_selection(capsys):
    code = main(["verify", fixture("bernoulli_025.spec"),
                 "--paper-checks", "eq17,dual"])
    text = capsys.readouterr().out
    assert code == 0
    assert text.count("PASS") == 2
    assert text.splitlines()[0].startswith("eq17")


def test_verify_unknown_check_name(capsys):
    assert main(["verify", fixture("bernoulli_025.spec"),
                 "--paper-checks", "eq99"]) == 1


def test_verify_empty_check_list_is_a_usage_error(capsys):
    assert main(["verify", fixture("bernoulli_025.spec"), "--paper-checks", ","]) == 1
    captured = capsys.readouterr()
    assert captured.err == "--paper-checks names no check\n"
    assert captured.out == ""


def test_verify_negative_window_radius_is_a_spec_error(capsys, tmp_path):
    spec = tmp_path / "walk.spec"
    spec.write_text((FIXTURES / "bernoulli_025.spec").read_text()
                    .replace("options", "options\n  window_radius -3"))
    assert main(["verify", str(spec)]) == 1
    captured = capsys.readouterr()
    line = spec.read_text().splitlines().index("  window_radius -3") + 1
    assert captured.err == (f"spec error: line {line}: options block: "
                            "window_radius must be >= 0\n")
    assert captured.out == ""


ROOT_USAGE = "usage: rwalk [-h] [--version] {analyze,tilt,verify,simulate} ...\n"
VERIFY_USAGE = ("usage: rwalk verify [-h] [--json PATH] [--paper-checks NAMES]\n"
                "                    [--max-residual MAX_RESIDUAL]\n"
                "                    spec\n")
SIMULATE_USAGE = (
    "usage: rwalk simulate [-h] [--json PATH] [--trajectories TRAJECTORIES]\n"
    "                      [--horizon HORIZON] [--seed SEED] [--target TARGET]\n"
    "                      [--series-horizon SERIES_HORIZON] [--csv PATH]\n"
    "                      spec\n")
THREADS_ERROR = "RWALK_THREADS must be a positive integer number of worker processes, got "
SIM10 = ["--trajectories", "10", "--horizon", "10"]

# (case, argv with {B}/{D}/{Z} for the bernoulli/drift2d/z6 fixtures,
# RWALK_THREADS, exit code, exact stderr); where two errors meet, the first
# named wins; a value that starts with '-' is a value, not an option
ARGV_ERRORS = [
    ("empty argv", [], None, 1,
     ROOT_USAGE + "rwalk: error: the following arguments are required: command\n"),
    ("unknown command", ["frobnicate"], None, 1,
     ROOT_USAGE + "rwalk: error: argument command: invalid choice: 'frobnicate' "
     "(choose from 'analyze', 'tilt', 'verify', 'simulate')\n"),
    ("missing spec", ["analyze"], None, 1,
     "usage: rwalk analyze [-h] [--json PATH] spec\n"
     "rwalk analyze: error: the following arguments are required: spec\n"),
    ("unknown flag", ["analyze", "{B}", "--bogus"], None, 1,
     ROOT_USAGE + "rwalk: error: unrecognized arguments: --bogus\n"),
    ("tilt without out", ["tilt", "{B}"], None, 1,
     "usage: rwalk tilt [-h] [--json PATH] -o OUT spec\n"
     "rwalk tilt: error: the following arguments are required: -o/--out\n"),
    ("unknown check", ["verify", "{B}", "--paper-checks", "eq99"], None, 1,
     "unknown check name(s): eq99\n"),
    ("unknown checks", ["verify", "{B}", "--paper-checks", "eq1,foo, bar"], None, 1,
     "unknown check name(s): foo, bar\n"),
    ("repeated unknown check", ["verify", "{B}", "--paper-checks", "foo,eq1,foo"], None, 1,
     "unknown check name(s): foo\n"),
    ("empty check list", ["verify", "{B}", "--paper-checks", ","], None, 1,
     "--paper-checks names no check\n"),
    ("max residual nan", ["verify", "{B}", "--max-residual", "nan"], None, 1,
     "--max-residual must be finite, got nan\n"),
    ("max residual inf", ["verify", "{B}", "--max-residual", "inf"], None, 1,
     "--max-residual must be finite, got inf\n"),
    ("max residual -inf", ["verify", "{B}", "--max-residual", "-inf"], None, 1,
     "--max-residual must be finite, got -inf\n"),
    ("max residual -1e-3", ["verify", "{B}", "--max-residual", "-1e-3"], None, 1,
     "--max-residual must be >= 0, got -0.001\n"),
    ("max residual text", ["verify", "{B}", "--max-residual", "small"], None, 1,
     VERIFY_USAGE + "rwalk verify: error: argument --max-residual: "
     "invalid float value: 'small'\n"),
    ("check list before residual",
     ["verify", "{B}", "--paper-checks", "x", "--max-residual", "nan"], None, 1,
     "unknown check name(s): x\n"),
    ("trajectories", ["simulate", "{B}", "--trajectories", "0"], None, 1,
     "--trajectories must be >= 1\n"),
    ("trajectories text", ["simulate", "{B}", "--trajectories", "many"], None, 1,
     SIMULATE_USAGE + "rwalk simulate: error: argument --trajectories: "
     "invalid int value: 'many'\n"),
    ("horizon", ["simulate", "{B}", "--horizon", "-3"], None, 1,
     "--horizon must be >= 1\n"),
    ("seed", ["simulate", "{B}", *SIM10, "--seed", "-1"], None, 1,
     "seed must be >= 0, got -1\n"),
    ("series horizon", ["simulate", "{B}", *SIM10, "--series-horizon", "0"], None, 1,
     "--series-horizon must be >= 1\n"),
    ("trajectories before seed",
     ["simulate", "{B}", "--trajectories", "0", "--seed", "-1"], None, 1,
     "--trajectories must be >= 1\n"),
    ("horizon before series horizon",
     ["simulate", "{B}", "--horizon", "0", "--series-horizon", "0"], None, 1,
     "--horizon must be >= 1\n"),
    ("target text", ["simulate", "{B}", *SIM10, "--target", "a"], None, 1,
     "spec error: bad element 'a' in target set\n"),
    ("target empty", ["simulate", "{B}", *SIM10, "--target", ";"], None, 1,
     "spec error: empty target set\n"),
    ("target outside group", ["simulate", "{Z}", *SIM10, "--target", "7"], None, 1,
     "spec error: target element '7': index 7 not in 0..5\n"),
    ("target coordinates on a finite group", ["simulate", "{Z}", *SIM10, "--target", "1,2"],
     None, 1, "spec error: target element '1,2': index (1, 2) not in 0..5\n"),
    ("target negative", ["simulate", "{D}", *SIM10, "--series-horizon", "20",
                         "--target", "-1,0"], None, 0, ""),
    ("missing file", ["analyze", "{missing}"], None, 1,
     "spec error: [Errno 2] No such file or directory: '{missing}'\n"),
    ("thread env text", ["analyze", "{B}"], "abc", 1, THREADS_ERROR + "'abc'\n"),
    ("thread env zero", ["simulate", "{B}", *SIM10], "0", 1, THREADS_ERROR + "'0'\n"),
    ("thread env before check list", ["verify", "{B}", "--paper-checks", "x"], "-2", 1,
     THREADS_ERROR + "'-2'\n"),
]


@pytest.mark.parametrize("argv, threads, code, err", [c[1:] for c in ARGV_ERRORS],
                         ids=[c[0] for c in ARGV_ERRORS])
def test_argv_error_surface(capsys, monkeypatch, tmp_path, argv, threads, code, err):
    monkeypatch.setenv("COLUMNS", "80")   # argparse wraps usage to the terminal
    if threads is None:
        monkeypatch.delenv("RWALK_THREADS", raising=False)
    else:
        monkeypatch.setenv("RWALK_THREADS", threads)
    paths = {"B": fixture("bernoulli_025.spec"), "D": fixture("drift2d.spec"),
             "Z": fixture("z6.spec"), "missing": str(tmp_path / "nope.spec")}

    def sub(text):
        for key, path in paths.items():
            text = text.replace("{%s}" % key, path)
        return text

    assert main([sub(a) for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.err == sub(err)
    assert (captured.out == "") == (code != 0)   # errors print nothing on stdout


def test_verify_negative_tolerance_is_a_usage_error(capsys):
    # a negative tolerance fails every residual check, however exact
    code = main(["verify", fixture("bernoulli_025.spec"), "--max-residual", "-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "--max-residual must be >= 0, got -1.0\n"
    assert captured.out == ""


def test_one_parser_and_one_worker_count_per_main(capsys, monkeypatch):
    import rwalk.cli
    import rwalk.recurrence
    calls = []

    def counting(requested=None):
        calls.append(requested)
        return worker_count(requested)

    monkeypatch.setattr(rwalk.cli, "worker_count", counting)
    # simulate passes main's count on: the Monte Carlo counts no workers itself
    monkeypatch.setattr(rwalk.recurrence, "worker_count", counting)
    for command in ("analyze", "verify", "simulate"):
        assert main([command, fixture("z6.spec"), "--json", "-"]) == 0
    assert calls.count(None) == 3
    assert rwalk.cli._build_parser.cache_info().misses == 1
    capsys.readouterr()


def test_verify_impossible_tolerance_exits_3(capsys):
    # eq1's closure and support-box residual read 0 on bernoulli_025; its
    # tilted drift, 2.1e-14, is what fails the zero tolerance
    code = main(["verify", fixture("bernoulli_025.spec"),
                 "--paper-checks", "eq1", "--max-residual", "0"])
    assert code == 3
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_verify_non_finite_tolerance_is_a_usage_error(capsys, value):
    # nan fails every comparison and inf passes every one
    code = main(["verify", fixture("bernoulli_025.spec"), "--max-residual", value])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"--max-residual must be finite, got {float(value)}\n"
    assert captured.out == ""


def test_verify_check_errors_are_reported_not_fatal(capsys, tmp_path):
    # a window too small to shrink makes eq1 error out; eq12 builds its own
    # window and must still run and pass, with exit 3 overall
    text = ((FIXTURES / "bernoulli_025.spec").read_text()
            .replace("seed 42", "seed 42\n  window_radius 0"))
    spec = tmp_path / "walk.spec"
    spec.write_text(text)
    code = main(["verify", str(spec), "--paper-checks", "eq1,eq12"])
    out = capsys.readouterr().out
    assert code == 3
    assert "eq1" in out and "ERROR" in out
    assert "eq12" in out and "PASS" in out


WIDE_3D = """group lattice 3
law
  1 0 0 0.15
  -1 0 0 0.15
  0 1 0 0.15
  0 -1 0 0.15
  0 0 1 0.15
  0 0 -1 0.15
  40 40 40 0.05
  -40 -40 -40 0.05
"""


# +-e_k and +-40 e_k: wide in every frame tables.step_frame tries, where the
# diagonal +-(40, 40, 40) of WIDE_3D fits an 801 x 21 x 21 box
WIDE_EVERY_FRAME_3D = """group lattice 3
law
  1 0 0 0.15
  -1 0 0 0.15
  0 1 0 0.15
  0 -1 0 0.15
  0 0 1 0.15
  0 0 -1 0.15
  40 0 0 0.02
  -40 0 0 0.02
  0 40 0 0.02
  0 -40 0 0.02
  0 0 40 0.01
  0 0 -40 0.01
"""


def test_verify_eq17_box_too_large_fails_fast(capsys, tmp_path):
    # the 10-step box would be 801^3 cells, 3.8 GiB per array
    spec = tmp_path / "wide.spec"
    spec.write_text(WIDE_EVERY_FRAME_3D)
    code = main(["verify", str(spec), "--paper-checks", "eq17"])
    captured = capsys.readouterr()
    assert code == 3
    assert "eq17" in captured.out and "ERROR" in captured.out
    assert str(801 ** 3) in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_verify_eq12_table_too_large_fails_fast(capsys, monkeypatch):
    # bernoulli's 50-step hitting table is 51 layers of 101 cells
    monkeypatch.setattr(tables, "DENSE_CELL_LIMIT", 51 * 101 - 1)
    code = main(["verify", fixture("bernoulli_025.spec"), "--paper-checks", "eq12"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ("eq12         ERROR (the 50-step hitting table has 5151 cells, "
                            "beyond the dense-array limit of 5150; --paper-checks "
                            "without eq12 leaves it out)\n")


def test_verify_eq12_refuses_a_wide_1d_law(capsys, tmp_path):
    # support radius 2000: the 50-step table is 51 layers of 200001 cells
    spec = tmp_path / "wide1d.spec"
    spec.write_text("group lattice 1\nlaw\n  -2000 0.4\n  1999 0.3\n  2000 0.3\n")
    code = main(["verify", str(spec), "--paper-checks", "eq12"])
    assert code == 3
    assert capsys.readouterr().out == (
        "eq12         ERROR (the 50-step hitting table has 10200051 cells, beyond the "
        "dense-array limit of 4194304; --paper-checks without eq12 leaves it out)\n")


def test_verify_check_windows_too_large_fail_fast(capsys, monkeypatch, tmp_path):
    # window_radius 32 makes a 65-cell check window; eq17's 10-step box is 21
    monkeypatch.setattr(tables, "DENSE_CELL_LIMIT", 64)
    checks = ["--paper-checks", "eq1,dual,measure,eq17"]
    spec = tmp_path / "wide.spec"
    spec.write_text(Path(fixture("bernoulli_025.spec")).read_text() + "  window_radius 32\n")
    code = main(["verify", str(spec), *checks])
    lines = capsys.readouterr().out.splitlines()
    assert code == 3
    refusal = ("ERROR (the check window of window_radius 32 has 65 cells, "
               "beyond the dense-array limit of 64)")
    assert lines[:3] == [f"{name:<12} {refusal}" for name in ("eq1", "dual", "measure")]
    assert lines[3].startswith("eq17") and lines[3].endswith(
        "PASS  (tilted^n = R^n * phi * original^n, n <= 10)")
    # without the option the default window is the support box, of radius 1
    assert main(["verify", fixture("bernoulli_025.spec"), *checks]) == 0
    assert "ERROR" not in capsys.readouterr().out


def test_verify_default_window_of_a_wide_3d_law_is_its_support_box(capsys, tmp_path):
    # support radius 11: the default window is the support box, 23^3 cells,
    # and eq1, dual and measure pass on its one interior point
    spec = tmp_path / "wide3d.spec"
    spec.write_text("group lattice 3\n\nlaw\n  1 0 0 0.2\n  -1 0 0 0.1\n"
                    "  0 1 0 0.15\n  0 -1 0 0.15\n  0 0 1 0.15\n  0 0 -1 0.15\n"
                    "  11 0 0 0.05\n  -11 0 0 0.05\n")
    code = main(["verify", str(spec), "--paper-checks", "eq1,dual,measure"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert [line.split()[0] for line in out.splitlines() if " PASS " in line] == [
        "eq1", "dual", "measure"]


def test_simulate_refuses_an_oversized_series_before_the_monte_carlo(capsys, tmp_path,
                                                                      monkeypatch):
    # the 120-step series needs the 60-step box: 7201 x 121 x 121 cells
    spec = tmp_path / "wide.spec"
    spec.write_text(WIDE_3D.replace("40 40 40", "60 0 0").replace("-40 -40 -40", "-60 0 0"))

    def no_monte_carlo(*args, **kwargs):
        raise AssertionError("the Monte Carlo ran before the series was refused")

    monkeypatch.setattr(cli, "simulate_harris", no_monte_carlo)
    code = main(["simulate", str(spec), "--trajectories", "100", "--horizon", "100"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: series horizon 120: the 60-step box has 105429841 "
                            "cells, beyond the dense-array limit of 4194304; set a smaller "
                            "--series-horizon\n")


def test_simulate_refuses_an_oversized_series_before_any_fork(capsys, tmp_path,
                                                              monkeypatch):
    spec = tmp_path / "wide.spec"
    spec.write_text(WIDE_3D.replace("40 40 40", "60 0 0").replace("-40 -40 -40", "-60 0 0"))
    forks, real = [], os.fork

    def counting_fork():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counting_fork)
    code = main(["simulate", str(spec), "--trajectories", "1024", "--horizon", "100"])
    assert code == 2 and "set a smaller --series-horizon" in capsys.readouterr().err
    assert forks == []
    # the same law with a series that fits does fork on two CPUs
    monkeypatch.setattr(recurrence, "_cpus", lambda: 2)
    code = main(["simulate", str(spec), "--trajectories", "1024", "--horizon", "100",
                 "--series-horizon", "20"])
    assert code == 0 and len(forks) == 1


def test_simulate_timings_hold_the_series_inside_the_monte_carlo(tmp_path):
    out = tmp_path / "report.json"
    assert main(["simulate", fixture("bernoulli_025.spec"), "--trajectories", "600",
                 "--horizon", "200", "--json", str(out)]) == 0
    timings = json.loads(out.read_text())["timings"]
    assert list(timings) == ["spectral", "series", "monte_carlo"]
    assert 0 < timings["series"] <= timings["monte_carlo"]


def test_verify_runs_each_named_check_once(capsys, tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", fixture("z6.spec"), "--paper-checks", "eq1,dual,eq1",
                 "--json", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["eq1", "dual"]
    report = json.loads(out.read_text())
    assert [c["name"] for c in report["checks"]] == ["eq1", "dual"]
    assert sorted(k for k in report["timings"] if k.startswith("check:")) == [
        "check:dual", "check:eq1"]


SKEWED = "group lattice 2\n\nlaw\n  1 0 0.3\n  -1 0 0.2\n  0 1 1e-100\n  0 -1 0.5\n"


@pytest.mark.parametrize("options, code, refusal", [
    ("", 0, None),
    ("\noptions\n  window_radius 7\n", 3, "exponent 804.90 on the check window of radius 7"),
    ("\noptions\n  window_radius 6\n", 0, None)], ids=["default", "7", "6"])
def test_verify_window_past_the_exp_guard_names_the_radius(capsys, tmp_path, options,
                                                         code, refusal):
    # at the skewed law's theta* = (-0.20, 114.78), |theta.x| <= 114.98 r on a
    # window of radius r: r = 6 is the widest inside the 700 guard, and the
    # default window of radius 16 is cut to it; a set radius past it is refused
    spec = tmp_path / "skewed.spec"
    spec.write_text(SKEWED + options)
    assert main(["verify", str(spec), "--paper-checks", "eq1,dual,measure"]) == code
    lines = capsys.readouterr().out.splitlines()
    if refusal is None:
        assert [line.split()[3] for line in lines] == ["PASS"] * 3
        return
    error = (f"ERROR ({refusal} is beyond the +/-700.0 guard; set window_radius 6 "
             "or less in the spec's options)")
    assert lines == [f"{name:<12} {error}" for name in ("eq1", "dual", "measure")]


def test_verify_window_below_the_support_radius_names_it(capsys, tmp_path):
    spec = tmp_path / "narrow.spec"
    spec.write_text(Path(fixture("bernoulli_025.spec")).read_text() + "  window_radius 0\n")
    assert main(["verify", str(spec), "--paper-checks", "eq1,dual,measure"]) == 3
    error = ("ERROR (window_radius 0 is below the support radius 1; "
             "set window_radius 1 or more in the spec's options)")
    assert capsys.readouterr().out.splitlines() == [
        f"{name:<12} {error}" for name in ("eq1", "dual", "measure")]


# theta*_k = 344.84 and R = 2.9e149: one step reaches exponent 1034.52
STEEP_3D = ("group lattice 3\n\nlaw\n  1 0 0 1e-300\n  0 1 0 1e-300\n  0 0 1 1e-300\n"
            "  -1 0 0 0.3333333333333333\n  0 -1 0 0.3333333333333333\n"
            "  0 0 -1 0.3333333333333333\n")


def test_verify_steep_3d_law_refuses_every_window_and_eq17(tmp_path):
    # no check window fits the guard, and eq17's R^n * phi overflows; run in
    # a fresh process so that any numpy RuntimeWarning would reach its stderr
    spec = tmp_path / "steep3d.spec"
    spec.write_text(STEEP_3D)
    proc = subprocess.run([sys.executable, "-m", "rwalk.cli", "verify", str(spec)],
                          env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr == ""   # in particular no RuntimeWarning
    lines = {line.split()[0]: line for line in proc.stdout.splitlines()}
    refusal = ("ERROR (one step reaches exponent 1034.52, beyond the +/-700.0 guard, "
               "so no check window fits)")   # not "box of shape (1, 1, 1) too small"
    for name in ("eq1", "dual", "measure"):
        assert lines[name] == f"{name:<12} {refusal}"
    assert lines["eq17"].startswith("eq17         ERROR (R^n * phi overflows at n = 1 ")
    assert " PASS " in lines["eq12"] and " PASS " in lines["corollary2"]


def lattice_spec(tmp_path, atoms):
    dim = len(next(iter(atoms)))
    spec = tmp_path / "walk.spec"
    spec.write_text(f"group lattice {dim}\n\nlaw\n" + "".join(
        f"  {' '.join(map(str, x))} {p!r}\n" for x, p in atoms.items()))
    return str(spec)


def test_singular_hessian_law_solves_in_every_command(capsys, tmp_path):
    # np.linalg.solve raises on this law's Hessian along the Newton path
    spec = lattice_spec(tmp_path, SINGULAR_3D)
    assert main(["analyze", spec, "--json", "-"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out[out.index("{"):])["spectral"]["gradient_norm"] <= 1e-12
    assert main(["tilt", spec, "-o", str(tmp_path / "tilted.spec")]) == 0
    capsys.readouterr()
    assert main(["verify", spec]) == 3   # named ERRORs, no traceback
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(cli.CHECK_NAMES)
    assert all(" ERROR (" in line or " PASS " in line for line in lines)


# theta*_x = 1.99, so the atom (-20, 0, 0) tilts to 1e-310 * e^-39.9 * R = 0.0
UNDERFLOW_3D = {(1, 0, 0): 0.01, (-1, 0, 0): 0.54, (0, 1, 0): 0.1125, (0, -1, 0): 0.1125,
                (0, 0, 1): 0.1125, (0, 0, -1): 0.1125, (-20, 0, 0): 1e-310}
UNDERFLOW_REFUSAL = ("atom (-20, 0, 0) of mass 1e-310: its tilted mass R * phi(x) * mass "
                     "underflows to 0.0")


def test_tilted_mass_underflow_is_refused_by_every_command(capsys, tmp_path):
    spec = lattice_spec(tmp_path, UNDERFLOW_3D)
    refusal = UNDERFLOW_REFUSAL
    assert main(["tilt", spec, "-o", str(tmp_path / "tilted.spec")]) == 2
    assert capsys.readouterr().err == f"error: {refusal}\n"
    assert main(["simulate", spec, "--trajectories", "64", "--horizon", "100",
                 "--series-horizon", "20"]) == 2
    assert capsys.readouterr().err == f"error: {refusal}\n"
    assert main(["verify", spec]) == 3
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
    for name in ("eq1", "eq17", "measure"):   # the checks that tilt
        assert lines[name] == f"{name:<12} ERROR ({refusal})"
    assert lines["dual"].endswith(")") and " PASS " in lines["dual"]


def test_simulate_refuses_a_tilt_underflow_before_any_fork(capsys, tmp_path, monkeypatch):
    forks, real = [], os.fork

    def counting_fork():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(recurrence, "_cpus", lambda: 2)
    monkeypatch.setenv("RWALK_THREADS", "2")
    assert main(["simulate", lattice_spec(tmp_path, UNDERFLOW_3D), "--trajectories", "64",
                 "--horizon", "100", "--series-horizon", "20"]) == 2
    assert capsys.readouterr().err == f"error: {UNDERFLOW_REFUSAL}\n"
    assert forks == []


def test_badly_scaled_3d_law_stops_at_the_iteration_cap(capsys, tmp_path):
    # its tilted masses underflowed at the wrong theta the old 10000-step cap
    # returned; the solve is now refused before anything is tilted
    spec = lattice_spec(tmp_path, {
        (1, 0, 0): 6.381228696305877e-49, (-1, 0, 0): 4.672961703421875e-218,
        (0, 1, 0): 1.0967879511747603e-166, (0, -1, 0): 0.23388157897430964,
        (0, 0, 5): 5.907671832648445e-206, (0, 0, -2): 2.9064991269813566e-213,
        (0, -3, -602): 0.7135209950701832, (887, -2, 2): 6.386710282312758e-152,
        (1, 0, 1): 0.052597425955507204})
    assert main(["tilt", spec, "-o", str(tmp_path / "tilted.spec")]) == 2
    assert "Newton's method did not converge in 1000 iterations: " in capsys.readouterr().err


def test_verify_all_checks_pass_on_the_skewed_law(capsys, tmp_path):
    spec = tmp_path / "skewed.spec"
    spec.write_text(SKEWED)
    assert main(["verify", str(spec)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [(line.split()[0], line.split()[3]) for line in lines] == [
        (name, "PASS") for name in cli.CHECK_NAMES]


def test_verify_eq17_below_the_guard_passes(capsys, tmp_path):
    # the skewed law's theta.x reaches -1148 on the 10-step box
    spec = tmp_path / "skewed.spec"
    spec.write_text("group lattice 2\n\nlaw\n  1 0 0.3\n  -1 0 0.2\n"
                    "  0 1 1e-100\n  0 -1 0.5\n")
    assert main(["verify", str(spec), "--paper-checks", "eq17"]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["drift2d.spec", "symmetric.spec"])
def test_verify_minimizes_twice(monkeypatch, capsys, name):
    # once for the walk, once for the reversed walk in `dual`; `dual` and
    # `corollary2` reuse the walk's own result
    import sys
    from rwalk import spectral
    original = spectral.find_exponential
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in [m for k, m in sys.modules.items() if k.startswith("rwalk")]:
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, counting)
    assert main(["verify", fixture(name)]) == 0
    capsys.readouterr()
    assert len(calls) == 2


def _solver_off_by(eps):
    """find_exponential with eps added to each coordinate of theta* and
    R = 1/Lambda(theta), so R * Lambda(theta) = 1 still holds exactly."""
    original = spectral.find_exponential

    def solve(law, theta0=None):
        exponential, sp = original(law, theta0)
        if not sp.theta:
            return exponential, sp
        theta = tuple(t + eps for t in sp.theta)
        rho = spectral._lambda_pass(law, np.asarray(theta, dtype=float))[0]
        return spectral.Exponential(theta), sp._replace(theta=theta, rho=rho, R=1.0 / rho)
    return solve


@pytest.mark.parametrize("modules, eps", [((cli, spectral), 1e-3), ((cli,), 1e-5)])
def test_verify_fails_a_wrong_theta(capsys, monkeypatch, modules, eps):
    # on Z^d, P exp(theta.x) = Lambda(theta) exp(theta.x) at every theta, so the
    # window residuals read the same at a wrong theta; the tilted drift (eq1,
    # measure) and theta*(dual v) = -theta* (dual) read theta* itself.  Patched
    # in spectral too, the dual walk is solved as wrongly as the walk.
    for module in modules:
        monkeypatch.setattr(module, "find_exponential", _solver_off_by(eps))
    code = main(["verify", fixture("drift2d.spec")])
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
    assert code == 3
    assert " FAIL " in lines["eq1"] and " FAIL " in lines["dual"]
    assert " FAIL " in lines["measure"]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_axis_separable_theta_is_closed_form_and_eq1_passes(data):
    # {0: p0, +e_k: a_k, -e_k: b_k}: Lambda separates, theta*_k = ln(b_k/a_k)/2
    dim = data.draw(st.integers(1, 3))
    weights = data.draw(st.lists(st.floats(1e-8, 1.0), min_size=2 * dim + 1,
                                 max_size=2 * dim + 1))
    total = math.fsum(weights)
    masses = [w / total for w in weights]
    units = [tuple(int(j == k) for j in range(dim)) for k in range(dim)]
    law = Law(Lattice(dim), {(0,) * dim: masses[0],
                             **{u: masses[1 + k] for k, u in enumerate(units)},
                             **{tuple(-c for c in u): masses[1 + dim + k]
                                for k, u in enumerate(units)}})
    _, sp = spectral.find_exponential(law)
    exact = [0.5 * math.log(masses[1 + dim + k] / masses[1 + k]) for k in range(dim)]
    scale = max([1.0, *map(abs, exact)])
    assert max(abs(a - b) for a, b in zip(sp.theta, exact)) <= 1e-9 * scale
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "separable.spec"
        path.write_text(format_walk_spec(WalkSpec(law.group, law)))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["verify", str(path), "--paper-checks", "eq1"])
    assert code == 0, out.getvalue()


def test_analyze_json_to_stdout(capsys):
    code = main(["analyze", fixture("bernoulli_025.spec"), "--json", "-"])
    assert code == 0
    out = capsys.readouterr().out
    report = json.loads(out[out.index("{"):])
    check_schema(report, SCHEMA)


def test_analyze_skewed_law_closed_form(capsys, tmp_path):
    # theta_y is 29.6, 114.8 and 229.9 at these py
    for py in (1e-26, 1e-100, 1e-200):
        spec = tmp_path / "skewed.spec"
        spec.write_text(f"group lattice 2\n\nlaw\n  1 0 0.3\n  -1 0 0.2\n"
                        f"  0 1 {py!r}\n  0 -1 {0.5 - py!r}\n")
        assert main(["analyze", str(spec), "--json", "-"]) == 0
        out = capsys.readouterr().out
        s = json.loads(out[out.index("{"):])["spectral"]
        theta = (0.5 * math.log(0.2 / 0.3), 0.5 * math.log((0.5 - py) / py))
        rho = 2 * math.sqrt(0.06) + 2 * math.sqrt(py * (0.5 - py))
        assert max(abs(a - b) for a, b in zip(s["theta"], theta)) <= 1e-9
        assert s["rho"] == pytest.approx(rho, rel=1e-12, abs=0)


def test_verify_symmetric_corollary(capsys):
    code = main(["verify", fixture("symmetric.spec"),
                 "--paper-checks", "corollary2"])
    text = capsys.readouterr().out
    assert code == 0
    assert "PASS" in text and "|R-1|" in text


@pytest.mark.parametrize("name", ["symmetric.spec", "z6.spec"])
def test_verify_computes_each_shared_quantity_once(capsys, monkeypatch, tmp_path, name):
    # eq17 and corollary2 share one tilted walk; dual and measure share one
    # psi residual and report it as the same number
    calls = {}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] = calls.get(fn.__name__, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for fn in (tilting.tilt, tilting.check_dual_invariance):
        for module in (cli, tilting):
            monkeypatch.setattr(module, fn.__name__, counted(fn))
    path = tmp_path / "report.json"
    assert main(["verify", fixture(name), "--json", str(path)]) == 0
    capsys.readouterr()
    assert calls == {"tilt": 1, "check_dual_invariance": 1}
    residual = {c["name"]: c["residual"] for c in json.loads(path.read_text())["checks"]}
    assert residual["dual"] == residual["measure"]


def test_verify_finite_group(capsys):
    assert main(["verify", fixture("z6.spec")]) == 0
    assert capsys.readouterr().out.count("PASS") == 6


def test_verify_3d_translation_invariance(capsys):
    code = main(["verify", fixture("sym3d.spec"), "--paper-checks", "eq12"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["bernoulli_025", "lazy_drift", "symmetric", "drift2d",
                                  "sym3d", "z6"])
def test_verify_eq12_residual_is_exactly_zero(name, capsys, tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", fixture(f"{name}.spec"), "--paper-checks", "eq12",
                 "--json", str(out)]) == 0
    [check] = json.loads(out.read_text())["checks"]
    assert check["name"] == "eq12" and check["residual"] == 0.0


def test_simulate_report_and_determinism(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["simulate", fixture("bernoulli_025.spec"), "--trajectories", "300",
            "--horizon", "300", "--seed", "9", "--series-horizon", "600"]
    assert main(args + ["--json", str(out1)]) == 0
    assert main(args + ["--json", str(out2)]) == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    check_schema(a, SCHEMA)
    assert a["recurrence"]["mc"]["return_fraction"] == \
        b["recurrence"]["mc"]["return_fraction"]
    assert a["recurrence"]["mc"]["seed"] == 9
    assert a["recurrence"]["verdict"] in \
        ("RRecurrentHeuristic", "TransientHeuristic", "Inconclusive")
    tool = a["tool"]
    assert tool["workers"] == worker_count() >= 1
    assert tool["numpy"] == np.__version__
    assert tool["python"] == platform.python_version()


def test_simulate_zero_trajectories_rejected(capsys):
    assert main(["simulate", fixture("bernoulli_025.spec"),
                 "--trajectories", "0"]) == 1


def test_simulate_csv_columns(tmp_path):
    csv = tmp_path / "series.csv"
    assert main(["simulate", fixture("bernoulli_025.spec"),
                 "--trajectories", "50", "--horizon", "50",
                 "--series-horizon", "200", "--csv", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "n,p_n,weighted_term,partial_sum"
    assert len(lines) == 202
    row = lines[3].split(",")  # n = 2
    assert int(row[0]) == 2
    assert float(row[1]) == pytest.approx(0.375, abs=1e-15)
    # partial sums never decrease
    sums = [float(l.split(",")[3]) for l in lines[1:]]
    assert all(b >= a for a, b in zip(sums, sums[1:]))


def test_simulate_csv_partial_sums_match_report_checkpoints(tmp_path):
    csv = tmp_path / "series.csv"
    out = tmp_path / "report.json"
    for name in ("bernoulli_025.spec", "z6.spec"):
        assert main(["simulate", fixture(name), "--trajectories", "50",
                     "--horizon", "50", "--series-horizon", "202",
                     "--csv", str(csv), "--json", str(out)]) == 0
        sums = [float(l.split(",")[3]) for l in csv.read_text().splitlines()[1:]]
        checkpoints = json.loads(out.read_text())["recurrence"]["partial_sums"]
        n = len(sums) - 1
        assert n == 202
        assert sums[n // 4] == checkpoints["quarter"]
        assert sums[n // 2] == checkpoints["half"]
        assert sums[n] == checkpoints["final"]


def test_simulate_thread_env_does_not_change_results(tmp_path, monkeypatch):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["simulate", fixture("bernoulli_025.spec"), "--trajectories", "600",
            "--horizon", "100", "--seed", "4", "--series-horizon", "600"]
    monkeypatch.setenv("RWALK_THREADS", "1")
    assert main(args + ["--json", str(out1)]) == 0
    monkeypatch.setenv("RWALK_THREADS", "4")
    assert main(args + ["--json", str(out2)]) == 0
    a = json.loads(out1.read_text())["recurrence"]["mc"]
    b = json.loads(out2.read_text())["recurrence"]["mc"]
    assert a["return_fraction"] == b["return_fraction"]
    assert a.get("mean_displacement") == b.get("mean_displacement")


def test_bad_thread_env_is_a_usage_error(capsys, monkeypatch):
    commands = (["simulate", fixture("bernoulli_025.spec"), "--trajectories", "10",
                 "--horizon", "10"], ["analyze", fixture("bernoulli_025.spec")])
    for env, command in product(["abc", "0", "-5"], commands):
        monkeypatch.setenv("RWALK_THREADS", env)
        assert main(command) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "RWALK_THREADS" in err and "integer" in err and repr(env) in err
        assert "Traceback" not in err


@pytest.mark.parametrize("value", ["-1", "0"])
def test_simulate_bad_series_horizon_is_a_usage_error(capsys, value):
    assert main(["simulate", fixture("bernoulli_025.spec"), "--trajectories", "10",
                 "--horizon", "10", "--series-horizon", value]) == 1
    captured = capsys.readouterr()
    assert captured.err == "--series-horizon must be >= 1\n"
    assert captured.out == ""


@pytest.mark.parametrize("where", ["flag", "spec"])
def test_simulate_negative_seed_is_a_usage_error(capsys, tmp_path, where):
    spec = tmp_path / "walk.spec"
    text = (FIXTURES / "bernoulli_025.spec").read_text()
    args = ["--trajectories", "10", "--horizon", "10"]
    if where == "flag":
        args += ["--seed", "-5"]
    else:
        text = text.replace("seed 42", "seed -5")
    spec.write_text(text)
    assert main(["simulate", str(spec), *args]) == 1
    captured = capsys.readouterr()
    assert captured.err == "seed must be >= 0, got -5\n"
    assert captured.out == ""


def test_simulate_target_flag(capsys):
    code = main(["simulate", fixture("z6.spec"), "--trajectories", "100",
                 "--horizon", "60", "--seed", "2", "--target", "0;3"])
    assert code == 0
    assert "return_fraction" in capsys.readouterr().out


def test_simulate_threshold_options_flow_through(tmp_path):
    # the 3-D walk reads TransientHeuristic under default thresholds
    # (growth ~1.04); absurdly low thresholds must flip the verdict and be
    # echoed in the report
    text = (FIXTURES / "sym3d.spec").read_text() + \
        "\noptions\ngrowth_recurrent 1.0001\ngrowth_transient 1.00001\n"
    spec = tmp_path / "walk.spec"
    spec.write_text(text)
    out = tmp_path / "report.json"
    assert main(["simulate", str(spec), "--trajectories", "50", "--horizon",
                 "50", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    rec = report["recurrence"]
    assert rec["thresholds"] == {"recurrent": 1.0001, "transient": 1.00001}
    assert rec["verdict"] == "RRecurrentHeuristic"


@pytest.mark.parametrize("key, value", [("growth_recurrent", "nan"),
                                        ("growth_transient", "inf"),
                                        ("growth_recurrent", "-inf")])
def test_simulate_non_finite_threshold_is_a_spec_error(capsys, tmp_path, key, value):
    # a nan threshold would make a verdict unreachable and the report invalid JSON
    text = (FIXTURES / "symmetric.spec").read_text() + f"\noptions\n{key} {value}\n"
    spec = tmp_path / "walk.spec"
    spec.write_text(text)
    assert main(["simulate", str(spec), "--trajectories", "5", "--horizon", "5"]) == 1
    captured = capsys.readouterr()
    line = len(text.splitlines())
    assert captured.err == (f"spec error: line {line}: options block: {key} "
                            f"must be finite, got {value!r}\n")
    assert captured.out == ""


@pytest.mark.parametrize("options, values", [
    ("growth_recurrent 0.5\ngrowth_transient 3.0\n", "0.5 <= 3.0"),
    ("growth_recurrent 1.05\n", "1.05 <= 1.05"),
    ("growth_transient 2\n", "1.5 <= 2.0")], ids=["both", "recurrent", "transient"])
def test_simulate_unreachable_thresholds_are_a_usage_error(capsys, tmp_path,
                                                          options, values):
    # each threshold is the spec's, else the default; recurrent <= transient
    # would read RRecurrentHeuristic on the transient 3-D walk
    spec = tmp_path / "walk.spec"
    spec.write_text((FIXTURES / "sym3d.spec").read_text() + "\noptions\n" + options)
    assert main(["simulate", str(spec), "--trajectories", "5", "--horizon", "5",
                 "--series-horizon", "60"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"growth_recurrent must be > growth_transient, got {values}\n"
    assert captured.out == ""


# R^n p(n) = p~(n): R-recurrent exactly when the zero-drift tilted walk is
# recurrent, on every finite group and on Z^d for d <= 2 (Chung-Fuchs)
THEOREM_VERDICTS = {"bad_sum.spec": None, "bernoulli_025.spec": "RRecurrent",
                    "drift2d.spec": "RRecurrent", "even_steps.spec": None,
                    "lazy_drift.spec": "RRecurrent", "one_sided.spec": None,
                    "offaxis3d.spec": "RTransient", "sym3d.spec": "RTransient",
                    "symmetric.spec": "RRecurrent",
                    "z6.spec": "RRecurrent"}


def test_theorem_verdict_covers_every_fixture():
    assert sorted(THEOREM_VERDICTS) == sorted(p.name for p in FIXTURES.glob("*.spec"))


@pytest.mark.parametrize("name", sorted(THEOREM_VERDICTS))
def test_simulate_reports_the_theorem_verdict(capsys, tmp_path, name):
    out = tmp_path / "report.json"
    code = main(["simulate", fixture(name), "--trajectories", "20", "--horizon", "20",
                 "--series-horizon", "40", "--json", str(out)])
    expected = THEOREM_VERDICTS[name]
    if expected is None:   # rejected before any report: no walk to judge
        assert code in (1, 2) and not out.exists()
        return
    assert code == 0
    report = json.loads(out.read_text())
    check_schema(report, SCHEMA)
    assert report["recurrence"]["verdict_theorem"] == expected


@pytest.mark.parametrize("name", [name for name, verdict in sorted(THEOREM_VERDICTS.items())
                                  if verdict is not None])
def test_simulate_runs_every_fixture_walk_at_its_default_series_horizon(capsys, name):
    # offaxis3d's 60-step box would be 7027801 cells in x coordinates, 121^3 in its frame
    code = main(["simulate", fixture(name), "--trajectories", "20", "--horizon", "20"])
    assert code == 0, capsys.readouterr().err


def test_simulate_decides_on_the_tilted_series(tmp_path):
    # p(n) of {1: .9, -1: .1} drops below the underflow floor at n = 1444,
    # so R^n p(n) stops growing; the tilted walk is the simple symmetric
    # walk, whose series keeps growing like sqrt(n)
    spec = tmp_path / "walk.spec"
    spec.write_text("group lattice 1\n\nlaw\n  1 0.9\n  -1 0.1\n")
    out = tmp_path / "report.json"
    assert main(["simulate", str(spec), "--trajectories", "20", "--horizon", "20",
                 "--series-horizon", "4000", "--json", str(out)]) == 0
    rec = json.loads(out.read_text())["recurrence"]
    assert rec["verdict"] == "RRecurrentHeuristic"
    assert rec["growth_ratio"] >= 1.9
    assert rec["partial_sums"]["half"] < rec["partial_sums"]["final"]


def test_simulate_unsettled_series_reports_no_rho(tmp_path):
    # Z13 with {5: .1, 8: .9} mixes slowly: at series horizon 60 the ratio
    # estimate would read 10.6; at the default 2000 it is 1 + 2.8e-10
    rows = "".join("  " + " ".join(str((i + j) % 13) for j in range(13)) + "\n"
                   for i in range(13))
    spec = tmp_path / "walk.spec"
    spec.write_text(f"group finite 13\ncayley\n{rows}\nlaw\n  5 0.1\n  8 0.9\n")
    out = tmp_path / "report.json"
    args = ["simulate", str(spec), "--trajectories", "20", "--horizon", "20",
            "--json", str(out)]
    assert main(args + ["--series-horizon", "60"]) == 0
    report = json.loads(out.read_text())
    check_schema(report, SCHEMA)
    rec = report["recurrence"]
    assert rec["rho_series"] is None and rec["rho_method"] is None
    assert any(w.startswith("rho estimate unavailable") for w in rec["warnings"])
    assert main(args) == 0
    rec = json.loads(out.read_text())["recurrence"]
    assert rec["rho_series"] == pytest.approx(1.0, abs=1e-9) and rec["warnings"] == []


def _readme_sessions():
    """(command, shown output lines) for each `$ rwalk ...` line in the code
    blocks of the README's "Command line" section, up to its next heading."""
    section = re.split(r"\n#{2,3} ", README.read_text().split("\n## Command line\n")[1])[0]
    sessions = []
    for block in section.split("```")[1::2]:
        for line in block.splitlines():
            if line.startswith("$ rwalk "):
                sessions.append((line[2:], []))
            elif line.strip() and sessions:
                sessions[-1][1].append(line)
    return sessions


def test_readme_command_line_examples_match_the_cli(capsys, monkeypatch, tmp_path):
    sessions = _readme_sessions()
    assert len(sessions) >= 3
    shutil.copytree(FIXTURES, tmp_path / "tests" / "fixtures")
    monkeypatch.chdir(tmp_path)
    for command, shown in sessions:
        assert main(shlex.split(command)[1:]) == 0, command
        out = capsys.readouterr().out.splitlines()
        for line in shown:
            if line == "...":
                continue
            prefix = line.removesuffix("(...)")
            assert any(o.startswith(prefix) for o in out), (command, line)
