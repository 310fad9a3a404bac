"""CLI contract: subcommands, exit codes, artifacts, and round-trips.

Oracle key: [TRIVIAL] exit codes, usage errors, and file emission;
[DERIVED] extend/peel byte-identities against the shipped fixtures and the
per-step extend chain that rebuilds a peeled lattice from its tower file.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nilflat
from nilflat import __version__, catalog, cli, fileio
from nilflat.cli import main
from nilflat.errors import (BoundViolated, BudgetNotMet, DimensionMismatch,
                            NotClosed, SchemaError)
from nilflat.tower import NilLattice, peel_tower
from conftest import NOT_NILPOTENT, free_two_step

DATA = Path(__file__).resolve().parent.parent / "data"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# [TRIVIAL] version banner and usage failures (argparse exits through
# SystemExit; usage problems are exit 1, never 2).
def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.strip() == f"nilflat {__version__}"


@pytest.mark.parametrize("argv", [[], ["validate"], ["frobnicate", "x"],
                                  ["validate", "--nope", "x"],
                                  ["certify", str(DATA / "z3.json")]],
                         ids=["empty", "no-path", "bad-command", "bad-flag",
                              "missing-eps"])
def test_usage_exits_one(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 1
    assert "error" in capsys.readouterr().err


# [TRIVIAL] validate: clean lattices pass the whole gate.
def test_validate_h3(capsys):
    code, out, err = run_cli(["validate", str(DATA / "h3.json")], capsys)
    assert code == 0 and err == ""
    for line in ["jacobi: ok", "class: ok", "adapted: ok",
                 "integer_constants: ok", "lattice_closed: ok"]:
        assert line in out
    assert "valid: " in out and "dim 3" in out


# [DERIVED] n4 passes the gate; the closure decision fails at class 3 (the
# exp(e_i) generate exp(½e4)) and is reported without gating: exit 0.
def test_validate_n4_informational(capsys):
    code, out, err = run_cli(["validate", str(DATA / "n4.json")], capsys)
    assert code == 0 and err == ""
    assert ("lattice_closed: fails (e2·e1 has non-integral exponent 1/2 at "
            "position 4) — the exp(e_i) generate more than the integer "
            "points\n") in out
    assert "valid: " in out


# [DERIVED] the closure line is printed at every class. filiform(8) has
# class 7; its second-kind exponents 1–4 are those of its quotient
# n4 = filiform(8)/span(e5, ..., e8), so e2·e1 fails at position 4 with 1/2.
def test_validate_filiform8_prints_closure(tmp_path, capsys):
    path = tmp_path / "filiform8.json"
    path.write_text(fileio.dump_algebra(catalog.filiform(8)), encoding="utf-8")
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 0 and err == ""
    assert ("lattice_closed: fails (e2·e1 has non-integral "
            "exponent 1/2 at position 4)") in out
    assert "skipped" not in out
    assert out.endswith(f"valid: {path} (dim 8, class 7)\n")


# [PAPER] negative controls: Jacobi violation, non-nilpotency, and
# fractional structure constants are invalid mathematics (exit 2).
@pytest.mark.parametrize("name,fail_line", [
    ("jacobi_bad.json", "jacobi: FAIL"),
    ("so3.json", "class: FAIL"),
    ("h3_scaled.json", "integer_constants: FAIL"),
])
def test_validate_rejects(name, fail_line, capsys):
    code, out, err = run_cli(["validate", str(DATA / name)], capsys)
    assert code == 2
    assert fail_line in out
    assert f"invalid: {DATA / name}" in err


# [DERIVED] a table that passes Jacobi but is not nilpotent fails the class
# line with the message of the lower central series, exit 2.
@pytest.mark.parametrize("algebra,dim", [case[1:] for case in NOT_NILPOTENT],
                         ids=[case[0] for case in NOT_NILPOTENT])
def test_validate_not_nilpotent_message(algebra, dim, tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(fileio.dump_algebra(algebra), encoding="utf-8")
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert out == ("jacobi: ok\nclass: FAIL — lower central series "
                   f"stabilizes at dimension {dim}\n")
    assert err == f"invalid: {path}\n"


def test_validate_jacobi_witness_names_triple(capsys):
    code, out, _ = run_cli(["validate", str(DATA / "jacobi_bad.json")], capsys)
    assert code == 2
    assert "Jacobi fails on (e" in out


# [TRIVIAL] I/O problems are exit 1 with a one-line diagnostic.
def test_validate_missing_file(tmp_path, capsys):
    code, _, err = run_cli(["validate", str(tmp_path / "nope.json")], capsys)
    assert code == 1 and err.startswith("nilflat: error:")


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{\"dim\": 3,", encoding="utf-8")
    code, _, err = run_cli(["validate", str(path)], capsys)
    assert code == 1 and "invalid JSON" in err


# [TRIVIAL] input the JSON decoder cannot read at all (bytes that are not
# UTF-8, nesting past the recursion limit, an integer past the digit limit)
# is exit 1 with one diagnostic line, not a traceback.
@pytest.mark.parametrize("content", [
    b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000,
    b'{"dim": 1' + b"0" * 5000],
    ids=["not-utf8", "too-deep", "too-many-digits"])
def test_validate_undecodable_json(content, tmp_path, child_env):
    path = tmp_path / "undecodable.json"
    path.write_bytes(content)
    proc = subprocess.run([sys.executable, "-m", "nilflat", "validate", str(path)],
                          env=child_env(), capture_output=True, text=True)
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"nilflat: error: {path}: invalid JSON: ")
    assert "Traceback" not in proc.stderr


# [TRIVIAL] one handler maps every error a command raises to its exit code
# and prints it on one line.
@pytest.mark.parametrize("error, code", [
    (cli._UsageError("usage"), 1), (SchemaError("schema"), 1),
    (OSError("io"), 1), (DimensionMismatch("dims"), 2),
    (NotClosed("closed", witness=(1, 2, 3), defect=1), 2),
    (BoundViolated("bound", t=1.0, value=2.0, bound=1.0), 3),
    (BudgetNotMet("budget"), 3)],
    ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None)
def test_main_maps_errors_to_exit_codes(error, code, monkeypatch, capsys):
    def fail(path):
        raise error

    monkeypatch.setattr(fileio, "load_algebra", fail)
    assert run_cli(["validate", str(DATA / "h3.json")], capsys) == (
        code, "", f"nilflat: error: {error}\n")


# [DERIVED] peel writes the canonical tower file (checked against the
# library) and prints a human note when --out is used.
def test_peel_h3(tmp_path, capsys):
    out = tmp_path / "tower.json"
    code, stdout, err = run_cli(
        ["peel", str(DATA / "h3.json"), "--out", str(out)], capsys)
    assert code == 0 and err == "" and "peeled" in stdout
    expected = fileio.dump_tower(
        peel_tower(NilLattice(algebra=catalog.heisenberg3())))
    assert out.read_text(encoding="utf-8") == expected
    steps = json.loads(expected)["steps"]
    assert [s["base_dim"] for s in steps] == [2, 1, 0]
    assert steps[0]["cocycle"] == [{"i": 1, "j": 2, "num": 1, "den": 1}]


def test_peel_stdout(capsys):
    code, stdout, _ = run_cli(["peel", str(DATA / "z3.json")], capsys)
    assert code == 0
    assert stdout == fileio.dump_tower(
        peel_tower(NilLattice(algebra=catalog.abelian(3))))


# [DERIVED] extend is inverse to peel on the shipped fixtures: the Euler
# cocycles 0/1 over Z^2 rebuild exactly Z^3 / h3, byte for byte.
@pytest.mark.parametrize("cocycle,expected", [
    ("euler_zero_z2.json", "z3.json"),
    ("euler_one_z2.json", "h3.json"),
])
def test_extend_euler_classes(cocycle, expected, tmp_path, capsys):
    out = tmp_path / "ext.json"
    code, stdout, _ = run_cli(
        ["extend", str(DATA / "z2.json"), str(DATA / cocycle),
         "--out", str(out)], capsys)
    assert code == 0 and "extended" in stdout
    assert out.read_text(encoding="utf-8") == \
        (DATA / expected).read_text(encoding="utf-8")


def test_extend_euler_two(capsys):
    code, stdout, _ = run_cli(
        ["extend", str(DATA / "z2.json"), str(DATA / "euler_two_z2.json")],
        capsys)
    assert code == 0
    obj = json.loads(stdout)
    assert obj["dim"] == 3
    assert obj["brackets"] == [
        {"i": 1, "j": 2, "terms": [{"k": 3, "num": 2, "den": 1}]}]


# [PAPER] a non-closed 2-form is rejected with the lexicographically first
# violated orientation named in the witness.
def test_extend_bad_cocycle(capsys):
    code, _, err = run_cli(
        ["extend", str(DATA / "n4.json"), str(DATA / "bad_cocycle_n4.json")],
        capsys)
    assert code == 2
    assert "cocycle condition fails on (e1,e3,e2)" in err


def test_extend_dim_mismatch(capsys):
    code, _, err = run_cli(
        ["extend", str(DATA / "z3.json"), str(DATA / "euler_one_z2.json")],
        capsys)
    assert code == 2 and "does not match" in err


# [TRIVIAL] a metric file whose entries parse as NaN or overflow to inf is
# invalid mathematics, reported as such before symmetry or sampling.
@pytest.mark.parametrize("entry", ["NaN", "1e400"])
@pytest.mark.parametrize("command", [["curvature", "--samples", "16", "--t-points", "1"],
                                     ["certify", "--eps", "0.01"]],
                         ids=["curvature", "certify"])
def test_nonfinite_metric_exit_two(command, entry, tmp_path, capsys):
    path = tmp_path / "metric.json"
    path.write_text('{"dim": 3, "entries": [%s, 0, 0, 0, 1, 0, 0, 0, 1]}' % entry,
                    encoding="utf-8")
    code, _, err = run_cli([command[0], str(DATA / "h3.json"), "--metric", str(path)]
                           + command[1:], capsys)
    assert code == 2 and "non-finite" in err


# [TRIVIAL] an integer entry too large for float64 goes the way of 1e400:
# G[1,1] = inf, one error line and exit code 2, not a traceback.
@pytest.mark.parametrize("command", [["curvature", "--samples", "16", "--t-points", "1"],
                                     ["certify", "--eps", "0.01"]],
                         ids=["curvature", "certify"])
def test_huge_integer_metric_exit_two(command, tmp_path, capsys):
    path = tmp_path / "metric.json"
    path.write_text('{"dim": 3, "entries": [1%s, 0, 0, 0, 1, 0, 0, 0, 1]}' % ("0" * 400),
                    encoding="utf-8")
    code, _, err = run_cli([command[0], str(DATA / "h3.json"), "--metric", str(path)]
                           + command[1:], capsys)
    assert code == 2
    assert err.startswith("nilflat: error: ") and err.count("\n") == 1
    assert "metric matrix has non-finite entries: G[1,1] = inf" in err


# [TRIVIAL] regression: a lattice that `validate` accepts but whose structure
# constant [e1, e2] = 10^400·e3 is past float64 is invalid mathematics for
# the numerical commands: one error line naming the bracket and exit code 2,
# not an OverflowError traceback.
@pytest.mark.parametrize("command", [["curvature", "--samples", "16", "--t-points", "1"],
                                     ["certify", "--eps", "0.01"]],
                         ids=["curvature", "certify"])
def test_huge_structure_constant_exit_two(command, tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"brackets": [{"i": 1, "j": 2, "terms": [{"den": 1, "k": 3, '
                    '"num": 1%s}]}], "class": 2, "dim": 3}' % ("0" * 400),
                    encoding="utf-8")
    assert run_cli(["validate", str(path)], capsys)[0] == 0
    code, _, err = run_cli([command[0], str(path)] + command[1:], capsys)
    assert code == 2
    assert err == ("nilflat: error: structure constant of e3 in [e1, e2] "
                   "is too large for float64\n")


# [TRIVIAL] regression: an SPD metric with λ_min ≈ 1e-12 is valid (its
# reversed Cholesky pivots are 1, 1 and 2e-12): `curvature` exits 0, as
# `certify` does, where it used to refuse the metric with exit 2.
def test_curvature_accepts_nearly_singular_metric(tmp_path, child_env):
    (tmp_path / "m.json").write_text(
        '{"dim": 3, "entries": [1, 0.999999999999, 0, 0.999999999999, 1, 0, '
        '0, 0, 1]}', encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "nilflat", "curvature",
                           str(DATA / "h3.json"), "--metric", "m.json"],
                          cwd=tmp_path, env=child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


SINGULAR_METRIC = [8, 2, 4, 2, 13, -4, 4, -4, 4]  # det 0


# [TRIVIAL] regression: both orders of an exactly singular metric are
# refused by `curvature` and `certify` alike (exit 2), where `certify`
# accepted the first through a rounded forward Cholesky pivot of 3e-8, and a
# metric of widely spread scales is accepted by both.
@pytest.mark.parametrize("command", [["curvature"], ["certify", "--eps", "0.01"]],
                         ids=["curvature", "certify"])
@pytest.mark.parametrize("entries,code", [
    (SINGULAR_METRIC, 2),
    (SINGULAR_METRIC[::-1], 2),
    ([1e10, 0, 0, 0, 1, 0, 0, 0, 1e-8], 0),
], ids=["singular", "singular-reversed", "spread-diagonal"])
def test_metric_gate_same_for_every_command(command, entries, code, tmp_path,
                                            monkeypatch, capsys):
    (tmp_path / "m.json").write_text(json.dumps({"dim": 3, "entries": entries}),
                                     encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exit_code, _, err = run_cli([command[0], str(DATA / "h3.json"), "--metric",
                                 "m.json"] + command[1:], capsys)
    assert exit_code == code, err
    if code:
        assert err.startswith("nilflat: error: ") and "metric matrix is" in err


# [DERIVED] full file-level round-trip: peel to a tower file, then rebuild
# the lattice from the point by chaining extend over the stored cocycles.
@pytest.mark.parametrize("name", ["z3.json", "h3.json", "n4.json", "h5.json"])
def test_round_trip_peel_then_extend_chain(name, tmp_path, capsys):
    tower_path = tmp_path / "tower.json"
    assert main(["peel", str(DATA / name), "--out", str(tower_path)]) == 0
    steps = json.loads(tower_path.read_text(encoding="utf-8"))["steps"]

    current = tmp_path / "stage0.json"
    fileio.write_text(current, fileio.dump_algebra(catalog.point()))
    for level, step in enumerate(reversed(steps), start=1):
        cocycle_path = tmp_path / f"cocycle{level}.json"
        fileio.write_text(cocycle_path, fileio.canonical_json(
            {"dim": step["base_dim"], "entries": step["cocycle"]}))
        next_path = tmp_path / f"stage{level}.json"
        assert main(["extend", str(current), str(cocycle_path),
                     "--out", str(next_path)]) == 0
        current = next_path
    capsys.readouterr()
    assert current.read_text(encoding="utf-8") == \
        (DATA / name).read_text(encoding="utf-8")


# [TRIVIAL] curvature: CSV artifact plus sibling JSON summary, with the
# reproducibility envelope carrying version and full config.
def test_curvature_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code, stdout, err = run_cli(
        ["curvature", str(DATA / "h3.json"), "--t-max", "1", "--t-min",
         "1e-4", "--t-points", "3", "--samples", "256", "--out", str(out)],
        capsys)
    assert code == 0 and err == ""
    assert "scanned" in stdout and "exponent_fit" in stdout

    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,sup_abs_K,base_sup_K,bound,diam_bound"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 1.0
    assert float(first[1]) == pytest.approx(0.75, abs=1e-9)

    summary_path = tmp_path / "run.summary.json"
    envelope = json.loads(summary_path.read_text(encoding="utf-8"))
    assert set(envelope) == {"tool", "version", "command", "config", "report"}
    assert envelope["tool"] == "nilflat"
    assert envelope["version"] == __version__
    assert envelope["command"] == "curvature"
    assert envelope["config"]["t_points"] == 3
    assert envelope["config"]["samples"] == 256
    assert envelope["config"]["seed"] == 0
    assert set(envelope["report"]) == {"C", "exponent_fit", "sample_count",
                                       "seed"}


# [TRIVIAL] one process builds the parser once, and no value leaks from one
# call into the next: after a peel to a file and a failed parse that had
# already read --t-points 3, --seed 5 and --out, a curvature run echoes every
# default and its own --out, and a peel without --out writes to stdout.
def test_main_calls_share_one_parser_without_leaks(tmp_path, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda real=cli.build_parser: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        code, stdout, err = run_cli(["validate", str(DATA / "h3.json")], capsys)
        assert code == 0 and err == "" and "->" not in stdout
        tower = tmp_path / "tower.json"
        code, stdout, err = run_cli(
            ["peel", str(DATA / "h3.json"), "--out", str(tower)], capsys)
        assert code == 0 and err == "" and str(tower) in stdout
        with pytest.raises(SystemExit) as exit_info:
            main(["curvature", str(DATA / "h3.json"), "--t-points", "3",
                  "--seed", "5", "--out", str(tmp_path / "stale.csv"), "--bogus"])
        assert exit_info.value.code == 1
        capsys.readouterr()
        out = tmp_path / "run.csv"
        code, stdout, err = run_cli(
            ["curvature", str(DATA / "h3.json"), "--out", str(out)], capsys)
        assert code == 0 and err == "" and str(out) in stdout
        config = json.loads((tmp_path / "run.summary.json").read_text(
            encoding="utf-8"))["config"]
        assert config == {"input": str(DATA / "h3.json"), "metric": None,
                          "t_max": 1.0, "t_min": 1e-6, "t_points": 7,
                          "samples": 4096, "seed": 0, "format": "csv",
                          "out": str(out)}
        assert len(out.read_text(encoding="utf-8").splitlines()) == 8
        assert not (tmp_path / "stale.csv").exists()
        code, stdout, err = run_cli(["peel", str(DATA / "h3.json")], capsys)
        assert code == 0 and stdout == tower.read_text(encoding="utf-8")
        assert built == [1]
    finally:
        cli._parser.cache_clear()


# [DERIVED] h3 JSON summary: excess decays linearly in t, so the fitted
# exponent is 1 within the scan tolerance.
def test_curvature_json_stdout(capsys):
    code, stdout, _ = run_cli(
        ["curvature", str(DATA / "h3.json"), "--t-min", "1e-4",
         "--t-points", "5", "--samples", "256", "--format", "json"], capsys)
    assert code == 0
    envelope = json.loads(stdout)
    assert envelope["report"]["exponent_fit"] == pytest.approx(1.0, abs=0.02)
    assert envelope["config"]["format"] == "json"


# [DERIVED] a tilted metric scans cleanly (its quotient base is still flat).
def test_curvature_tilted_metric(capsys):
    code, stdout, _ = run_cli(
        ["curvature", str(DATA / "h3.json"), "--metric",
         str(DATA / "metric3_tilted.json"), "--t-points", "2", "--t-min",
         "1e-2", "--samples", "256", "--format", "json"], capsys)
    assert code == 0
    envelope = json.loads(stdout)
    assert envelope["config"]["metric"].endswith("metric3_tilted.json")


def test_curvature_metric_dim_mismatch(capsys):
    code, _, err = run_cli(
        ["curvature", str(DATA / "n4.json"), "--metric",
         str(DATA / "metric3_tilted.json"), "--samples", "16",
         "--t-points", "1"], capsys)
    assert code == 2 and "does not match" in err


# [TRIVIAL] run-config invariants are usage errors (exit 1), not math.
@pytest.mark.parametrize("flags", [
    ["--t-min", "0"],
    ["--t-min", "2", "--t-max", "1"],
    ["--t-points", "0"],
    ["--samples", "0"],
    ["--t-max", "inf"],
    ["--t-max", "nan"],
    ["--t-min", "nan"],
    ["--t-min", "1e-200", "--t-max", "1e-200"],
], ids=["tmin-zero", "tmax-lt-tmin", "no-points", "no-samples",
        "tmax-inf", "tmax-nan", "tmin-nan", "tmin-tiny"])
def test_curvature_flag_errors(flags, capsys):
    code, _, err = run_cli(
        ["curvature", str(DATA / "h3.json")] + flags, capsys)
    assert code == 1 and err.startswith("nilflat: error:")


# [TRIVIAL] a --t-points past numpy's array-size limit is a usage error
# naming the flag, not a traceback.  Both sizes fail before any allocation:
# 10**20 as ValueError, 2**63 (which wraps int64) as IndexError.
@pytest.mark.parametrize("points", [10**20, 2**63], ids=["1e20", "2^63"])
def test_curvature_t_points_too_large(points, capsys):
    code, _, err = run_cli(
        ["curvature", str(DATA / "h3.json"), "--t-points", str(points)], capsys)
    assert code == 1
    assert err.startswith(f"nilflat: error: --t-points {points} is too large")


# [DERIVED] equal --t-min and --t-max scan a constant grid (np.geomspace
# alone puts interior points an ulp below the ends, which is not a
# descending grid); one distinct t fits no exponent.
@pytest.mark.parametrize("t", ["0.3", "1e-5", "1.5e-154"])
def test_curvature_equal_t_ends(t, tmp_path, capsys):
    out = tmp_path / "run.csv"
    code, _, err = run_cli(
        ["curvature", str(DATA / "h3.json"), "--t-min", t, "--t-max", t,
         "--samples", "64", "--out", str(out)], capsys)
    assert code == 0 and err == ""
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [repr(float(t))] * 7
    summary = json.loads((tmp_path / "run.summary.json").read_text(encoding="utf-8"))
    assert summary["report"]["exponent_fit"] is None


def test_curvature_needs_dim_two(tmp_path, capsys):
    path = tmp_path / "z1.json"
    fileio.write_text(path, fileio.dump_algebra(catalog.abelian(1)))
    code, _, err = run_cli(["curvature", str(path), "--samples", "16",
                            "--t-points", "1"], capsys)
    assert code == 2 and "dim >= 2" in err


# [DERIVED] exit 3 is a bound failure inside the validity window (t <= 1):
# with the constant C forced to 0, h3 (sup|K^t| = 3t/4 over a flat base)
# exceeds its bound at t = 1e-3. Outside the window no bound is proven, so
# --t-max above 1 is a usage error (exit 1), not a violation: at t = 100
# h3 has sup|K^t| = 75 above the formula's 68.28.
def test_curvature_bound_violated_exit_three(monkeypatch, capsys):
    monkeypatch.setattr(nilflat.scan, "_lemma_constant", lambda *args: 0.0)
    code, _, err = run_cli(
        ["curvature", str(DATA / "h3.json"), "--t-max", "1e-3", "--t-min",
         "1e-3", "--t-points", "1", "--samples", "128"], capsys)
    assert code == 3
    assert "exceeds bound" in err
    monkeypatch.undo()
    code, out, err = run_cli(
        ["curvature", str(DATA / "h3.json"), "--t-max", "100", "--t-min",
         "1", "--t-points", "3"], capsys)
    assert code == 1 and out == ""
    assert err == "nilflat: error: --t-max must be <= 1, got 100.0\n"


def csv_rows(text):
    lines = text.splitlines()
    assert lines[0] == "t,sup_abs_K,base_sup_K,bound,diam_bound"
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


# [DERIVED] no valid shipped lattice fails spuriously: default-flag
# `curvature` passes its bound check on every row, and `certify --eps 0.01`
# certifies.  (h3_times_z once exited 3: its bound is met exactly, C = 0, and
# the sampled sup missed it by a few ulp.)
@pytest.mark.parametrize("name", ["h3", "h3_times_z", "h5", "n4", "z2", "z3"])
def test_shipped_lattices_scan_and_certify(name, capsys):
    code, out, err = run_cli(["curvature", str(DATA / f"{name}.json")], capsys)
    assert code == 0, err
    for _, sup, _, bound, _ in csv_rows(out):
        assert sup <= bound
    code, out, err = run_cli(["certify", str(DATA / f"{name}.json"),
                              "--eps", "0.01"], capsys)
    assert code == 0, err
    assert json.loads(out)["report"]["sup_abs_K"] <= 0.01


# [DERIVED] h3 × Z with G = I is a metric product with a circle: its top
# fiber is the product factor (A ≡ 0, C = 0), so sup|K^t| = sup|Ǩ| = 3/4 at
# every t, on every seed.
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_h3_times_z_sup_is_three_quarters(seed, capsys):
    code, out, err = run_cli(["curvature", str(DATA / "h3_times_z.json"),
                              "--seed", str(seed), "--samples", "64"], capsys)
    assert code == 0, err
    for _, sup, base, bound, _ in csv_rows(out):
        assert sup == pytest.approx(0.75, rel=1e-12)
        assert base == pytest.approx(0.75, rel=1e-12)
        assert sup <= bound <= 0.75 * (1.0 + 1e-12)


# [DERIVED] the split frame is scale-free: G = c·I is a valid metric for any
# c > 0, and h3 then has sup|K^t| = 3t/(4c).
@pytest.mark.parametrize("c", [1e-12, 1e-15])
def test_curvature_tiny_metric_scale(c, tmp_path, capsys):
    metric = tmp_path / "tiny.json"
    metric.write_text(fileio.dump_metric(c * np.eye(3)))
    code, out, err = run_cli(["curvature", str(DATA / "h3.json"), "--metric",
                              str(metric), "--samples", "512"], capsys)
    assert code == 0, err
    for t, sup, _, bound, _ in csv_rows(out):
        assert sup == pytest.approx(0.75 * t / c, rel=1e-9)
        assert sup <= bound


# [DERIVED] regression: ‖DA‖_F is summed without overflow where ΣDA² would
# overflow: on h3 at G = 1e-300·I, C = (4 + 2√2)·1e300 (the G = I constant
# over the scale) and every bound is finite, so the summary is strict JSON,
# where it held "C": Infinity.
def test_curvature_constant_does_not_overflow(tmp_path, capsys):
    metric = tmp_path / "tiny.json"
    metric.write_text(fileio.dump_metric(1e-300 * np.eye(3)))
    out = tmp_path / "scan.csv"
    code, _, err = run_cli(["curvature", str(DATA / "h3.json"), "--metric",
                            str(metric), "--out", str(out)], capsys)
    assert code == 0, err

    def refuse(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    summary = json.loads(out.with_suffix(".summary.json").read_text(encoding="utf-8"),
                         parse_constant=refuse)
    assert summary["report"]["C"] == pytest.approx((4.0 + 2.0 * math.sqrt(2.0)) * 1e300,
                                                   rel=1e-12)
    bounds = [row[3] for row in csv_rows(out.read_text(encoding="utf-8"))]
    assert len(bounds) == 7 and all(math.isfinite(b) for b in bounds)


# [TRIVIAL] each metric is factored once: a `curvature` run (metric, split
# and scan) calls np.linalg.cholesky once and np.linalg.inv once.
def test_curvature_factors_metric_once(monkeypatch, capsys):
    calls = []

    def counted(name, real):
        return lambda a: (calls.append(name), real(a))[1]

    monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
    monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
    code, _, err = run_cli(["curvature", str(DATA / "h3.json"), "--metric",
                            str(DATA / "metric3_tilted.json")], capsys)
    assert code == 0, err
    assert calls == ["cholesky", "inv"]


# [TRIVIAL] certify: abelian tower certifies at once with unit fibers.
def test_certify_z3(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code, stdout, err = run_cli(
        ["certify", str(DATA / "z3.json"), "--eps", "1e-6",
         "--out", str(out)], capsys)
    assert code == 0 and err == "" and "certified" in stdout
    envelope = json.loads(out.read_text(encoding="utf-8"))
    assert envelope["command"] == "certify"
    # the config echoes exactly the flags certify parses
    assert envelope["config"] == {"input": str(DATA / "z3.json"), "metric": None,
                                  "eps": 1e-6, "samples": 4096, "seed": 0,
                                  "out": str(out)}
    report = envelope["report"]
    assert report["ts"] == [1.0, 1.0, 1.0]
    assert report["sup_abs_K"] == 0.0
    assert report["diam_bound"] == pytest.approx(1.5, abs=1e-12)


# [DERIVED] certify h3: accepted top collapse lands near 4*eps/3.
def test_certify_h3(capsys):
    code, stdout, _ = run_cli(
        ["certify", str(DATA / "h3.json"), "--eps", "0.01",
         "--samples", "512"], capsys)
    assert code == 0
    report = json.loads(stdout)["report"]
    target = 4.0 * 0.01 / 3.0
    assert abs(report["ts"][0] - target) <= 0.1 * target
    assert report["sup_abs_K"] <= 0.01
    assert report["curved_levels"] == [3]


# [DERIVED] regression: n4 at eps 1e-100 drives the top t to ~4e-201, whose
# square underflows float64.  Curvature from orthonormal structure constants
# never forms t², so it certifies (exit 0) with its sup below the bound.
def test_certify_n4_tiny_eps(capsys):
    code, stdout, err = run_cli(
        ["certify", str(DATA / "n4.json"), "--eps", "1e-100"], capsys)
    assert code == 0, err
    report = json.loads(stdout)["report"]
    assert report["sup_abs_K"] <= report["sup_abs_K_bound"] <= 1e-100
    assert min(report["ts"]) < 1e-154


# [TRIVIAL] certify flag validation.
@pytest.mark.parametrize("flags", [["--eps", "-1"], ["--eps", "0"],
                                   ["--eps", "0.1", "--samples", "0"]],
                         ids=["neg-eps", "zero-eps", "no-samples"])
def test_certify_flag_errors(flags, capsys):
    code, _, err = run_cli(["certify", str(DATA / "z3.json")] + flags, capsys)
    assert code == 1 and err.startswith("nilflat: error:")


# [TRIVIAL] a negative --seed is a usage error (exit 1) before any work, not
# a traceback from the Philox key; certify used to raise it only after its
# whole schedule had run.
@pytest.mark.parametrize("argv", [["curvature", str(DATA / "h3.json")],
                                  ["certify", str(DATA / "h5.json"), "--eps", "0.01"]],
                         ids=["curvature", "certify"])
def test_negative_seed_is_usage_error(argv, capsys):
    code, out, err = run_cli(argv + ["--seed", "-1"], capsys)
    assert code == 1 and out == ""
    assert err == "nilflat: error: --seed must be >= 0, got -1\n"


# [TRIVIAL] a NaN or infinite --eps is a usage error: the report would carry
# it as "eps", and NaN or Infinity is not JSON.
@pytest.mark.parametrize("eps", ["inf", "nan"])
def test_certify_nonfinite_eps(eps, capsys):
    code, out, err = run_cli(["certify", str(DATA / "h3.json"), "--eps", eps],
                             capsys)
    assert code == 1 and out == ""
    assert err.startswith("nilflat: error: --eps must be positive and finite")


# [DERIVED] a dense seed metric whose collapse parameters fall to ~1e-30
# certifies (exit 0) with one summary on stdout.
def test_certify_dense_seed_exit_zero(tmp_path, capsys):
    lattice = tmp_path / "filiform10.json"
    lattice.write_text(fileio.dump_algebra(catalog.filiform(10)))
    b = np.random.default_rng(0).standard_normal((10, 10))
    metric = tmp_path / "dense.json"
    metric.write_text(fileio.dump_metric(np.eye(10) + 0.5 * b @ b.T / 10))
    code, out, err = run_cli(["certify", str(lattice), "--metric", str(metric),
                              "--eps", "1e-3", "--samples", "1024"], capsys)
    assert code == 0, err
    assert err == ""
    assert json.loads(out)["report"]["sup_abs_K"] <= 1e-3


def test_certify_missing_metric(tmp_path, capsys):
    code, _, err = run_cli(
        ["certify", str(DATA / "z3.json"), "--eps", "0.1",
         "--metric", str(tmp_path / "nope.json")], capsys)
    assert code == 1


# [DERIVED] identical invocations from different directories produce
# byte-identical artifacts (the embedded config only sees the flags).
def test_curvature_determinism_across_cwd(tmp_path, monkeypatch, capsys):
    results = []
    for sub in ("a", "b"):
        workdir = tmp_path / sub
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        code = main(["curvature", str(DATA / "n4.json"), "--t-points", "3",
                     "--t-min", "1e-3", "--samples", "256",
                     "--out", "run.csv"])
        assert code == 0
        results.append((workdir / "run.csv").read_bytes()
                       + (workdir / "run.summary.json").read_bytes())
    capsys.readouterr()
    assert results[0] == results[1]


# [DERIVED] certify prints the same bytes at BLAS/OpenMP thread counts 1 and
# 8: its batched polish contracts with einsum(optimize=False) and stacked
# eigh only.
def test_certify_thread_determinism(tmp_path, child_env):
    argv = [sys.executable, "-m", "nilflat", "certify", str(DATA / "h5.json"),
            "--eps", "0.001"]
    outputs = []
    for threads in ("1", "8"):
        env = child_env(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                        MKL_NUM_THREADS=threads)
        proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert b'"sup_abs_K"' in outputs[0]


# [DERIVED] curvature writes the same bytes at BLAS/OpenMP thread counts 1
# and 8 with a dense seed metric on filiform(6): the eigenplane seeds come
# from an unstacked eigh of the 15×15 curvature operator on Λ².
def test_curvature_thread_determinism_dense_seed(tmp_path, child_env):
    lattice = tmp_path / "filiform6.json"
    lattice.write_text(fileio.dump_algebra(catalog.filiform(6)))
    b = np.random.default_rng(0).standard_normal((6, 6))
    metric = tmp_path / "dense.json"
    metric.write_text(fileio.dump_metric(np.eye(6) + 0.5 * b @ b.T / 6))
    argv = [sys.executable, "-m", "nilflat", "curvature", str(lattice),
            "--metric", str(metric), "--t-points", "4", "--t-min", "1e-4",
            "--samples", "1024", "--out", "run.csv"]
    outputs = []
    for threads in ("1", "8"):
        workdir = tmp_path / f"threads{threads}"
        workdir.mkdir()
        env = child_env(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                        MKL_NUM_THREADS=threads)
        proc = subprocess.run(argv, cwd=workdir, env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append((workdir / "run.csv").read_bytes()
                       + (workdir / "run.summary.json").read_bytes())
    assert outputs[0] == outputs[1]


def curvature_bytes_by_threads(argv, tmp_path, child_env):
    """CSV and summary bytes of `nilflat curvature … --out run.csv` run in a
    child process at BLAS/OpenMP thread counts 1 and 8."""
    outputs = []
    for threads in ("1", "8"):
        workdir = tmp_path / f"threads{threads}"
        workdir.mkdir()
        env = child_env(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                        MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "nilflat", "curvature"]
                              + argv + ["--out", "run.csv"],
                              cwd=workdir, env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append((workdir / "run.csv").read_bytes()
                       + (workdir / "run.summary.json").read_bytes())
    return outputs


# [DERIVED] curvature writes the same bytes at BLAS/OpenMP thread counts 1
# and 8 on free 2-step(3) at G = I, where no eigenplane of ℛ attains ρ and
# Thorpe's certificate does not close: every grid t polishes the eigenplane
# legs to their own stop and runs the certificate's eigensolves.
def test_curvature_thread_determinism_sampler(tmp_path, child_env):
    lattice = tmp_path / "free3.json"
    lattice.write_text(fileio.dump_algebra(free_two_step(3)))
    outputs = curvature_bytes_by_threads([str(lattice)], tmp_path, child_env)
    assert outputs[0] == outputs[1]


# [DERIVED] curvature writes the same bytes at BLAS/OpenMP thread counts 1
# and 8 where Thorpe's certificate closes (h5 at G = I, free 2-step(3) with
# a dense seed): the 4-form comes from a scatter sum,
# einsum(optimize=False) and LAPACK eigh only.
@pytest.mark.parametrize("dense", [False, True], ids=["h5", "free3-dense"])
def test_curvature_thread_determinism_certificate(dense, tmp_path, child_env):
    if dense:
        lattice = tmp_path / "free3.json"
        lattice.write_text(fileio.dump_algebra(free_two_step(3)))
        b = np.random.default_rng(0).standard_normal((6, 6))
        metric = tmp_path / "dense.json"
        metric.write_text(fileio.dump_metric(np.eye(6) + 0.5 * b @ b.T / 6))
        argv = [str(lattice), "--metric", str(metric)]
    else:
        argv = [str(DATA / "h5.json")]
    outputs = curvature_bytes_by_threads(argv, tmp_path, child_env)
    assert outputs[0] == outputs[1]


# [DERIVED] where the certificate does not close (free 2-step(3) at G = I,
# default flags) the polished eigenplane is reported: the sup 3/4 (Milnor
# 1976) to 1e-15 at every t.
def test_curvature_free3_fallback_bytes(tmp_path, capsys):
    lattice = tmp_path / "free3.json"
    lattice.write_text(fileio.dump_algebra(free_two_step(3)))
    code, out, _ = run_cli(["curvature", str(lattice)], capsys)
    assert code == 0
    assert out == (
        "t,sup_abs_K,base_sup_K,bound,diam_bound\n"
        "1.0,0.75,0.75,8.214101615138617,0.5\n"
        "0.1,0.75,0.75,3.1103561790785474,0.15811388300841897\n"
        "0.01,0.7500000000000004,0.75,1.4964101615146388,0.05\n"
        "0.001,0.7500000000000006,0.75,0.9860356179086317,0.015811388300841896\n"
        "0.0001,0.75,0.75,0.8246410161522408,0.005\n"
        "9.999999999999999e-06,0.75,0.75,0.7736035617916401,"
        "0.0015811388300841897\n"
        "1e-06,0.75,0.75,0.7574641016160011,0.0005\n")


# [DERIVED] --seed and --samples are validated and echoed but change no
# value: the same CSV bytes on free 2-step(3) at G = I, where the certificate
# does not close.
def test_curvature_ignores_seed_and_samples(tmp_path, capsys):
    lattice = tmp_path / "free3.json"
    lattice.write_text(fileio.dump_algebra(free_two_step(3)))
    outputs = []
    for flags in (["--seed", "0", "--samples", "4096"], ["--seed", "7", "--samples", "1"]):
        code, out, _ = run_cli(["curvature", str(lattice)] + flags, capsys)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


# [DERIVED] the README's curvature example is what the command prints.
def test_readme_curvature_example(capsys, monkeypatch):
    readme = (DATA.parent / "README.md").read_text(encoding="utf-8")
    prompt = "$ nilflat curvature data/h3.json --t-points 4 --t-min 1e-6 --samples 2048\n"
    block = readme.split(prompt, 1)[1].split("```", 1)[0]
    monkeypatch.chdir(DATA.parent)
    code, out, _ = run_cli(prompt.split()[2:], capsys)
    assert code == 0
    assert out == block


# [TRIVIAL] the module entry point is wired up.
def test_module_entry_point(tmp_path, child_env):
    proc = subprocess.run([sys.executable, "-m", "nilflat", "--version"],
                          cwd=tmp_path, env=child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"nilflat {__version__}"


# [TRIVIAL] child processes import the package under test, from any cwd.
def test_child_env_imports_session_package(tmp_path, child_env):
    proc = subprocess.run(
        [sys.executable, "-c", "import nilflat; print(nilflat.__file__)"],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).resolve() == Path(nilflat.__file__).resolve()


# [TRIVIAL] the exact-layer commands start without numpy: `import nilflat`
# and `validate`, `peel`, `extend`, `--version` and the `--help` of the
# parser and of the numerical commands leave it unloaded, and a numerical name
# loads its module on first access. The child prints what it saw after each
# step.
EXACT_CHILD = """
import json, sys
import nilflat
import nilflat.cli
data, out = sys.argv[1], sys.argv[2]
seen = {"import": "numpy" in sys.modules}
for argv in (["validate", f"{data}/n4.json"],
             ["peel", f"{data}/n4.json", "--out", f"{out}/n4_tower.json"],
             ["extend", f"{data}/z2.json", f"{data}/euler_one_z2.json",
              "--out", f"{out}/h3.json"],
             ["--version"], ["--help"], ["curvature", "--help"],
             ["certify", "--help"]):
    try:
        code = nilflat.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    seen[argv[0]] = [code, "numpy" in sys.modules]
seen["lazy"] = nilflat.lemma_scan is nilflat.scan.lemma_scan
seen["numpy_after_lazy"] = "numpy" in sys.modules
seen["all_in_dir"] = set(nilflat.__all__) <= set(dir(nilflat))
try:
    nilflat.no_such_name
    seen["unknown"] = "resolved"
except AttributeError:
    seen["unknown"] = "AttributeError"
print(json.dumps(seen))
"""


def test_exact_commands_start_without_numpy(tmp_path, child_env):
    proc = subprocess.run([sys.executable, "-c", EXACT_CHILD, str(DATA), str(tmp_path)],
                          cwd=tmp_path, env=child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"import": False, "validate": [0, False], "peel": [0, False],
                    "extend": [0, False], "--version": [0, False],
                    "--help": [0, False], "curvature": [0, False],
                    "certify": [0, False], "lazy": True,
                    "numpy_after_lazy": True, "all_in_dir": True,
                    "unknown": "AttributeError"}
    assert (tmp_path / "h3.json").read_bytes() == (DATA / "h3.json").read_bytes()
    assert (tmp_path / "n4_tower.json").is_file()


# [TRIVIAL] import hygiene: `import nilflat, nilflat.cli` and in-process
# `validate`, `peel` and `extend` load none of `dataclasses`, `inspect`,
# numpy and `nilflat.catalog`; `curvature` and `certify` load numpy but
# still neither `dataclasses` nor `nilflat.catalog`.  The child prints the
# watched modules it sees after each step.
HYGIENE_CHILD = """
import json, sys
import nilflat, nilflat.cli
data, out = sys.argv[1], sys.argv[2]
watched = ("dataclasses", "inspect", "numpy", "nilflat.catalog")
seen = {"import": [m for m in watched if m in sys.modules]}
for argv in (["validate", f"{data}/n4.json"],
             ["peel", f"{data}/n4.json", "--out", f"{out}/n4_tower.json"],
             ["extend", f"{data}/z2.json", f"{data}/euler_one_z2.json",
              "--out", f"{out}/h3.json"],
             ["curvature", f"{data}/h3.json", "--samples", "16", "--t-points", "2",
              "--out", f"{out}/h3_scan.json"],
             ["certify", f"{data}/h3.json", "--eps", "0.01",
              "--out", f"{out}/h3_cert.json"]):
    seen[argv[0]] = [nilflat.cli.main(argv), [m for m in watched if m in sys.modules]]
print(json.dumps(seen))
"""


def test_commands_import_no_dataclasses(tmp_path, child_env):
    proc = subprocess.run([sys.executable, "-c", HYGIENE_CHILD, str(DATA), str(tmp_path)],
                          cwd=tmp_path, env=child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    for step in ("import", "validate", "peel", "extend"):
        assert seen[step] == ([] if step == "import" else [0, []]), step
    for step in ("curvature", "certify"):
        code, loaded = seen[step]
        assert code == 0 and "numpy" in loaded, step
        assert "dataclasses" not in loaded and "nilflat.catalog" not in loaded, step


# [DERIVED] the shipped-artifact dump on two inputs: every command leaves
# its stdout, stderr and exit code; `extend` runs with every shipped cocycle
# (z2 by the Euler-one form is the shipped h3 file, the n4 form is refused
# on dimension); a seed metric `metricN_*.json` runs on the N-dimensional
# inputs only; the echoed paths are relative to the dump, so two
# checkouts dump comparable bytes.
def test_shipped_artifacts_dump(tmp_path):
    script = DATA.parent / "tools" / "shipped_artifacts.py"
    proc = subprocess.run([sys.executable, str(script), str(tmp_path), "h3.json", "z2.json"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "h3", "z2"]
    labels = ["certify", "curvature", "peel", "validate"] + [
        f"extend+{name}" for name in ("bad_cocycle_n4", "euler_one_z2",
                                      "euler_two_z2", "euler_zero_z2")]
    for stem in ("h3", "z2"):
        for label in labels:
            for suffix in (".stdout", ".stderr", ".exit"):
                assert (tmp_path / stem / (label + suffix)).is_file()
    exits = {f"{p.parent.name}/{p.stem}": p.read_text() for p in tmp_path.glob("*/*.exit")}
    assert exits["z2/extend+euler_one_z2"] == "0\n"
    assert exits["z2/extend+bad_cocycle_n4"] == "2\n"
    assert exits["h3/certify"] == "0\n"
    # a seed metric runs on the algebras of its dimension only
    assert sorted(key for key in exits if key.endswith("-tilted")) == [
        "h3/certify-tilted", "h3/curvature-tilted"]
    assert ((tmp_path / "z2" / "extend+euler_one_z2.json").read_bytes()
            == (DATA / "h3.json").read_bytes())
    config = json.loads((tmp_path / "h3" / "certify.json").read_text())["config"]
    assert (config["input"], config["out"]) == ("data/h3.json", "h3/certify.json")
    assert (tmp_path / "h3" / "curvature.summary.json").is_file()


# [DERIVED] curvature that float64 cannot represent is refused by its one
# constructor: h3 with [e1, e2] = 10^200·e3 (the shipped `h3_huge.json`) and
# h5 at the subnormal metric 5e-309·I (`metric5_subnormal.json`) exit 2 with
# one error line that names the frame weights, and no RuntimeWarning, under
# `curvature` and `certify` alike.
@pytest.mark.parametrize("argv", [
    ["curvature", "h3_huge.json", "--samples", "16", "--t-points", "1"],
    ["certify", "h3_huge.json", "--eps", "0.01"],
    ["certify", "h5.json", "--eps", "0.01", "--metric", "metric5_subnormal.json"],
    ["curvature", "h5.json", "--metric", "metric5_subnormal.json"],
], ids=["curvature-huge", "certify-huge", "certify-subnormal", "curvature-subnormal"])
def test_unrepresentable_curvature_exits_2(argv, capsys, recwarn):
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("nilflat: error: curvature at frame weights")
    assert "is not finite in float64" in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
