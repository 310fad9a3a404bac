"""Tests of the benchmark itself: every check catches a planted error, and
only the kept operations fail.

    python3 -m pytest -q bench

They run real operations of the three workloads through the worker's code,
with `src` of this checkout on the path, and take under a minute.
"""

import contextlib
import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from workloads import BUILDERS, Inputs  # noqa: E402


@pytest.fixture(scope="module")
def ran():
    """Run a few operations of each workload once: {op id: (op, record)}."""
    wanted = {"collapse/h3-I", "collapse/fil6-S-0", "collapse/h3xZ-I",
              "certify/h3-I-0-e0.01", "certify/free3-S-17-e0.001",
              "certify/h3xZ-coupled-e0.01", "certify/fil8-I-e0.001",
              "exact-tower/fil6-validate", "exact-tower/free3-validate",
              "exact-tower/fil6-peel", "exact-tower/fil6-extend",
              "exact-tower/free4-cohomologous", "exact-tower/z4-cohomologous"}
    work = BENCH / "out" / "test-work"
    out = {}
    try:
        for name, build in BUILDERS.items():
            ops = build(Inputs(ROOT, work / name, 11))
            for op in ops:
                if op["id"] in wanted:
                    plain = json.loads(json.dumps({k: v for k, v in op.items()
                                                   if k != "check"}))
                    with contextlib.chdir(ROOT):
                        seconds, status, output = worker.run_op(plain)
                    out[op["id"]] = (op, {"id": op["id"], "status": status,
                                          "output": output, "reproduced": True,
                                          "seconds": [seconds]})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return out


def _errors(op, output):
    return run.check_op(op, output)


def _edit_csv(op, output, column, fn, row=None):
    output = copy.deepcopy(output)
    path = op["outputs"][0]
    lines = output[path].splitlines()
    header = lines[0].split(",")
    col = header.index(column)
    for i in range(1, len(lines)):
        if row is None or i == row:
            cells = lines[i].split(",")
            cells[col] = repr(fn(float(cells[col])))
            lines[i] = ",".join(cells)
    output[path] = "\n".join(lines) + "\n"
    return output


def test_unaltered_outputs_pass(ran):
    for op_id, (op, rec) in ran.items():
        if op["kept"] is None:
            assert rec["status"] == "ok", op_id
            assert _errors(op, rec["output"]) == [], op_id


def test_collapse_checks_catch_planted_errors(ran):
    op, rec = ran["collapse/h3-I"]
    scaled = _edit_csv(op, rec["output"], "sup_abs_K", lambda v: 0.9 * v)
    found = _errors(op, scaled)
    assert any("closed form" in e for e in found)
    assert any("below coordinate-plane max" in e for e in found)

    op, rec = ran["collapse/fil6-S-0"]
    above = _edit_csv(op, rec["output"], "sup_abs_K", lambda v: 1.3 * v, row=1)
    assert any("above spectral radius" in e for e in _errors(op, above))
    base = _edit_csv(op, rec["output"], "base_sup_K", lambda v: 1.3 * v)
    assert any("base_sup_K" in e for e in _errors(op, base))
    diam = _edit_csv(op, rec["output"], "diam_bound", lambda v: v * (1 + 1e-9), row=3)
    assert any("diam_bound" in e for e in _errors(op, diam))
    bound = _edit_csv(op, rec["output"], "bound", lambda v: 0.0, row=2)
    assert any("> bound" in e for e in _errors(op, bound))


def test_certify_checks_catch_planted_errors(ran):
    op, rec = ran["certify/h3-I-0-e0.01"]
    low = dict(rec["output"], sup_abs_K=0.9 * rec["output"]["sup_abs_K"])
    assert any("below coordinate-plane max" in e for e in _errors(op, low))
    over = dict(rec["output"], sup_abs_K=2 * op["check"]["eps"])
    assert any("> eps" in e for e in _errors(op, over))

    op, rec = ran["certify/free3-S-17-e0.001"]
    out = rec["output"]
    above = dict(out, sup_abs_K=1.5 * out["sup_abs_K"])
    assert any("above spectral radius" in e for e in _errors(op, above))
    diam = dict(out, diam_bound=out["diam_bound"] * (1 + 1e-9))
    assert any("diam_bound" in e for e in _errors(op, diam))
    ts = dict(out, ts=[out["ts"][0]] + [0.5] + out["ts"][2:])
    assert _errors(op, ts)
    matrix = copy.deepcopy(out["metric_matrix"])
    matrix[0][1] += 1e-3
    assert any("symmetric" in e for e in _errors(op, dict(out, metric_matrix=matrix)))


def test_exact_checks_catch_planted_errors(ran):
    op, rec = ran["exact-tower/fil6-peel"]
    path = op["outputs"][0]
    tower = json.loads(rec["output"][path])
    tower["steps"][1]["cocycle"][0]["num"] += 1
    altered = dict(rec["output"], **{path: checks.canonical_json(tower)})
    assert _errors(op, altered)

    op, rec = ran["exact-tower/fil6-extend"]
    path = op["outputs"][0]
    altered = dict(rec["output"], **{path: rec["output"][path].replace('"num": 1', '"num": 2', 1)})
    assert _errors(op, altered)

    op, rec = ran["exact-tower/free3-validate"]
    stdout = rec["output"]["stdout"].replace("lattice_closed: ok", "lattice_closed: fails")
    assert any("lattice_closed" in e for e in _errors(op, dict(rec["output"], stdout=stdout)))

    op, rec = ran["exact-tower/free4-cohomologous"]
    witness = list(rec["output"]["witness"])
    witness[-1] += 1
    assert any("witness fails" in e
               for e in _errors(op, dict(rec["output"], witness=witness)))

    op, rec = ran["exact-tower/z4-cohomologous"]
    assert _errors(op, dict(rec["output"], cohomologous=True, sign=1, witness=[0] * 4))


def test_kept_operations_fail_only_as_named(ran):
    kept = {i: ran[i] for i in ("collapse/h3xZ-I", "certify/h3xZ-coupled-e0.01",
                                "certify/fil8-I-e0.001")}
    assert kept["collapse/h3xZ-I"][1]["status"].startswith("exit 3:")
    assert kept["certify/h3xZ-coupled-e0.01"][1]["status"].startswith(
        "raised BudgetNotMet:")
    op, rec = kept["certify/fil8-I-e0.001"]
    found = _errors(op, rec["output"])
    assert found and all("below coordinate-plane max" in e for e in found)
    ops, records = zip(*kept.values())
    assert run.judge(list(ops), list(records)) == ([], list(kept))
    # the same failures on an operation that is not kept are errors
    unkept = [dict(op, kept=None) for op in ops]
    errors, failed = run.judge(unkept, list(records))
    assert len(errors) == 3 and failed == list(kept)


@pytest.mark.parametrize("workload,failed", [("collapse", 1), ("certify", 2),
                                             ("exact-tower", 0)])
def test_command_on_a_second_seed(workload, failed):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "23", "--seconds", "0.1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == failed and result["attempted"] > failed
    assert set(result["metrics"]) == {"setup_s", "ops_per_s", "op_p50_s", "peak_rss_mb"}


def test_command_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run([sys.executable, str(tmp_path / "bench" / "run.py"),
                           "--workload", "collapse", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
