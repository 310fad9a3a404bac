"""Worker process: runs one workload's operations as a closed loop.

    python3 bench/worker.py setup
    python3 bench/worker.py run OPS.json RESULT.json SECONDS TRACE

`setup` times what a fresh `nilflat` invocation pays before it reads its
input (``import nilflat``, ``import nilflat.cli`` and building the argument
parser) and prints it as JSON.  `run` executes whole passes over the
operation list in OPS.json, one operation at a time, until SECONDS have
passed, and writes per-operation timings, the outputs of the first pass, and
whether later passes reproduced them, to RESULT.json.  The parent
(`run.py`) starts this file with the checkout's `src` first on PYTHONPATH and
checks the outputs itself.

Both modes also time `reference_kernel`, a fixed piece of work that never
calls nilflat, right next to what they measure: before every operation and
after the last one of each pass, and after the set-up.  The parent uses these
times to take the speed of the shared machine out of the figures.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def reference_kernel():
    """Fixed work like the program's: Fraction arithmetic and small einsums."""
    import numpy as np
    from fractions import Fraction
    a = np.linspace(0.0, 1.0, 216).reshape(6, 6, 6)
    total = Fraction(0)
    for i in range(1, 2001):
        total += Fraction(i, 7) * Fraction(3, i + 1)
        np.einsum("ijk,kl->ijl", a, a[0], optimize=False)
    return total


def time_reference() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def _import_nilflat() -> float:
    start = time.perf_counter()
    import nilflat  # noqa: F401
    return time.perf_counter() - start


def setup() -> None:
    start = time.perf_counter()
    import nilflat  # noqa: F401
    import nilflat.cli
    nilflat.cli.build_parser()
    setup_s = time.perf_counter() - start
    reference_kernel()  # warm-up: first-call costs are not machine speed
    reference_s = sorted(time_reference() for _ in range(3))[1]
    print(json.dumps({"setup_s": setup_s, "reference_s": reference_s,
                      "nilflat": nilflat.__file__}))


def _run_cli(op: dict):
    import nilflat.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = nilflat.cli.main(op["argv"])
    return rc, {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _run_certify(op: dict):
    import nilflat
    lattice = nilflat.fileio.load_lattice(op["lattice"])
    metric = nilflat.LeftInvariantMetric(nilflat.fileio.load_metric(op["metric"]))
    tower = nilflat.peel_tower(lattice)
    report = nilflat.certify_almost_flat(tower, metric, op["eps"], seed=op["seed"],
                                         n_samples=op["samples"])
    summary = nilflat.certificate_summary(report)
    summary["metric_matrix"] = report.metric_matrix.tolist()
    return 0, summary


def _run_cohomologous(op: dict):
    import nilflat
    base = nilflat.fileio.load_lattice(op["base"])
    w1 = nilflat.fileio.load_cocycle(op["w1"])
    w2 = nilflat.fileio.load_cocycle(op["w2"])
    verdict = nilflat.cocycles_cohomologous(base, w1, w2)
    return 0, {"cohomologous": verdict.cohomologous, "sign": verdict.sign,
               "witness": None if verdict.witness is None else list(verdict.witness)}


RUNNERS = {"cli": _run_cli, "certify": _run_certify,
           "cohomologous": _run_cohomologous}


def run_op(op: dict):
    """(seconds, status, output): status is "ok" or a failure description."""
    from nilflat.errors import NilflatError
    start = time.perf_counter()
    try:
        rc, output = RUNNERS[op["kind"]](op)
    except NilflatError as exc:
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}", None
    except Exception as exc:  # any other exception is a fault of the program
        return time.perf_counter() - start, f"unexpected {type(exc).__name__}: {exc}", None
    seconds = time.perf_counter() - start
    if rc != 0:
        return seconds, f"exit {rc}: {output['stderr'].strip()}", output
    for path in op.get("outputs", []):
        output[path] = Path(path).read_text(encoding="utf-8")
    return seconds, "ok", output


def run(ops_path: str, result_path: str, seconds: float, trace: bool) -> None:
    import_s = _import_nilflat()
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    ops = json.loads(Path(ops_path).read_text(encoding="utf-8"))
    records = [{"id": op["id"], "seconds": [], "reference_s": [], "status": None,
                "output": None, "reproduced": True} for op in ops]
    pass_s = []
    reference_kernel()
    start = time.perf_counter()
    while not pass_s or time.perf_counter() - start < seconds:
        pass_start = time.perf_counter()
        reference_before = time_reference()
        for op, rec in zip(ops, records):
            before = tracer.snapshot() if tracer else None
            op_s, status, output = run_op(op)
            if tracer:
                tracer.record_op(op["id"], len(pass_s), op_s, before)
            reference_after = time_reference()
            rec["seconds"].append(op_s)
            rec["reference_s"].append(0.5 * (reference_before + reference_after))
            reference_before = reference_after
            if not pass_s:
                rec["status"], rec["output"] = status, output
            elif (status, output) != (rec["status"], rec["output"]):
                rec["reproduced"] = False
        pass_s.append(time.perf_counter() - pass_start)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"import_s": import_s, "pass_s": pass_s, "peak_rss_mb": peak_kb / 1024.0,
              "ops": records}
    if tracer:
        result["per_layer"] = tracer.per_layer(len(pass_s), import_s)
        result["trace_ops"] = tracer.ops
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup()
    else:
        run(sys.argv[2], sys.argv[3], float(sys.argv[4]), sys.argv[5] == "1")
