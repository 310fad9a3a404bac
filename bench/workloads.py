"""The three workloads: inputs made from the seed, and the operation lists.

Each workload is a fixed list of operations.  A run repeats whole passes over
it, so every run attempts the same operations in the same proportions.  The
seed draws the random metrics, the `--seed` handed to each sampling
operation, and the random cochains; the program sees only the files written
here.  Nothing in this module imports nilflat.

Every operation is a dict the worker can run (``kind`` plus its arguments)
and carries a ``check`` spec that stays in the parent process; ``kept``
names the failure an operation is expected to show while a known fault of the
program stands (see `run.KEPT`).
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from checks import (Brackets, algebra_obj, brackets_from_obj, canonical_json,
                    coboundary, nilpotency_class, truncate)

WORKLOADS = ("collapse", "certify", "exact-tower")

# `nilflat curvature` defaults: 7 grid points from t = 1 down to 1e-6.
T_GRID = [float(t) for t in np.geomspace(1.0, 1e-6, 7)]
SAMPLES = 4096


# ---------------------------------------------------------------------------
# algebra families (1-based bracket tables)
# ---------------------------------------------------------------------------

def filiform(n: int) -> Tuple[int, Brackets]:
    """[e1, e_k] = e_{k+1} for 2 <= k < n: sparse, maximal class n − 1."""
    return n, {(1, k): {k + 1: Fraction(1)} for k in range(2, n)}


def heisenberg(k: int) -> Tuple[int, Brackets]:
    """h_{2k+1}: [e_{2i−1}, e_{2i}] = e_{2k+1}."""
    n = 2 * k + 1
    return n, {(2 * i - 1, 2 * i): {n: Fraction(1)} for i in range(1, k + 1)}


def free2(r: int) -> Tuple[int, Brackets]:
    """Free 2-step nilpotent on r generators: every [e_i, e_j] is a new e_k."""
    out, k = {}, r
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            k += 1
            out[(i, j)] = {k: Fraction(1)}
    return k, out


def times_z(alg: Tuple[int, Brackets]) -> Tuple[int, Brackets]:
    """Product with Z: one more central direction, last, with no brackets."""
    return alg[0] + 1, dict(alg[1])


def abelian(m: int) -> Tuple[int, Brackets]:
    return m, {}


def _cocycle_entries(w: Dict[Tuple[int, int], Fraction]) -> list:
    return [{"i": i, "j": j, "num": v.numerator, "den": v.denominator}
            for (i, j), v in sorted(w.items()) if v]


class Inputs:
    """Writes input files under one work directory, paths relative to root."""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work
        self.rng = np.random.default_rng(seed)
        work.mkdir(parents=True, exist_ok=True)

    def rel(self, name: str) -> str:
        return str((self.work / name).relative_to(self.root))

    def write(self, name: str, text: str) -> str:
        (self.work / name).write_text(text, encoding="utf-8", newline="")
        return self.rel(name)

    def algebra(self, name: str, alg: Tuple[int, Brackets]) -> dict:
        dim, br = alg
        cls = nilpotency_class(dim, br)
        text = canonical_json(algebra_obj(dim, cls, br))
        return {"path": self.write(f"{name}.json", text), "dim": dim,
                "brackets": br, "cls": cls, "text": text}

    def shipped(self, name: str) -> dict:
        path = f"data/{name}.json"
        text = (self.root / path).read_text(encoding="utf-8")
        dim, br = brackets_from_obj(json.loads(text))
        return {"path": path, "dim": dim, "brackets": br,
                "cls": nilpotency_class(dim, br), "text": text}

    def shipped_metric(self, name: str) -> np.ndarray:
        obj = json.loads((self.root / f"data/{name}.json").read_text(encoding="utf-8"))
        return np.array(obj["entries"], dtype=np.float64).reshape(obj["dim"], obj["dim"])

    def metric(self, name: str, g: np.ndarray) -> str:
        obj = {"dim": int(g.shape[0]), "entries": [float(x) for x in g.reshape(-1)]}
        return self.write(f"{name}.metric.json", canonical_json(obj))

    def random_metric(self, n: int) -> np.ndarray:
        """I + ½·BBᵀ/n with B standard normal: dense, condition number ~3."""
        b = self.rng.standard_normal((n, n))
        g = np.eye(n) + 0.5 * (b @ b.T) / n
        return 0.5 * (g + g.T)

    def block_metric(self, n: int) -> np.ndarray:
        """Random metric on the first n − 1 directions, the last one orthogonal.

        Used on products by Z: the Z direction is then a metric product
        factor, as certify assumes for levels with a zero cocycle.
        """
        g = np.zeros((n, n))
        g[:n - 1, :n - 1] = self.random_metric(n - 1)
        g[n - 1, n - 1] = float(self.rng.uniform(0.5, 2.0))
        return g

    def program_seed(self) -> int:
        return int(self.rng.integers(0, 2 ** 31 - 1))


# ---------------------------------------------------------------------------
# collapse: `nilflat curvature` in-process
# ---------------------------------------------------------------------------

def _collapse_op(inp: Inputs, name: str, alg: dict, g: Optional[np.ndarray],
                 metric_path: Optional[str], seed: Optional[int],
                 closed_form: Optional[str] = None, kept: Optional[str] = None) -> dict:
    n = alg["dim"]
    csv = inp.rel(f"{name}.csv")
    argv = ["curvature", alg["path"], "--out", csv]
    if metric_path is not None:
        argv += ["--metric", metric_path]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return {
        "id": f"collapse/{name}", "kind": "cli", "argv": argv,
        "outputs": [csv, inp.rel(f"{name}.summary.json")], "kept": kept,
        "check": {"type": "collapse", "dim": n, "brackets": alg["brackets"],
                  "metric": (np.eye(n) if g is None else g).tolist(),
                  "t_grid": T_GRID, "samples": SAMPLES,
                  "seed": 0 if seed is None else seed,
                  "closed_form": closed_form}}


def collapse(inp: Inputs) -> List[dict]:
    ops = []
    for name, closed in (("h3", "heisenberg"), ("h5", "heisenberg")):
        ops.append(_collapse_op(inp, f"{name}-I", inp.shipped(name), None, None,
                                inp.program_seed(), closed))
    tilted = inp.shipped_metric("metric3_tilted")
    ops.append(_collapse_op(inp, "h3-tilted", inp.shipped("h3"), tilted,
                            "data/metric3_tilted.json", inp.program_seed()))
    # ROADMAP F2: 2 ulp of rounding fail the bound check; default flags, seed 0.
    ops.append(_collapse_op(inp, "h3xZ-I", inp.shipped("h3_times_z"), None, None,
                            None, "h3xZ", kept="exit 3"))
    # Five sampling seeds on one mid-size input, with as many operations
    # below them as above: the median operation time falls in the middle of
    # the five, so it does not hinge on one seed's polish iterations.
    for rep in range(5):
        ops.append(_collapse_op(inp, f"n4-I-{rep}", inp.shipped("n4"), None, None,
                                inp.program_seed()))
    ops.append(_collapse_op(inp, "z3-I", inp.shipped("z3"), None, None,
                            inp.program_seed()))
    for name in ("h3", "n4"):
        for rep in range(2):
            tag = f"{name}-S-{rep}"
            g = inp.random_metric(inp.shipped(name)["dim"])
            ops.append(_collapse_op(inp, tag, inp.shipped(name), g, inp.metric(tag, g),
                                    inp.program_seed()))
    # The large inputs run twice, with independent metrics and seeds: how
    # long polish takes depends on both.
    large = (("fil6", filiform(6), True), ("free3", free2(3), True),
             ("fil8", filiform(8), False))
    for name, family, seeded in large:
        alg = inp.algebra(name, family)
        for rep in range(2):
            tag = f"{name}-{'S' if seeded else 'I'}-{rep}"
            g = inp.random_metric(alg["dim"]) if seeded else None
            ops.append(_collapse_op(inp, tag, alg, g,
                                    inp.metric(tag, g) if seeded else None,
                                    inp.program_seed()))
    return ops


# ---------------------------------------------------------------------------
# certify: peel_tower + certify_almost_flat through the library
# ---------------------------------------------------------------------------

def _certify_op(inp: Inputs, name: str, alg: dict, g: np.ndarray, eps: float,
                seed: int, kept: Optional[str] = None) -> dict:
    op_name = f"{name}-e{eps:g}"
    return {
        "id": f"certify/{op_name}", "kind": "certify", "lattice": alg["path"],
        "metric": inp.metric(op_name, g), "eps": eps, "seed": seed,
        "samples": SAMPLES, "kept": kept,
        "check": {"type": "certify", "dim": alg["dim"], "brackets": alg["brackets"],
                  "metric": g.tolist(), "eps": eps}}


def certify(inp: Inputs) -> List[dict]:
    algs = {"h3": inp.shipped("h3"), "n4": inp.shipped("n4"),
            "h7": inp.algebra("h7", heisenberg(3)),
            "fil6": inp.algebra("fil6", filiform(6)),
            "fil8": inp.algebra("fil8", filiform(8)),
            "free3": inp.algebra("free3", free2(3)),
            "free4": inp.algebra("free4", free2(4)),
            "h3xZ": inp.shipped("h3_times_z"),
            "fil4xZ": inp.algebra("fil4xZ", times_z(filiform(4))),
            "free3xZ": inp.algebra("free3xZ", times_z(free2(3)))}
    tilted = inp.shipped_metric("metric3_tilted")
    # Five sampling seeds on h7, with ten operations below them and ten above
    # (the kept failures count as slowest), put a cluster of like operations
    # at the median; the inputs whose time varies most run twice.
    plan = [("h3", "I", 1e-2), ("h3", "I", 1e-3), ("h3", "tilted", 1e-2),
            ("h3", "S", 1e-3), ("n4", "I", 1e-2), ("n4", "I", 1e-3),
            ("n4", "S", 1e-2), ("fil4xZ", "B", 1e-2)] + [("h7", "I", 1e-3)] * 5 + [
            ("fil6", "I", 1e-2), ("fil6", "S", 1e-2), ("fil6", "S", 1e-2),
            ("free3", "I", 1e-2), ("free3", "S", 1e-3), ("free4", "S", 1e-2),
            ("h3xZ", "B", 1e-2), ("fil4xZ", "B", 1e-3), ("free3xZ", "B", 1e-2),
            ("free3xZ", "B", 1e-2)]
    ops = []
    for index, (name, kind, eps) in enumerate(plan):
        n = algs[name]["dim"]
        if kind == "I":
            g = np.eye(n)
        elif kind == "tilted":
            g = tilted
        else:
            g = inp.random_metric(n) if kind == "S" else inp.block_metric(n)
        tag = f"{name}-{kind}-{index}"
        ops.append(_certify_op(inp, tag, algs[name], g, eps, inp.program_seed()))
    # Flat-level fault: the zero-cocycle level of h3×Z is coupled to [g, g].
    coupled = np.eye(4)
    coupled[2, 3] = coupled[3, 2] = 0.25
    ops.append(_certify_op(inp, "h3xZ-coupled", algs["h3xZ"], coupled, 1e-2, 0,
                           kept="BudgetNotMet"))
    # Sampling misses the sup on the graded metric of a deep collapse: the
    # reported sup_abs_K lies below |K| of a plane of the returned metric.
    ops.append(_certify_op(inp, "fil8-I", algs["fil8"], np.eye(8), 1e-3, 0,
                           kept="under-reported sup"))
    return ops


# ---------------------------------------------------------------------------
# exact-tower: validate, peel --out, extend --out, cocycles_cohomologous
# ---------------------------------------------------------------------------

def _random_form(inp: Inputs, m: int) -> Dict[Tuple[int, int], Fraction]:
    return {(i, j): Fraction(int(inp.rng.integers(-3, 4)))
            for i in range(1, m + 1) for j in range(i + 1, m + 1)}


def _cohomology_op(inp: Inputs, name: str, base: dict, w1, w2, expected: bool) -> dict:
    dim = base["dim"]
    paths = [inp.write(f"{name}.{tag}.json",
                       canonical_json({"dim": dim, "entries": _cocycle_entries(w)}))
             for tag, w in (("w1", w1), ("w2", w2))]
    return {"id": f"exact-tower/{name}-cohomologous", "kind": "cohomologous",
            "base": base["path"], "w1": paths[0], "w2": paths[1], "kept": None,
            "check": {"type": "cohomologous", "dim": dim, "brackets": base["brackets"],
                      "w1": {k: v for k, v in w1.items() if v},
                      "w2": {k: v for k, v in w2.items() if v},
                      "expected": expected}}


def exact_tower(inp: Inputs) -> List[dict]:
    ops = []
    inputs = [(f"fil{n}", filiform(n)) for n in (6, 11, 16)]
    inputs += [(f"free{r}", free2(r)) for r in (3, 4)]
    for name, (dim, br) in inputs:
        alg = inp.algebra(name, (dim, br))
        base = inp.algebra(f"{name}-base", (dim - 1, truncate(dim, br, dim - 1)))
        top = {(i, j): terms[dim] for (i, j), terms in br.items() if dim in terms}
        cocycle = inp.write(f"{name}-top.cocycle.json", canonical_json(
            {"dim": dim - 1, "entries": _cocycle_entries(top)}))
        tower = inp.rel(f"{name}.tower.json")
        extended = inp.rel(f"{name}.extended.json")
        ops.append({"id": f"exact-tower/{name}-validate", "kind": "cli",
                    "argv": ["validate", alg["path"]], "outputs": [], "kept": None,
                    "check": {"type": "validate", "path": alg["path"], "dim": dim,
                              "cls": alg["cls"]}})
        ops.append({"id": f"exact-tower/{name}-peel", "kind": "cli",
                    "argv": ["peel", alg["path"], "--out", tower],
                    "outputs": [tower], "kept": None,
                    "check": {"type": "peel", "dim": dim, "brackets": br}})
        ops.append({"id": f"exact-tower/{name}-extend", "kind": "cli",
                    "argv": ["extend", base["path"], cocycle, "--out", extended],
                    "outputs": [extended], "kept": None,
                    "check": {"type": "extend", "expected": alg["text"]}})
        lam = [int(v) for v in inp.rng.integers(-3, 4, size=dim - 1)]
        delta = coboundary(dim - 1, base["brackets"], lam)
        w2 = {key: top.get(key, 0) + delta.get(key, 0) for key in set(top) | set(delta)}
        ops.append(_cohomology_op(inp, name, base, top, w2, True))
    for m in (4, 8, 12):
        base = inp.algebra(f"z{m}", abelian(m))
        w1, w2 = _random_form(inp, m), _random_form(inp, m)
        if w1 == w2:
            w2[(1, 2)] += 1
        ops.append(_cohomology_op(inp, f"z{m}", base, w1, w2, False))
    return ops


BUILDERS = {"collapse": collapse, "certify": certify, "exact-tower": exact_tower}
