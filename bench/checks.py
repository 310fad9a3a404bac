"""Independent checks of nilflat's outputs.

Nothing here imports nilflat.  Lie algebras are plain bracket tables
``{(i, j): {k: Fraction}}`` (1-based, i < j), read from the same JSON files
the program reads, and every expected value is computed from them with this
module's own code:

* curvature: a Cholesky (LDLᵀ) frame, the Koszul formula in that frame, and
  the curvature operator on Λ² (see `reversed_ldl_frame`).  In an orthonormal frame K(σ) is the
  Rayleigh quotient of the curvature operator at the unit bivector of σ, so
  every true sup|K| lies between max|K| over the frame's coordinate planes
  and the operator's spectral radius ρ;
* towers: the peel of an adapted basis read straight off the brackets, the
  coboundary δλ(x, y) = −λ([x, y]) in exact integer arithmetic.

Each ``check_*`` function returns a list of error strings; empty means the
output passed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

Brackets = Dict[Tuple[int, int], Dict[int, Fraction]]

# Relative slack for comparisons with the bracket.  Above, the bracket is
# computed exactly up to the final normalisation, so 1e-8 is rounding.  Below,
# the program's sup is a polished sample: its alternating maximisation stops
# after 50 iterations and was seen 1.05e-8 short of a coordinate plane's |K|
# (free 2-step(3), identity, eps 0.01, seed 101), so the lower side allows
# 1e-6, far below the misses it is there to catch (a factor of two or more).
REL_TOL = 1e-8
LOWER_REL_TOL = 1e-6
ABS_TOL = 1e-13


# ---------------------------------------------------------------------------
# algebras as bracket tables
# ---------------------------------------------------------------------------

def canonical_json(obj) -> str:
    """Sorted keys, two-space indent, final newline (the repo's file style)."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def brackets_from_obj(obj) -> Tuple[int, Brackets]:
    """(dim, brackets) from the algebra JSON format."""
    out: Brackets = {}
    for item in obj["brackets"]:
        terms = out.setdefault((item["i"], item["j"]), {})
        for term in item["terms"]:
            k = term["k"]
            terms[k] = terms.get(k, Fraction(0)) + Fraction(term["num"], term["den"])
    return obj["dim"], {key: {k: v for k, v in terms.items() if v}
                        for key, terms in out.items()}


def algebra_obj(dim: int, cls: int, brackets: Brackets) -> dict:
    items = []
    for (i, j) in sorted(brackets):
        terms = [{"k": k, "num": v.numerator, "den": v.denominator}
                 for k, v in sorted(brackets[(i, j)].items()) if v]
        if terms:
            items.append({"i": i, "j": j, "terms": terms})
    return {"dim": dim, "class": cls, "brackets": items}


def nilpotency_class(dim: int, brackets: Brackets) -> int:
    """Length of the lower central series, by exact rank computations."""
    if dim == 0:
        return 0
    current = [tuple(Fraction(int(a == b)) for a in range(dim)) for b in range(dim)]
    cls = 0
    while current:
        cls += 1
        products = []
        for i in range(1, dim + 1):
            for v in current:
                w = [Fraction(0)] * dim
                for j in range(1, dim + 1):
                    if v[j - 1] == 0 or i == j:
                        continue
                    key, sign = ((i, j), 1) if i < j else ((j, i), -1)
                    for k, c in brackets.get(key, {}).items():
                        w[k - 1] += sign * v[j - 1] * c
                if any(w):
                    products.append(w)
        current = _row_basis(products, dim)
    return cls


def _row_basis(rows: List[List[Fraction]], dim: int) -> List[Tuple[Fraction, ...]]:
    basis: List[List[Fraction]] = []
    pivots: List[int] = []
    for row in rows:
        r = list(row)
        for b, p in zip(basis, pivots):
            if r[p]:
                f = r[p] / b[p]
                r = [x - f * y for x, y in zip(r, b)]
        nz = next((c for c in range(dim) if r[c]), None)
        if nz is not None:
            basis.append(r)
            pivots.append(nz)
    return [tuple(r) for r in basis]


def truncate(dim: int, brackets: Brackets, m: int) -> Brackets:
    """Brackets of the quotient by span(e_{m+1}, ..., e_dim)."""
    out: Brackets = {}
    for (i, j), terms in brackets.items():
        if j <= m:
            kept = {k: v for k, v in terms.items() if k <= m}
            if kept:
                out[(i, j)] = kept
    return out


def structure_tensor(dim: int, brackets: Brackets) -> np.ndarray:
    """Dense C[i, j, k] (0-based) with C[i, j] = −C[j, i]."""
    c = np.zeros((dim, dim, dim))
    for (i, j), terms in brackets.items():
        for k, v in terms.items():
            c[i - 1, j - 1, k - 1] = float(v)
            c[j - 1, i - 1, k - 1] = -float(v)
    return c


# ---------------------------------------------------------------------------
# curvature in a Cholesky (LDLᵀ) frame, exactly
# ---------------------------------------------------------------------------

def reversed_ldl_frame(g: np.ndarray) -> Tuple[list, list, list]:
    """(H, H⁻¹, D): g-orthogonal frame H with |H[:, a]|² = D[a], H[:, 0] ∝ e_n.

    Exact LDLᵀ of g (its float entries are rationals) with the coordinates
    reversed, so that e_n comes first: column 0 is along e_n and the other
    columns are g-orthogonal to it (horizontal lifts of an orthogonal frame
    of the quotient by e_n).  Everything is an exact Fraction.
    """
    n = g.shape[0]
    rev = [[Fraction(float(g[n - 1 - i, n - 1 - j])) for j in range(n)] for i in range(n)]
    unit = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    diag: List[Fraction] = []
    for j in range(n):
        dj = rev[j][j] - sum(unit[j][k] ** 2 * diag[k] for k in range(j))
        if dj <= 0:
            raise np.linalg.LinAlgError("metric is not positive definite")
        diag.append(dj)
        for i in range(j + 1, n):
            unit[i][j] = (rev[i][j] - sum(unit[i][k] * unit[j][k] * diag[k]
                                          for k in range(j))) / dj
    # inverse of the unit upper triangular Lᵀ, column by column
    inv_t = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        for i in range(col - 1, -1, -1):
            inv_t[i][col] = -sum(unit[k][i] * inv_t[k][col] for k in range(i + 1, col + 1))
    frame = [inv_t[n - 1 - i] for i in range(n)]
    frame_inv = [[unit[n - 1 - k][a] for k in range(n)] for a in range(n)]
    return frame, frame_inv, diag


def frame_curvature_bracket(c: np.ndarray, frame: list, frame_inv: list,
                            sq_lengths: list) -> Tuple[float, float]:
    """(max |K| over the frame's coordinate planes, ρ of the curvature operator).

    The frame columns h_a must be orthogonal for the metric, with squared
    lengths D_a.  Koszul for left-invariant fields, in exact arithmetic:
    ⟨∇_a h_b, h_d⟩ = ½(c_abd D_d − c_bda D_a + c_dab D_b) with
    [h_a, h_b] = Σ_d c_abd h_d, and R(h_a, h_b) = ∇_a∇_b − ∇_b∇_a − ∇_[a,b].
    Only the final normalisation by the lengths is done in floating point,
    so strongly graded (collapsed) metrics lose no digits to cancellation.
    """
    n = len(sq_lengths)
    if n < 2:
        return 0.0, 0.0
    terms = [(i, j, k, Fraction(float(c[i, j, k]))) for i, j, k in zip(*np.nonzero(c))]
    ch = {}
    for a in range(n):
        for b in range(n):
            coord = [Fraction(0)] * c.shape[2]
            for i, j, k, v in terms:
                if frame[i][a] and frame[j][b]:
                    coord[k] += frame[i][a] * frame[j][b] * v
            for d in range(n):
                v = sum(frame_inv[d][k] * coord[k] for k in range(len(coord)) if coord[k])
                if v:
                    ch[a, b, d] = v
    zero = Fraction(0)
    # gamma[a][b] = coordinates of ∇_a h_b in the frame, as {d: value}
    gamma = [[{} for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for d in range(n):
                v = (ch.get((a, b, d), zero) * sq_lengths[d] - ch.get((b, d, a), zero) * sq_lengths[a]
                     + ch.get((d, a, b), zero) * sq_lengths[b])
                if v:
                    gamma[a][b][d] = v / (2 * sq_lengths[d])

    def nabla(a: int, vec: Dict[int, Fraction]) -> Dict[int, Fraction]:
        out: Dict[int, Fraction] = {}
        for p, x in vec.items():
            for q, y in gamma[a][p].items():
                out[q] = out.get(q, zero) + x * y
        return out

    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    index = {pair: i for i, pair in enumerate(pairs)}
    m = np.zeros((len(pairs), len(pairs)))
    scale = np.sqrt(np.array([float(x) for x in sq_lengths]))
    for (a, b) in pairs:
        bracket = {p: ch[a, b, p] for p in range(n) if (a, b, p) in ch}
        for d in range(n):
            r = nabla(a, gamma[b][d])
            for q, y in nabla(b, gamma[a][d]).items():
                r[q] = r.get(q, zero) - y
            for p, x in bracket.items():
                for q, y in gamma[p][d].items():
                    r[q] = r.get(q, zero) - x * y
            # M[(ab), (cd)] = ⟨R(f_a, f_b) f_d, f_c⟩ for orthonormal f = h / |h|
            for c_, v in r.items():
                if v and c_ != d:
                    pair = (c_, d) if c_ < d else (d, c_)
                    sign = 1.0 if c_ < d else -1.0
                    m[index[(a, b)], index[pair]] = sign * float(v * sq_lengths[c_]) / (
                        scale[a] * scale[b] * scale[c_] * scale[d])
    m = 0.5 * (m + m.T)
    lower = float(np.max(np.abs(np.diag(m))))
    rho = float(np.max(np.abs(np.linalg.eigvalsh(m))))
    return lower, rho


def metric_bracket(c: np.ndarray, g: np.ndarray) -> Tuple[float, float]:
    return frame_curvature_bracket(c, *reversed_ldl_frame(g))


def collapse_bracket(c: np.ndarray, g: np.ndarray, t: float) -> Tuple[float, float]:
    """Bracket for G^t: the e_n fiber scaled by t, its complement kept.

    e_n is central, so G^t keeps the g-orthogonal complement of e_n and
    multiplies the length² of e_n by t: the frame of g stays G^t-orthogonal
    and only the length of column 0 changes.
    """
    frame, frame_inv, sq_lengths = reversed_ldl_frame(g)
    sq_lengths[0] *= Fraction(t)
    return frame_curvature_bracket(c, frame, frame_inv, sq_lengths)


def base_bracket(c: np.ndarray, g: np.ndarray) -> Tuple[float, float]:
    """Bracket for the quotient by e_n with the submersion (Schur) metric."""
    n = g.shape[0]
    frame, frame_inv, sq_lengths = reversed_ldl_frame(g)
    # columns 1.. are horizontal lifts; in quotient coordinates drop e_n,
    # and e_k (k < n) has coordinates frame_inv[1:, k] in the lifts
    base = [row[1:] for row in frame[:n - 1]]
    base_inv = [row[:n - 1] for row in frame_inv[1:]]
    return frame_curvature_bracket(c[:n - 1, :n - 1, :n - 1], base, base_inv, sq_lengths[1:])


def _within(lo: float, hi: float, rel: float = REL_TOL) -> bool:
    return lo <= hi * (1.0 + rel) + ABS_TOL


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + ABS_TOL


# ---------------------------------------------------------------------------
# collapse: `nilflat curvature`
# ---------------------------------------------------------------------------

def parse_curvature_csv(text: str) -> List[Dict[str, float]]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def check_collapse(spec: dict, csv_text: str, summary_text: str) -> List[str]:
    """Check a curvature CSV and its summary sidecar against spec.

    spec: dim, brackets (algebra), metric (n×n list), t_grid, seed, samples,
    closed_form (None, "heisenberg" or "h3xZ").
    """
    errors: List[str] = []
    dim, brackets = spec["dim"], spec["brackets"]
    c = structure_tensor(dim, brackets)
    g = np.array(spec["metric"], dtype=np.float64)
    rows = parse_curvature_csv(csv_text)
    grid = spec["t_grid"]
    if len(rows) != len(grid):
        return [f"{len(rows)} CSV rows, expected {len(grid)}"]
    base_lo, base_hi = base_bracket(c, g)
    fiber = math.sqrt(float(g[dim - 1, dim - 1]))
    for row, t in zip(rows, grid):
        where = f"t={t!r}"
        if not _close(row["t"], t):
            errors.append(f"{where}: grid value {row['t']!r}")
        sup, bound = row["sup_abs_K"], row["bound"]
        if not sup <= bound:
            errors.append(f"{where}: sup_abs_K {sup!r} > bound {bound!r}")
        lo, hi = collapse_bracket(c, g, t)
        if not _within(lo, sup, LOWER_REL_TOL):
            errors.append(f"{where}: sup_abs_K {sup!r} below coordinate-plane max {lo!r}")
        if not _within(sup, hi):
            errors.append(f"{where}: sup_abs_K {sup!r} above spectral radius {hi!r}")
        base = row["base_sup_K"]
        if not _within(base_lo, base, LOWER_REL_TOL) or not _within(base, base_hi):
            errors.append(f"{where}: base_sup_K {base!r} outside [{base_lo!r}, {base_hi!r}]")
        diam = 0.5 * fiber * math.sqrt(t)
        if not _close(row["diam_bound"], diam):
            errors.append(f"{where}: diam_bound {row['diam_bound']!r}, expected {diam!r}")
        exact = {"heisenberg": 0.75 * t, "h3xZ": 0.75}.get(spec.get("closed_form"))
        if exact is not None and not _close(sup, exact, 1e-9):
            errors.append(f"{where}: sup_abs_K {sup!r}, closed form {exact!r}")
    summary = json.loads(summary_text)
    report, config = summary["report"], summary["config"]
    if report["sample_count"] != spec["samples"] or report["seed"] != spec["seed"]:
        errors.append("summary sample_count/seed do not match the run")
    if config["seed"] != spec["seed"] or config["samples"] != spec["samples"]:
        errors.append("summary config does not match the run")
    if not report["C"] >= 0.0:
        errors.append(f"negative constant C {report['C']!r}")
    return errors


# ---------------------------------------------------------------------------
# certify: certify_almost_flat
# ---------------------------------------------------------------------------

def curved_levels(dim: int, brackets: Brackets) -> List[int]:
    """Dims k whose peel cocycle is nonzero: some [e_i, e_j], j < k, hits e_k."""
    return sorted({k for (i, j), terms in brackets.items()
                   for k, v in terms.items() if v and j < k}, reverse=True)


def check_certify(spec: dict, report: dict) -> List[str]:
    """Check a certificate report (summary fields + metric_matrix).

    spec: dim, brackets, metric (seed metric, n×n list), eps.
    """
    errors: List[str] = []
    dim, brackets, eps = spec["dim"], spec["brackets"], spec["eps"]
    seed = np.array(spec["metric"], dtype=np.float64)
    sup = report["sup_abs_K"]
    if not sup <= eps:
        errors.append(f"sup_abs_K {sup!r} > eps {eps!r}")
    if report["level_dims"] != list(range(dim, 0, -1)):
        errors.append(f"level_dims {report['level_dims']}")
    curved = curved_levels(dim, brackets)
    if report["curved_levels"] != curved:
        errors.append(f"curved_levels {report['curved_levels']}, expected {curved}")
    ts = report["ts"]
    if len(ts) != dim:
        return errors + [f"{len(ts)} collapse parameters for dim {dim}"]
    for level, t in zip(range(dim, 0, -1), ts):
        if level in curved and not 0.0 < t <= 1.0:
            errors.append(f"level {level}: t = {t!r} outside (0, 1]")
        if level not in curved and t != 1.0:
            errors.append(f"flat level {level}: t = {t!r}, expected 1")
    diam = sum(0.5 * math.sqrt(float(seed[k - 1, k - 1])) * math.sqrt(t)
               for k, t in zip(range(dim, 0, -1), ts))
    if not _close(report["diam_bound"], diam):
        errors.append(f"diam_bound {report['diam_bound']!r}, expected {diam!r}")
    g = np.array(report["metric_matrix"], dtype=np.float64)
    if g.shape != (dim, dim):
        return errors + [f"metric_matrix has shape {g.shape}"]
    scale = np.sqrt(np.abs(np.outer(np.diag(g), np.diag(g))))
    if np.any(np.abs(g - g.T) > 1e-12 * scale):
        return errors + ["metric_matrix is not symmetric"]
    g = 0.5 * (g + g.T)
    try:
        lo, hi = metric_bracket(structure_tensor(dim, brackets), g)
    except np.linalg.LinAlgError:
        return errors + ["metric_matrix is not positive definite"]
    if not _within(lo, sup, LOWER_REL_TOL):
        errors.append(f"sup_abs_K {sup!r} below coordinate-plane max {lo!r}")
    if not _within(sup, hi):
        errors.append(f"sup_abs_K {sup!r} above spectral radius {hi!r}")
    return errors


# ---------------------------------------------------------------------------
# exact tower: validate, peel, extend, cocycles_cohomologous
# ---------------------------------------------------------------------------

def tower_obj(dim: int, brackets: Brackets) -> dict:
    """The peel of an adapted basis: step m's cocycle is the e_{m+1} part."""
    steps = []
    for m in range(dim - 1, -1, -1):
        entries = []
        for (i, j) in sorted(brackets):
            v = brackets[(i, j)].get(m + 1, Fraction(0))
            if j <= m and v:
                entries.append({"i": i, "j": j, "num": v.numerator,
                                "den": v.denominator})
        steps.append({"base_dim": m, "cocycle": entries})
    return {"steps": steps}


def check_validate(spec: dict, rc: int, stdout: str) -> List[str]:
    """spec: path, dim, cls."""
    if rc != 0:
        return [f"exit code {rc}"]
    lines = stdout.splitlines()
    errors = [f"missing '{name}: ok'" for name in
              ("jacobi", "class", "adapted", "integer_constants")
              if f"{name}: ok" not in lines]
    if spec["cls"] <= 2 and "lattice_closed: ok" not in lines:
        errors.append("class <= 2 but lattice_closed is not ok")
    if not any(line.startswith("lattice_closed: ") for line in lines):
        errors.append("no lattice_closed line")
    last = f"valid: {spec['path']} (dim {spec['dim']}, class {spec['cls']})"
    if not lines or lines[-1] != last:
        errors.append(f"last line {lines[-1] if lines else ''!r}, expected {last!r}")
    return errors


def check_peel(spec: dict, tower_text: str) -> List[str]:
    """spec: dim, brackets."""
    expected = tower_obj(spec["dim"], spec["brackets"])
    if json.loads(tower_text) != expected:
        return ["peeled tower differs from the tower read off the brackets"]
    if tower_text != canonical_json(expected):
        return ["peeled tower is not in canonical form"]
    return []


def check_extend(spec: dict, out_text: str) -> List[str]:
    """spec: expected (the input file's text)."""
    if out_text != spec["expected"]:
        return ["extended algebra does not reproduce the input bytes"]
    return []


def coboundary(dim: int, brackets: Brackets, lam: Sequence[int]) -> Dict[Tuple[int, int], Fraction]:
    """δλ(e_i, e_j) = −λ([e_i, e_j]) for 1-based i < j, nonzero entries only."""
    out = {}
    for (i, j), terms in brackets.items():
        v = -sum((lam[k - 1] * c for k, c in terms.items()), Fraction(0))
        if v:
            out[(i, j)] = v
    return out


def check_cohomologous(spec: dict, verdict: dict) -> List[str]:
    """spec: dim, brackets (base), w1, w2 ({(i, j): Fraction}), expected."""
    if verdict["cohomologous"] != spec["expected"]:
        return [f"cohomologous = {verdict['cohomologous']}, expected {spec['expected']}"]
    if not spec["expected"]:
        return []
    if verdict["sign"] != 1:
        return [f"sign {verdict['sign']}, expected +1"]
    lam = verdict["witness"]
    if len(lam) != spec["dim"] or any(not isinstance(v, int) for v in lam):
        return ["witness is not an integer 1-cochain on the base"]
    delta = coboundary(spec["dim"], spec["brackets"], lam)
    w1, w2 = spec["w1"], spec["w2"]
    for key in set(w1) | set(w2) | set(delta):
        if delta.get(key, 0) != w1.get(key, 0) - w2.get(key, 0):
            return [f"witness fails at e{key[0]}∧e{key[1]}: δλ' != ω1 − ω2"]
    return []
