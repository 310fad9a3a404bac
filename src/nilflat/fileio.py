"""JSON file formats for lattices, towers, cocycles, and metrics.

All formats are plain JSON with exact integer numerators/denominators for
rational data and 1-based basis indices, matching the conventions of
`algebra` and `tower`.  Readers are lenient about key order and unknown
keys but strict about types and index ranges, raising `SchemaError` with a
JSON-path-style location for every structural problem.  Writers emit one
canonical byte stream (sorted keys, two-space indent, trailing newline) so
that file-level round-trips are byte-identical.

Mathematical validation (Jacobi, closedness, positive definiteness) is not
done here: loaders return well-formed objects and leave semantic checks to
the constructors and validators that consume them.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Tuple, Union

from . import catalog
from .algebra import NilAlgebra
from .errors import SchemaError
from .tower import (BundleTower, CentralCocycle, NilLattice, TowerStep,
                    extend_by_cocycle)

if TYPE_CHECKING:
    import numpy as np  # imported by the metric readers and writers only

__all__ = [
    "canonical_json",
    "read_json",
    "write_text",
    "algebra_to_obj", "algebra_from_obj", "load_algebra", "dump_algebra",
    "lattice_from_obj", "load_lattice",
    "cocycle_to_obj", "cocycle_from_obj", "load_cocycle", "dump_cocycle",
    "tower_to_obj", "tower_from_obj", "load_tower", "dump_tower",
    "metric_to_obj", "metric_from_obj", "load_metric", "dump_metric",
]

PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def canonical_json(obj: Any) -> str:
    """The one true formatting: sorted keys, 2-space indent, final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def read_json(path: PathLike) -> Any:
    """Load a JSON document, turning undecodable input into SchemaError.

    Undecodable means a syntax error, bytes that are not UTF-8, an integer
    past the interpreter's digit limit (all `ValueError`s) or nesting too
    deep for the decoder (`RecursionError`). The re-raised message keeps the
    decoder's diagnostic and prefixes the file name so CLI users see where
    the problem is.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc


def write_text(path: PathLike, text: str) -> None:
    """Write text bytes exactly as given (UTF-8, no newline translation)."""
    Path(path).write_text(text, encoding="utf-8", newline="")


# ---------------------------------------------------------------------------
# schema helpers
# ---------------------------------------------------------------------------

def _expect_dict(obj: Any, where: str) -> Dict[str, Any]:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object, got {type(obj).__name__}")
    return obj


def _expect_list(obj: Any, where: str) -> List[Any]:
    if not isinstance(obj, list):
        raise SchemaError(f"{where}: expected an array, got {type(obj).__name__}")
    return obj


def _get(obj: Dict[str, Any], key: str, where: str) -> Any:
    if key not in obj:
        raise SchemaError(f"{where}: missing required key \"{key}\"")
    return obj[key]


def _expect_int(obj: Any, where: str) -> int:
    # bool is a subclass of int but `true` is never a valid index/coefficient
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise SchemaError(f"{where}: expected an exact integer, got {obj!r}")
    return obj


def _expect_number(obj: Any, where: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {obj!r}")
    try:
        return float(obj)
    except OverflowError:  # an integer past float64 overflows as 1e400 does
        return math.inf if obj > 0 else -math.inf


def _fraction_from(obj: Dict[str, Any], where: str) -> Fraction:
    num = _expect_int(_get(obj, "num", where), f"{where}.num")
    den = _expect_int(_get(obj, "den", where), f"{where}.den")
    if den == 0:
        raise SchemaError(f"{where}.den: denominator must be nonzero")
    return Fraction(num) if den == 1 else Fraction(num, den)  # an integer needs no gcd


# ---------------------------------------------------------------------------
# algebra / lattice files
# ---------------------------------------------------------------------------

def algebra_to_obj(algebra: NilAlgebra) -> Dict[str, Any]:
    """Sparse upper-triangular dictionary form of the structure constants."""
    brackets = [{"i": i + 1, "j": j + 1,
                 "terms": [{"k": k + 1, "num": c.numerator, "den": c.denominator}
                           for k, c in entry.items()]}
                for (i, j), entry in algebra.brackets.items()]
    return {"dim": algebra.dim, "class": algebra.declared_class,
            "brackets": brackets}


def algebra_from_obj(obj: Any, where: str = "algebra") -> NilAlgebra:
    """Parse the algebra format; ranges and types checked, math deferred."""
    top = _expect_dict(obj, where)
    dim = _expect_int(_get(top, "dim", where), f"{where}.dim")
    if dim < 0:
        raise SchemaError(f"{where}.dim: must be nonnegative, got {dim}")
    declared = _expect_int(_get(top, "class", where), f"{where}.class")
    # 0-based table, each coefficient one Fraction (a repeated k adds up)
    brackets: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for pos, item in enumerate(_expect_list(_get(top, "brackets", where),
                                            f"{where}.brackets")):
        loc = f"{where}.brackets[{pos}]"
        entry = _expect_dict(item, loc)
        i = _expect_int(_get(entry, "i", loc), f"{loc}.i")
        j = _expect_int(_get(entry, "j", loc), f"{loc}.j")
        if not (1 <= i < j <= dim):
            raise SchemaError(
                f"{loc}: bracket pair ({i},{j}) out of range; need 1 <= i < j <= {dim}")
        target = brackets.setdefault((i - 1, j - 1), {})
        for tpos, term in enumerate(_expect_list(_get(entry, "terms", loc),
                                                 f"{loc}.terms")):
            tloc = f"{loc}.terms[{tpos}]"
            tdict = _expect_dict(term, tloc)
            k = _expect_int(_get(tdict, "k", tloc), f"{tloc}.k")
            if not (1 <= k <= dim):
                raise SchemaError(
                    f"{tloc}.k: component {k} out of range for dim {dim}")
            value = _fraction_from(tdict, tloc)
            target[k - 1] = target[k - 1] + value if k - 1 in target else value
    return NilAlgebra(dim=dim, declared_class=declared, brackets=brackets)


def load_algebra(path: PathLike) -> NilAlgebra:
    return algebra_from_obj(read_json(path), where=str(path))


def dump_algebra(algebra: NilAlgebra) -> str:
    return canonical_json(algebra_to_obj(algebra))


def lattice_from_obj(obj: Any, where: str = "lattice") -> NilLattice:
    """Parse an algebra file and wrap it as a lattice (validates math)."""
    return NilLattice(algebra=algebra_from_obj(obj, where=where))


def load_lattice(path: PathLike) -> NilLattice:
    return lattice_from_obj(read_json(path), where=str(path))


# ---------------------------------------------------------------------------
# standalone cocycle files
# ---------------------------------------------------------------------------

def cocycle_to_obj(cocycle: CentralCocycle) -> Dict[str, Any]:
    entries = [{"i": i, "j": j, "num": v.numerator, "den": v.denominator}
               for i, j, v in cocycle.upper_entries()]
    return {"dim": cocycle.dim, "entries": entries}


def cocycle_from_obj(obj: Any, where: str = "cocycle") -> CentralCocycle:
    top = _expect_dict(obj, where)
    dim = _expect_int(_get(top, "dim", where), f"{where}.dim")
    if dim < 0:
        raise SchemaError(f"{where}.dim: must be nonnegative, got {dim}")
    entries: Dict[Tuple[int, int], Fraction] = {}
    for pos, item in enumerate(_expect_list(_get(top, "entries", where),
                                            f"{where}.entries")):
        loc = f"{where}.entries[{pos}]"
        entry = _expect_dict(item, loc)
        i = _expect_int(_get(entry, "i", loc), f"{loc}.i")
        j = _expect_int(_get(entry, "j", loc), f"{loc}.j")
        if not (1 <= i < j <= dim):
            raise SchemaError(
                f"{loc}: entry pair ({i},{j}) out of range; need 1 <= i < j <= {dim}")
        value = _fraction_from(entry, loc)
        pair = (i - 1, j - 1)
        entries[pair] = entries[pair] + value if pair in entries else value
    return CentralCocycle(dim=dim, entries=entries)


def load_cocycle(path: PathLike) -> CentralCocycle:
    return cocycle_from_obj(read_json(path), where=str(path))


def dump_cocycle(cocycle: CentralCocycle) -> str:
    return canonical_json(cocycle_to_obj(cocycle))


# ---------------------------------------------------------------------------
# tower files
# ---------------------------------------------------------------------------

def tower_to_obj(tower: BundleTower) -> Dict[str, Any]:
    """Top-down list of steps, each its base dimension plus Euler cocycle."""
    return {"steps": [{"base_dim": step.base.dim,
                       "cocycle": cocycle_to_obj(step.cocycle)["entries"]}
                      for step in tower.steps]}


def tower_from_obj(obj: Any, where: str = "tower") -> BundleTower:
    """Rebuild a tower bottom-up from the point via central extensions.

    The file stores only (base_dim, cocycle) per step; totals and bases are
    reconstructed by extending, so every loaded tower is re-validated
    (closed/integral; skew by construction) step by step.
    """
    top = _expect_dict(obj, where)
    raw_steps = _expect_list(_get(top, "steps", where), f"{where}.steps")
    parsed: List[CentralCocycle] = []
    for pos, item in enumerate(raw_steps):
        loc = f"{where}.steps[{pos}]"
        entry = _expect_dict(item, loc)
        base_dim = _expect_int(_get(entry, "base_dim", loc), f"{loc}.base_dim")
        expected = len(raw_steps) - 1 - pos
        if base_dim != expected:
            raise SchemaError(
                f"{loc}.base_dim: expected {expected} for a top-down tower of "
                f"{len(raw_steps)} steps, got {base_dim}")
        cocycle = cocycle_from_obj(
            {"dim": base_dim, "entries": _get(entry, "cocycle", loc)},
            where=f"{loc}.cocycle")
        parsed.append(cocycle)

    current = NilLattice(algebra=catalog.point())
    built: List[TowerStep] = []
    for cocycle in reversed(parsed):
        total = extend_by_cocycle(current, cocycle)
        built.append(TowerStep(total=total, base=current, cocycle=cocycle))
        current = total
    return BundleTower(steps=tuple(reversed(built)))


def load_tower(path: PathLike) -> BundleTower:
    return tower_from_obj(read_json(path), where=str(path))


def dump_tower(tower: BundleTower) -> str:
    return canonical_json(tower_to_obj(tower))


# ---------------------------------------------------------------------------
# metric files
# ---------------------------------------------------------------------------

def metric_to_obj(matrix: np.ndarray) -> Dict[str, Any]:
    """Row-major dense entries; floats survive the round-trip exactly."""
    import numpy as np
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise SchemaError(f"metric must be a square matrix, got shape {arr.shape}")
    return {"dim": int(arr.shape[0]),
            "entries": [float(x) for x in arr.reshape(-1)]}


def metric_from_obj(obj: Any, where: str = "metric") -> np.ndarray:
    import numpy as np
    top = _expect_dict(obj, where)
    dim = _expect_int(_get(top, "dim", where), f"{where}.dim")
    if dim < 1:
        raise SchemaError(f"{where}.dim: must be positive, got {dim}")
    entries = _expect_list(_get(top, "entries", where), f"{where}.entries")
    if len(entries) != dim * dim:
        raise SchemaError(
            f"{where}.entries: expected {dim * dim} row-major entries for "
            f"dim {dim}, got {len(entries)}")
    values = [_expect_number(x, f"{where}.entries[{pos}]")
              for pos, x in enumerate(entries)]
    return np.array(values, dtype=float).reshape(dim, dim)


def load_metric(path: PathLike) -> np.ndarray:
    return metric_from_obj(read_json(path), where=str(path))


def dump_metric(matrix: np.ndarray) -> str:
    return canonical_json(metric_to_obj(matrix))
