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
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Tuple, Union

from .algebra import NilAlgebra
from .errors import SchemaError
from .tower import BundleTower, CentralCocycle, NilLattice, _tower_from_cocycles

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

_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


# scalars of exactly these types, written as `json` writes them
_SCALAR_TEXT: Dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii, int: int.__repr__, float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__}


def canonical_json(obj: Any) -> str:
    """The one true formatting: sorted keys, 2-space indent, final newline.

    The bytes are those of `json.dumps(obj, indent=2, sort_keys=True)` plus
    a newline, written here directly: `json` uses its C encoder only without
    an indent. Accepted are dicts with str keys, lists, tuples, str, int,
    float (NaN and ±inf as `json` writes them), bool and None, and their
    subclasses; a key that is not a str, or any other type, raises
    TypeError.
    """
    out: List[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(obj: Any, newline: str, out: List[str]) -> None:
    """Append the canonical text of obj; `newline` is "\\n" plus its indent."""
    text = _SCALAR_TEXT.get(type(obj))
    if text is not None:
        out.append(text(obj))
    elif isinstance(obj, (dict, list, tuple)):
        is_dict = isinstance(obj, dict)
        if not obj:
            out.append("{}" if is_dict else "[]")
            return
        items = obj
        if is_dict:
            try:
                items = sorted(obj)
            except TypeError:  # mixed key types: the loop names the first not str
                items = [key for key in obj if not isinstance(key, str)] or sorted(obj)
        inner = newline + "  "
        sep, comma = ("{" if is_dict else "[") + inner, "," + inner
        for item in items:
            out.append(sep)
            if is_dict:  # the item is a key: write it, then go on with its value
                if not isinstance(item, str):
                    raise TypeError(f"keys must be str, not {type(item).__name__}")
                out.append(encode_basestring_ascii(item))
                out.append(": ")
                item = obj[item]
            text = _SCALAR_TEXT.get(type(item))
            if text is None:
                _write(item, inner, out)
            else:
                out.append(text(item))
            sep = comma
        out.append(newline + ("}" if is_dict else "]"))
    else:  # a subclass of a scalar type (bool has none) is written as its base
        base = next((t for t in (str, int, float) if isinstance(obj, t)), None)
        if base is None:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        out.append(_SCALAR_TEXT[base](obj))


def read_json(path: PathLike) -> Any:
    """Load a JSON document, turning undecodable input into SchemaError.

    Undecodable means a syntax error, bytes that are not UTF-8, an integer
    past the interpreter's digit limit (all `ValueError`s) or nesting too
    deep for the decoder (`RecursionError`). The re-raised message keeps the
    decoder's diagnostic and prefixes the file name so CLI users see where
    the problem is.
    """
    try:
        with open(path, encoding="utf-8") as f:
            return json.loads(f.read())
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc


def write_text(path: PathLike, text: str) -> None:
    """Write text bytes exactly as given (UTF-8, no newline translation)."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)


# ---------------------------------------------------------------------------
# schema helpers
# ---------------------------------------------------------------------------

# A field is tested once, in place. Its JSON-path location is spelled out
# only to raise: `where` names the document and `at` the steps below it, a
# str a key suffix (".entries") and an int an array index.
_Steps = Tuple[Union[str, int], ...]
_MISSING = object()


def _at(where: str, at: _Steps) -> str:
    return where + "".join(f"[{step}]" if type(step) is int else step for step in at)


def _field_error(value: Any, key: str, where: str, at: _Steps, expected: str,
                 ) -> SchemaError:
    """The error for obj[key], `value` (_MISSING if absent), that is not
    `expected`; obj, a dict, is at `where` + `at`."""
    if value is _MISSING:
        return SchemaError(f"{_at(where, at)}: missing required key \"{key}\"")
    return SchemaError(f"{_at(where, at)}.{key}: expected {expected}")


def _number_at(obj: Any, where: str, at: _Steps) -> float:
    """obj, a number at `where` + `at`, as a float."""
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise SchemaError(f"{_at(where, at)}: expected a number, got {obj!r}")
    try:
        return float(obj)
    except OverflowError:  # an integer past float64 overflows as 1e400 does
        return math.inf if obj > 0 else -math.inf


def _dict_at(obj: Any, where: str, at: _Steps = ()) -> Dict[str, Any]:
    if isinstance(obj, dict):
        return obj
    raise SchemaError(f"{_at(where, at)}: expected an object, got {type(obj).__name__}")


def _list_at(obj: Dict[str, Any], key: str, where: str, at: _Steps = ()) -> List[Any]:
    """obj[key], an array; obj, a dict, is at `where` + `at`."""
    value = obj.get(key, _MISSING)
    if isinstance(value, list):
        return value
    raise _field_error(value, key, where, at, f"an array, got {type(value).__name__}")


def _int_at(obj: Dict[str, Any], key: str, where: str, at: _Steps = ()) -> int:
    """obj[key], an exact integer; obj, a dict, is at `where` + `at`."""
    value = obj.get(key, _MISSING)
    # bool is a subclass of int but `true` is never a valid index/coefficient
    if type(value) is int or (isinstance(value, int) and not isinstance(value, bool)):
        return value
    raise _field_error(value, key, where, at, f"an exact integer, got {value!r}")


def _fraction_at(obj: Dict[str, Any], where: str, at: _Steps) -> Fraction:
    """The value num/den of obj, a dict at `where` + `at`."""
    num = _int_at(obj, "num", where, at)
    den = _int_at(obj, "den", where, at)
    if den == 1:
        return Fraction(num)  # an integer needs no gcd
    if den == 0:
        raise SchemaError(f"{_at(where, at)}.den: denominator must be nonzero")
    return Fraction(num, den)


def _pair_at(obj: Dict[str, Any], dim: int, what: str, where: str, at: _Steps,
             ) -> Tuple[int, int]:
    """The 0-based pair of obj's 1-based "i" < "j" <= dim, a `what` pair;
    obj, a dict, is at `where` + `at`."""
    i = _int_at(obj, "i", where, at)
    j = _int_at(obj, "j", where, at)
    if not (1 <= i < j <= dim):
        raise SchemaError(f"{_at(where, at)}: {what} pair ({i},{j}) out of range; "
                          f"need 1 <= i < j <= {dim}")
    return i - 1, j - 1


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
    top = _dict_at(obj, where)
    dim = _int_at(top, "dim", where)
    if dim < 0:
        raise SchemaError(f"{where}.dim: must be nonnegative, got {dim}")
    declared = _int_at(top, "class", where)
    # 0-based table, each coefficient one Fraction (a repeated k adds up)
    brackets: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for pos, item in enumerate(_list_at(top, "brackets", where)):
        at = (".brackets", pos)
        entry = _dict_at(item, where, at)
        target = brackets.setdefault(_pair_at(entry, dim, "bracket", where, at), {})
        for tpos, term in enumerate(_list_at(entry, "terms", where, at)):
            tat = at + (".terms", tpos)
            tdict = _dict_at(term, where, tat)
            k = _int_at(tdict, "k", where, tat)
            if not (1 <= k <= dim):
                raise SchemaError(
                    f"{_at(where, tat)}.k: component {k} out of range for dim {dim}")
            value = _fraction_at(tdict, where, tat)
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
    top = _dict_at(obj, where)
    dim = _int_at(top, "dim", where)
    if dim < 0:
        raise SchemaError(f"{where}.dim: must be nonnegative, got {dim}")
    return CentralCocycle(
        dim=dim, entries=_cocycle_entries(_list_at(top, "entries", where), dim,
                                          where, (".entries",)))


def _cocycle_entries(items: List[Any], dim: int, where: str, at: _Steps,
                     ) -> Dict[Tuple[int, int], Fraction]:
    """The 0-based table of the entry list at `where` + `at` (a repeated
    pair adds up)."""
    entries: Dict[Tuple[int, int], Fraction] = {}
    for pos, item in enumerate(items):
        iat = at + (pos,)
        entry = _dict_at(item, where, iat)
        pair = _pair_at(entry, dim, "entry", where, iat)
        value = _fraction_at(entry, where, iat)
        entries[pair] = entries[pair] + value if pair in entries else value
    return entries


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
    reconstructed by extending (`tower._tower_from_cocycles`), so every
    loaded tower is re-validated (closed/integral; skew by construction)
    step by step.
    """
    top = _dict_at(obj, where)
    raw_steps = _list_at(top, "steps", where)
    parsed: List[CentralCocycle] = []
    for pos, item in enumerate(raw_steps):
        at = (".steps", pos)
        entry = _dict_at(item, where, at)
        base_dim = _int_at(entry, "base_dim", where, at)
        expected = len(raw_steps) - 1 - pos
        if base_dim != expected:
            raise SchemaError(
                f"{_at(where, at)}.base_dim: expected {expected} for a top-down "
                f"tower of {len(raw_steps)} steps, got {base_dim}")
        entries = _cocycle_entries(_list_at(entry, "cocycle", where, at), base_dim,
                                   where, at + (".cocycle",))
        parsed.append(CentralCocycle(dim=base_dim, entries=entries))
    return _tower_from_cocycles(parsed)


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
    top = _dict_at(obj, where)
    dim = _int_at(top, "dim", where)
    if dim < 1:
        raise SchemaError(f"{where}.dim: must be positive, got {dim}")
    entries = _list_at(top, "entries", where)
    if len(entries) != dim * dim:
        raise SchemaError(
            f"{where}.entries: expected {dim * dim} row-major entries for "
            f"dim {dim}, got {len(entries)}")
    values = [_number_at(x, where, (".entries", pos)) for pos, x in enumerate(entries)]
    return np.array(values, dtype=float).reshape(dim, dim)


def load_metric(path: PathLike) -> np.ndarray:
    return metric_from_obj(read_json(path), where=str(path))


def dump_metric(matrix: np.ndarray) -> str:
    return canonical_json(metric_to_obj(matrix))
