"""File formats: canonical bytes, round-trips, and schema diagnostics.

Oracle key: [TRIVIAL] round-trips and shipped-fixture byte stability;
[DERIVED] loaded towers are re-validated mathematically (a hand-made
non-closed cocycle is rejected on load with its Jacobi witness);
[ORACLE] the canonical writer against `json.dumps(obj, indent=2,
sort_keys=True)`, and loaded leads against the lower central series itself.
"""

import enum
import importlib.util
import json
import math
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import series_leads
from nilflat import catalog, fileio, tower
from nilflat.errors import JacobiViolated, NotClosed, NotIntegral, NotNilpotent, SchemaError
from nilflat.tower import CentralCocycle, NilLattice, peel_tower

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"

ALGEBRA_FIXTURES = ["z2.json", "z3.json", "h3.json", "n4.json", "h5.json",
                    "h3_times_z.json", "so3.json", "jacobi_bad.json",
                    "h3_scaled.json"]


# [TRIVIAL] every shipped algebra file is already in canonical form:
# load + dump reproduces the bytes exactly.
@pytest.mark.parametrize("name", ALGEBRA_FIXTURES)
def test_algebra_fixture_bytes(name):
    path = DATA / name
    algebra = fileio.load_algebra(path)
    assert fileio.dump_algebra(algebra) == path.read_text(encoding="utf-8")


# [TRIVIAL] shipped fixtures agree with the in-code catalog.
def test_fixtures_match_catalog():
    pairs = [("z2.json", catalog.abelian(2)),
             ("z3.json", catalog.abelian(3)),
             ("h3.json", catalog.heisenberg3()),
             ("n4.json", catalog.n4()),
             ("h5.json", catalog.heisenberg5()),
             ("h3_times_z.json", catalog.h3_times_z()),
             ("so3.json", catalog.so3_like()),
             ("jacobi_bad.json", catalog.jacobi_violator()),
             ("h3_scaled.json", catalog.heisenberg3_scaled())]
    for name, algebra in pairs:
        assert (DATA / name).read_text(encoding="utf-8") == \
            fileio.dump_algebra(algebra), name


# [TRIVIAL] object-level algebra round-trip preserves exact structure.
@pytest.mark.parametrize("algebra", [catalog.heisenberg3(), catalog.n4(),
                                     catalog.filiform(5), catalog.abelian(1)],
                         ids=["h3", "n4", "filiform5", "z1"])
def test_algebra_object_round_trip(algebra):
    loaded = fileio.algebra_from_obj(fileio.algebra_to_obj(algebra))
    assert loaded == algebra


# [TRIVIAL] loaders go through the filesystem and accept Path or str.
def test_write_and_load(tmp_path):
    path = tmp_path / "alg.json"
    fileio.write_text(path, fileio.dump_algebra(catalog.n4()))
    assert fileio.load_algebra(str(path)) == catalog.n4()


# [TRIVIAL] duplicate bracket pairs and duplicate terms accumulate exactly.
def test_algebra_duplicate_accumulation():
    obj = {"dim": 3, "class": 2, "brackets": [
        {"i": 1, "j": 2, "terms": [{"k": 3, "num": 1, "den": 2}]},
        {"i": 1, "j": 2, "terms": [{"k": 3, "num": 1, "den": 2},
                                   {"k": 3, "num": 1, "den": 1}]},
    ]}
    algebra = fileio.algebra_from_obj(obj)
    assert algebra.brackets == {(0, 1): {2: Fraction(2)}}


# [TRIVIAL] schema diagnostics carry a JSON-path location.
@pytest.mark.parametrize("obj,fragment", [
    ([], "expected an object"),
    ({"class": 1, "brackets": []}, 'missing required key "dim"'),
    ({"dim": True, "class": 1, "brackets": []}, "expected an exact integer"),
    ({"dim": -1, "class": 1, "brackets": []}, "nonnegative"),
    ({"dim": 3, "brackets": []}, 'missing required key "class"'),
    ({"dim": 3, "class": 2, "brackets": {}}, "expected an array"),
    ({"dim": 3, "class": 2, "brackets": [{"i": 2, "j": 2, "terms": []}]},
     "out of range"),
    ({"dim": 3, "class": 2, "brackets": [{"i": 1, "j": 4, "terms": []}]},
     "out of range"),
    ({"dim": 3, "class": 2,
      "brackets": [{"i": 1, "j": 2, "terms": [{"k": 9, "num": 1, "den": 1}]}]},
     "terms[0].k"),
    ({"dim": 3, "class": 2,
      "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "num": 1, "den": 0}]}]},
     "denominator must be nonzero"),
    ({"dim": 3, "class": 2,
      "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "num": 0.5, "den": 1}]}]},
     "expected an exact integer"),
], ids=["top-list", "no-dim", "bool-dim", "neg-dim", "no-class", "dict-brackets",
        "i-eq-j", "j-too-big", "k-range", "zero-den", "float-num"])
def test_algebra_schema_errors(obj, fragment):
    with pytest.raises(SchemaError) as err:
        fileio.algebra_from_obj(obj)
    assert fragment in str(err.value)


# [TRIVIAL] malformed JSON is reported as SchemaError with the file name.
def test_read_json_syntax_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\"dim\": 3,", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        fileio.read_json(path)
    assert "invalid JSON" in str(err.value) and "broken.json" in str(err.value)


# [DERIVED] load_lattice applies the mathematical gate, not just the schema:
# a Jacobi violator, a non-nilpotent algebra, and fractional structure
# constants are all rejected even though their files parse.
def test_lattice_math_validation():
    lattice = fileio.load_lattice(DATA / "h3.json")
    assert isinstance(lattice, NilLattice) and lattice.dim == 3
    with pytest.raises(JacobiViolated):
        fileio.load_lattice(DATA / "jacobi_bad.json")
    with pytest.raises(NotNilpotent):
        fileio.load_lattice(DATA / "so3.json")
    with pytest.raises(NotIntegral):
        fileio.load_lattice(DATA / "h3_scaled.json")


# [TRIVIAL] cocycle fixtures round-trip and accumulate duplicates.
def test_cocycle_round_trip():
    for name in ["euler_zero_z2.json", "euler_one_z2.json", "euler_two_z2.json",
                 "bad_cocycle_n4.json"]:
        path = DATA / name
        cocycle = fileio.load_cocycle(path)
        assert fileio.dump_cocycle(cocycle) == path.read_text(encoding="utf-8")
    doubled = fileio.cocycle_from_obj(
        {"dim": 2, "entries": [{"i": 1, "j": 2, "num": 1, "den": 3},
                               {"i": 1, "j": 2, "num": 2, "den": 3}]})
    assert doubled.entries == {(0, 1): Fraction(1)}


# [TRIVIAL] cocycle schema errors.
def test_cocycle_schema_errors():
    with pytest.raises(SchemaError, match="out of range"):
        fileio.cocycle_from_obj({"dim": 2, "entries": [
            {"i": 2, "j": 1, "num": 1, "den": 1}]})
    with pytest.raises(SchemaError, match='missing required key "entries"'):
        fileio.cocycle_from_obj({"dim": 2})


# [TRIVIAL] towers: dump-load-dump is byte-stable, and the reloaded tower
# rebuilds the same total algebra at every step.
@pytest.mark.parametrize("algebra", [catalog.abelian(3), catalog.heisenberg3(),
                                     catalog.n4(), catalog.heisenberg5()],
                         ids=["z3", "h3", "n4", "h5"])
def test_tower_round_trip(algebra):
    tower = peel_tower(NilLattice(algebra=algebra))
    text = fileio.dump_tower(tower)
    loaded = fileio.tower_from_obj(json.loads(text))
    assert fileio.dump_tower(loaded) == text
    assert loaded.steps[0].total.algebra == tower.steps[0].total.algebra
    for got, want in zip(loaded.steps, tower.steps):
        assert got.base.algebra == want.base.algebra
        assert got.cocycle == want.cocycle


# [TRIVIAL] tower files must count down to the point.
def test_tower_bad_base_dim():
    obj = {"steps": [{"base_dim": 2, "cocycle": []},
                     {"base_dim": 0, "cocycle": []}]}
    with pytest.raises(SchemaError, match="base_dim"):
        fileio.tower_from_obj(obj)


# [DERIVED] loading re-validates closedness: grafting a non-closed 2-form on
# top of the n4 tower fails with the (e1,e3,e2) Jacobi witness.
def test_tower_rejects_non_closed_cocycle():
    tower = peel_tower(fileio.load_lattice(DATA / "n4.json"))
    tower_obj = json.loads(fileio.dump_tower(tower))
    bad_top = {"base_dim": 4,
               "cocycle": [{"i": 2, "j": 4, "num": 1, "den": 1}]}
    tower_obj["steps"].insert(0, bad_top)
    with pytest.raises(NotClosed) as err:
        fileio.tower_from_obj(tower_obj)
    assert "(e1,e3,e2)" in str(err.value) or "(e1, e3, e2)" in str(err.value)


# [TRIVIAL] metric files round-trip floats exactly.
def test_metric_round_trip(tmp_path):
    path = DATA / "metric3_tilted.json"
    matrix = fileio.load_metric(path)
    assert fileio.dump_metric(matrix) == path.read_text(encoding="utf-8")
    assert matrix[0, 2] == 0.3 and matrix.shape == (3, 3)
    awkward = np.array([[1.0, 1e-17], [1e-17, 2.0 / 3.0]])
    out = tmp_path / "m.json"
    fileio.write_text(out, fileio.dump_metric(awkward))
    assert np.array_equal(fileio.load_metric(out), awkward)


# [TRIVIAL] metric schema errors.
@pytest.mark.parametrize("obj,fragment", [
    ({"dim": 0, "entries": []}, "must be positive"),
    ({"dim": 2, "entries": [1.0, 0.0, 0.0]}, "expected 4 row-major entries"),
    ({"dim": 2, "entries": [1.0, 0.0, 0.0, "x"]}, "expected a number"),
], ids=["zero-dim", "short", "string-entry"])
def test_metric_schema_errors(obj, fragment):
    with pytest.raises(SchemaError) as err:
        fileio.metric_from_obj(obj)
    assert fragment in str(err.value)


# [TRIVIAL] an integer entry past float64 loads as ±inf, as a literal 1e400
# does, for the metric check to refuse; it is not an OverflowError.
@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
def test_metric_huge_integer_is_infinite(sign):
    huge = sign * 10 ** 400
    matrix = fileio.metric_from_obj({"dim": 2, "entries": [huge, 0, 0, 1]})
    assert matrix[0, 0] == sign * np.inf
    assert matrix[1, 1] == 1.0


# [TRIVIAL] non-square matrices are refused at dump time.
def test_metric_dump_rejects_non_square():
    with pytest.raises(SchemaError, match="square"):
        fileio.metric_to_obj(np.zeros((2, 3)))


# [ORACLE] the canonical writer gives the bytes of `json`'s indenting encoder
# on any JSON tree: strings with non-ASCII characters, quotes, control
# characters and lone surrogates, ints of any size, floats with -0.0,
# subnormals, 1e16, 1e-7, ±inf and NaN, and empty and nested lists, tuples
# and dicts.
def _json_dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


_TEXT = st.text(st.one_of(
    st.characters(exclude_categories=()),  # lone surrogates included
    st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\x7f", "\u2028", "\ud800",
                     "\udfff", "é", "\U0001f600"])))
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-10 ** 400, max_value=10 ** 400),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-7, 1e22,
                     math.inf, -math.inf, math.nan, 2 ** 64, -(10 ** 4000)]),
    _TEXT)
_TREES = st.recursive(
    _SCALARS, lambda children: st.one_of(
        st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(obj=_TREES)
def test_canonical_json_matches_json(obj):
    assert fileio.canonical_json(obj) == _json_dumps(obj)


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


class _Colour(enum.IntEnum):
    RED = 1


# [ORACLE] subclasses of the JSON types are written as `json` writes them.
@pytest.mark.parametrize("obj", [
    _Str("a\"b"), _Int(-7), _Float(0.1), _Float("nan"), _Colour.RED,
    {_Str("key"): [_Int(3), _Float(-0.0)]},
    OrderedDict([("b", 1), ("a", {})]), ((), [], {}),
], ids=["str", "int", "float", "float-nan", "int-enum", "dict-of-subclasses",
        "ordered-dict", "empties"])
def test_canonical_json_matches_json_on_subclasses(obj):
    assert fileio.canonical_json(obj) == _json_dumps(obj)


# [TRIVIAL] the narrowed contract: `json.dumps` turns int, float, bool and
# None keys into strings; canonical_json refuses them with TypeError, at any
# depth, and names the key's type, also beside str keys that it cannot be
# sorted with. Types `json` cannot write are refused with TypeError too.
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(key=st.one_of(st.integers(), st.floats(), st.booleans(), st.none()),
       value=_SCALARS)
def test_canonical_json_refuses_non_str_keys(key, value):
    _json_dumps({key: value})  # json accepts it
    message = f"keys must be str, not {type(key).__name__}"
    for obj in ({key: value}, [1, {key: value}], {"outer": {key: value}},
                {key: value, "b": 2}, {"b": 2, key: value},
                {"x": {"y": 2, key: value}}):
        with pytest.raises(TypeError, match=f"^{message}$"):
            fileio.canonical_json(obj)


@pytest.mark.parametrize("obj", [object(), {1, 2}, b"bytes", [Fraction(1, 2)]],
                         ids=["object", "set", "bytes", "fraction"])
def test_canonical_json_refuses_non_json_types(obj):
    with pytest.raises(TypeError):
        _json_dumps(obj)
    with pytest.raises(TypeError):
        fileio.canonical_json(obj)


# [ORACLE] every JSON artifact the command line writes for the shipped
# inputs (towers, extensions, curvature summaries, certificates), parsed
# back, is written by canonical_json with the bytes of `json` and of the
# file itself.
def test_canonical_json_on_shipped_artifacts(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "shipped_artifacts", ROOT / "tools" / "shipped_artifacts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.dump(tmp_path, [])
    outputs = sorted(p for p in tmp_path.rglob("*.json")
                     if p.relative_to(tmp_path).parts[0] != "data")
    assert len(outputs) >= 20
    for path in outputs:
        text = path.read_text(encoding="utf-8")
        obj = json.loads(text)
        assert fileio.canonical_json(obj) == _json_dumps(obj) == text, path


# [TRIVIAL] every SchemaError branch of the four readers keeps its message
# (the JSON path of the failing field and what is wrong with it). A tower
# step's cocycle is the list at steps[k].cocycle, so its entries are
# reported at steps[k].cocycle[i], where the file has them.
_ENTRY = {"i": 1, "j": 2, "num": 1, "den": 1}


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


def _algebra(**fields):
    return {"dim": 3, "class": 2,
            "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "num": 1, "den": 1}]}],
            **fields}


def _bracket(item):
    """An algebra whose brackets[1] is `item`."""
    return _algebra(brackets=[{"i": 1, "j": 3, "terms": []}, item])


def _term(item):
    """An algebra whose brackets[1].terms[1] is `item`."""
    return _bracket({"i": 1, "j": 2, "terms": [{"k": 3, "num": 1, "den": 1}, item]})


def _cocycle(item):
    """A cocycle whose entries[1] is `item`."""
    return {"dim": 3, "entries": [_ENTRY, item]}


def _tower(step1=None, entry=None):
    """A 3-step tower, its steps[1] replaced by `step1` and its
    steps[0].cocycle[1] set to `entry`."""
    top = {"base_dim": 2, "cocycle": [_ENTRY] + ([entry] if entry is not None else [])}
    middle = {"base_dim": 1, "cocycle": []} if step1 is None else step1
    return {"steps": [top, middle, {"base_dim": 0, "cocycle": []}]}


def _metric(**fields):
    return {"dim": 2, "entries": [1.0, 0.0, 0, 1], **fields}


SCHEMA_MESSAGES = [
    ("algebra", [], "algebra: expected an object, got list"),
    ("algebra", _without(_algebra(), "dim"), 'algebra: missing required key "dim"'),
    ("algebra", _algebra(dim=True), "algebra.dim: expected an exact integer, got True"),
    ("algebra", _algebra(dim="3"), "algebra.dim: expected an exact integer, got '3'"),
    ("algebra", _algebra(dim=-1), "algebra.dim: must be nonnegative, got -1"),
    ("algebra", _without(_algebra(), "class"), 'algebra: missing required key "class"'),
    ("algebra", _algebra(**{"class": "2"}),
     "algebra.class: expected an exact integer, got '2'"),
    ("algebra", _without(_algebra(), "brackets"),
     'algebra: missing required key "brackets"'),
    ("algebra", _algebra(brackets={}), "algebra.brackets: expected an array, got dict"),
    ("algebra", _bracket("x"), "algebra.brackets[1]: expected an object, got str"),
    ("algebra", _bracket({"j": 2, "terms": []}),
     'algebra.brackets[1]: missing required key "i"'),
    ("algebra", _bracket({"i": True, "j": 2, "terms": []}),
     "algebra.brackets[1].i: expected an exact integer, got True"),
    ("algebra", _bracket({"i": 1, "terms": []}),
     'algebra.brackets[1]: missing required key "j"'),
    ("algebra", _bracket({"i": 1, "j": "2", "terms": []}),
     "algebra.brackets[1].j: expected an exact integer, got '2'"),
    ("algebra", _bracket({"i": 2, "j": 2, "terms": []}),
     "algebra.brackets[1]: bracket pair (2,2) out of range; need 1 <= i < j <= 3"),
    ("algebra", _bracket({"i": 1, "j": 4, "terms": []}),
     "algebra.brackets[1]: bracket pair (1,4) out of range; need 1 <= i < j <= 3"),
    ("algebra", _bracket({"i": 0, "j": 2}),
     "algebra.brackets[1]: bracket pair (0,2) out of range; need 1 <= i < j <= 3"),
    ("algebra", _bracket({"i": 1, "j": 2}),
     'algebra.brackets[1]: missing required key "terms"'),
    ("algebra", _bracket({"i": 1, "j": 2, "terms": {}}),
     "algebra.brackets[1].terms: expected an array, got dict"),
    ("algebra", _term([]), "algebra.brackets[1].terms[1]: expected an object, got list"),
    ("algebra", _term({"num": 1, "den": 1}),
     'algebra.brackets[1].terms[1]: missing required key "k"'),
    ("algebra", _term({"k": False, "num": 1, "den": 1}),
     "algebra.brackets[1].terms[1].k: expected an exact integer, got False"),
    ("algebra", _term({"k": 4, "num": 1, "den": 1}),
     "algebra.brackets[1].terms[1].k: component 4 out of range for dim 3"),
    ("algebra", _term({"k": 0}),
     "algebra.brackets[1].terms[1].k: component 0 out of range for dim 3"),
    ("algebra", _term({"k": 3, "den": 1}),
     'algebra.brackets[1].terms[1]: missing required key "num"'),
    ("algebra", _term({"k": 3, "num": 0.5, "den": 1}),
     "algebra.brackets[1].terms[1].num: expected an exact integer, got 0.5"),
    ("algebra", _term({"k": 3, "num": None}),
     "algebra.brackets[1].terms[1].num: expected an exact integer, got None"),
    ("algebra", _term({"k": 3, "num": 1}),
     'algebra.brackets[1].terms[1]: missing required key "den"'),
    ("algebra", _term({"k": 3, "num": 1, "den": "1"}),
     "algebra.brackets[1].terms[1].den: expected an exact integer, got '1'"),
    ("algebra", _term({"k": 3, "num": 1, "den": 0}),
     "algebra.brackets[1].terms[1].den: denominator must be nonzero"),
    ("cocycle", "x", "cocycle: expected an object, got str"),
    ("cocycle", {"entries": []}, 'cocycle: missing required key "dim"'),
    ("cocycle", {"dim": False, "entries": []},
     "cocycle.dim: expected an exact integer, got False"),
    ("cocycle", {"dim": -2, "entries": []}, "cocycle.dim: must be nonnegative, got -2"),
    ("cocycle", {"dim": 3}, 'cocycle: missing required key "entries"'),
    ("cocycle", {"dim": 3, "entries": {}}, "cocycle.entries: expected an array, got dict"),
    ("cocycle", _cocycle(7), "cocycle.entries[1]: expected an object, got int"),
    ("cocycle", _cocycle(_without(_ENTRY, "i")),
     'cocycle.entries[1]: missing required key "i"'),
    ("cocycle", _cocycle({**_ENTRY, "i": True}),
     "cocycle.entries[1].i: expected an exact integer, got True"),
    ("cocycle", _cocycle({**_ENTRY, "j": "2"}),
     "cocycle.entries[1].j: expected an exact integer, got '2'"),
    ("cocycle", _cocycle({**_ENTRY, "i": 2, "j": 1}),
     "cocycle.entries[1]: entry pair (2,1) out of range; need 1 <= i < j <= 3"),
    ("cocycle", _cocycle({"i": 1, "j": 4}),
     "cocycle.entries[1]: entry pair (1,4) out of range; need 1 <= i < j <= 3"),
    ("cocycle", _cocycle(_without(_ENTRY, "num")),
     'cocycle.entries[1]: missing required key "num"'),
    ("cocycle", _cocycle({**_ENTRY, "num": "1"}),
     "cocycle.entries[1].num: expected an exact integer, got '1'"),
    ("cocycle", _cocycle(_without(_ENTRY, "den")),
     'cocycle.entries[1]: missing required key "den"'),
    ("cocycle", _cocycle({**_ENTRY, "den": True}),
     "cocycle.entries[1].den: expected an exact integer, got True"),
    ("cocycle", _cocycle({**_ENTRY, "den": 0}),
     "cocycle.entries[1].den: denominator must be nonzero"),
    ("tower", [], "tower: expected an object, got list"),
    ("tower", {}, 'tower: missing required key "steps"'),
    ("tower", {"steps": {}}, "tower.steps: expected an array, got dict"),
    ("tower", {"steps": ["x"]}, "tower.steps[0]: expected an object, got str"),
    ("tower", _tower(step1={"cocycle": []}),
     'tower.steps[1]: missing required key "base_dim"'),
    ("tower", _tower(step1={"base_dim": True, "cocycle": []}),
     "tower.steps[1].base_dim: expected an exact integer, got True"),
    ("tower", _tower(step1={"base_dim": "1", "cocycle": []}),
     "tower.steps[1].base_dim: expected an exact integer, got '1'"),
    ("tower", _tower(step1={"base_dim": 2, "cocycle": []}),
     "tower.steps[1].base_dim: expected 1 for a top-down tower of 3 steps, got 2"),
    ("tower", _tower(step1={"base_dim": 1}), 'tower.steps[1]: missing required key "cocycle"'),
    ("tower", _tower(step1={"base_dim": 1, "cocycle": {}}),
     "tower.steps[1].cocycle: expected an array, got dict"),
    ("tower", _tower(entry=[]), "tower.steps[0].cocycle[1]: expected an object, got list"),
    ("tower", _tower(entry=_without(_ENTRY, "i")),
     'tower.steps[0].cocycle[1]: missing required key "i"'),
    ("tower", _tower(entry={**_ENTRY, "j": True}),
     "tower.steps[0].cocycle[1].j: expected an exact integer, got True"),
    ("tower", _tower(entry={**_ENTRY, "j": 3}),
     "tower.steps[0].cocycle[1]: entry pair (1,3) out of range; need 1 <= i < j <= 2"),
    ("tower", _tower(entry={**_ENTRY, "num": "1"}),
     "tower.steps[0].cocycle[1].num: expected an exact integer, got '1'"),
    ("tower", _tower(entry={**_ENTRY, "den": 0}),
     "tower.steps[0].cocycle[1].den: denominator must be nonzero"),
    ("tower", _tower(step1={"base_dim": 1, "cocycle": [{**_ENTRY, "j": "x"}]}),
     "tower.steps[1].cocycle[0].j: expected an exact integer, got 'x'"),
    ("metric", None, "metric: expected an object, got NoneType"),
    ("metric", {"entries": []}, 'metric: missing required key "dim"'),
    ("metric", _metric(dim="2"), "metric.dim: expected an exact integer, got '2'"),
    ("metric", _metric(dim=True), "metric.dim: expected an exact integer, got True"),
    ("metric", _metric(dim=0, entries=[]), "metric.dim: must be positive, got 0"),
    ("metric", {"dim": 2}, 'metric: missing required key "entries"'),
    ("metric", _metric(entries={}), "metric.entries: expected an array, got dict"),
    ("metric", _metric(entries=[1.0, 0.0, 0.0]),
     "metric.entries: expected 4 row-major entries for dim 2, got 3"),
    ("metric", _metric(entries=[1.0, 0.0, 0.0, "x"]),
     "metric.entries[3]: expected a number, got 'x'"),
    ("metric", _metric(entries=[1.0, True, 0.0, 1.0]),
     "metric.entries[1]: expected a number, got True"),
    ("metric", _metric(entries=[1.0, 0.0, None, 1.0]),
     "metric.entries[2]: expected a number, got None"),
]
READERS = {"algebra": fileio.algebra_from_obj, "cocycle": fileio.cocycle_from_obj,
           "tower": fileio.tower_from_obj, "metric": fileio.metric_from_obj}


@pytest.mark.parametrize("reader,obj,message", SCHEMA_MESSAGES,
                         ids=[message for _, _, message in SCHEMA_MESSAGES])
def test_schema_error_messages(reader, obj, message):
    with pytest.raises(SchemaError) as err:
        READERS[reader](obj)
    assert str(err.value) == message


# [DERIVED] the tower loader checks every cocycle bottom-up but reads the
# leads off generators once, on the top algebra: filiform(40)'s tower loads
# with one `_generator_leads` call, every level's leads are those of its
# own lower central series, and the loaded tower is the peeled one.
def test_tower_load_reads_leads_once(monkeypatch):
    peeled = peel_tower(NilLattice(catalog.filiform(40)))
    obj = json.loads(fileio.dump_tower(peeled))
    calls = []
    leads_of = tower._generator_leads
    monkeypatch.setattr(tower, "_generator_leads",
                        lambda algebra: calls.append(algebra.dim) or leads_of(algebra))
    loaded = fileio.tower_from_obj(obj)
    assert calls == [40]
    assert loaded == peeled
    for step in loaded.steps:
        for level in (step.total, step.base):
            assert (level.leads, level.algebra.declared_class) == series_leads(level.algebra)
