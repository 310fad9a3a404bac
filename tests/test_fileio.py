"""File formats: canonical bytes, round-trips, and schema diagnostics.

Oracle key: [TRIVIAL] round-trips and shipped-fixture byte stability;
[DERIVED] loaded towers are re-validated mathematically (a hand-made
non-closed cocycle is rejected on load with its Jacobi witness).
"""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from nilflat import catalog, fileio
from nilflat.errors import JacobiViolated, NotClosed, NotIntegral, NotNilpotent, SchemaError
from nilflat.tower import CentralCocycle, NilLattice, peel_tower

DATA = Path(__file__).resolve().parent.parent / "data"

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
