"""`nilflat peel` and `nilflat extend` against files read straight off the
input's brackets.

Oracle key: [DERIVED] in an adapted basis the circle peeled at total
dimension k is e_k, so the Euler cocycle of the step down to dimension k − 1
is the e_k component of [e_i, e_j] for i < j < k. The expected tower file is
built from the input JSON with the standard library alone and compared byte
for byte with the CLI output; nothing of `tower` is imported. Conversely the
base (brackets without pairs or components on e_n) extended by the top
cocycle (the e_n components) must give back the input file byte for byte.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from nilflat.cli import main

DATA = Path(__file__).resolve().parent.parent / "data"
VALID = ["h3", "h3_huge", "h3_times_z", "h5", "n4", "z2", "z3"]
INVALID = ["h3_scaled", "jacobi_bad", "so3"]


# class of the base of each valid data file (its input with e_n peeled off)
BASE_CLASS = {"h3": 1, "h3_huge": 1, "h3_times_z": 2, "h5": 1, "n4": 2, "z2": 1, "z3": 1}


def canonical(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def filiform_obj(n):
    """L_n: [e1, e_k] = e_{k+1} for 2 <= k < n, class n − 1."""
    return {"dim": n, "class": n - 1,
            "brackets": [{"i": 1, "j": k, "terms": [{"k": k + 1, "num": 1, "den": 1}]}
                         for k in range(2, n)]}


def free2_obj(r):
    """Free 2-step nilpotent on r generators: [e_i, e_j] is the next new e_k."""
    pairs = [(i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1)]
    return {"dim": r + len(pairs), "class": 2,
            "brackets": [{"i": i, "j": j, "terms": [{"k": r + 1 + pos, "num": 1, "den": 1}]}
                         for pos, (i, j) in enumerate(pairs)]}


GENERATED = ([(f"filiform{n}", filiform_obj(n), n - 2) for n in range(3, 17)]
             + [(f"free2_{r}", free2_obj(r), 2) for r in (3, 4)])


def expected_tower(obj):
    component = {}
    for bracket in obj["brackets"]:
        for term in bracket["terms"]:
            key = (bracket["i"], bracket["j"], term["k"])
            component[key] = component.get(key, 0) + Fraction(term["num"], term["den"])
    steps = []
    for k in range(obj["dim"], 0, -1):
        cocycle = []
        for i in range(1, k):
            for j in range(i + 1, k):
                value = component.get((i, j, k), 0)
                if value != 0:
                    cocycle.append({"i": i, "j": j, "num": value.numerator,
                                    "den": value.denominator})
        steps.append({"base_dim": k - 1, "cocycle": cocycle})
    return json.dumps({"steps": steps}, indent=2, sort_keys=True) + "\n"


def peel_bytes(path, tmp_path, capsys):
    out = tmp_path / "tower.json"
    assert main(["peel", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    return out.read_text(encoding="utf-8")


def test_data_files_are_classified():
    algebras = sorted(p.stem for p in DATA.glob("*.json")
                      if "brackets" in json.loads(p.read_text(encoding="utf-8")))
    assert algebras == sorted(VALID + INVALID)


@pytest.mark.parametrize("name", VALID)
def test_peel_matches_brackets_data(name, tmp_path, capsys):
    path = DATA / f"{name}.json"
    obj = json.loads(path.read_text(encoding="utf-8"))
    assert peel_bytes(path, tmp_path, capsys) == expected_tower(obj)


def peel_matches_brackets(obj, tmp_path, capsys):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert peel_bytes(path, tmp_path, capsys) == expected_tower(obj)


@pytest.mark.parametrize("n", range(3, 17))
def test_peel_matches_brackets_filiform(n, tmp_path, capsys):
    peel_matches_brackets(filiform_obj(n), tmp_path, capsys)


@pytest.mark.parametrize("r", [3, 4])
def test_peel_matches_brackets_free2(r, tmp_path, capsys):
    peel_matches_brackets(free2_obj(r), tmp_path, capsys)


def split_top(obj, base_class):
    """(base algebra, top cocycle) objects of an algebra object: e_n peeled."""
    n = obj["dim"]
    brackets, entries = [], []
    for bracket in obj["brackets"]:
        if bracket["j"] == n:
            continue
        terms = [t for t in bracket["terms"] if t["k"] < n]
        if terms:
            brackets.append(dict(bracket, terms=terms))
        entries += [{"i": bracket["i"], "j": bracket["j"], "num": t["num"], "den": t["den"]}
                    for t in bracket["terms"] if t["k"] == n]
    base = {"dim": n - 1, "class": base_class, "brackets": brackets}
    return base, {"dim": n - 1, "entries": entries}


EXTEND_CASES = ([(name, (DATA / f"{name}.json").read_text(encoding="utf-8"),
                  BASE_CLASS[name]) for name in VALID]
                + [(name, canonical(obj), base_class) for name, obj, base_class in GENERATED])


@pytest.mark.parametrize("name,text,base_class", EXTEND_CASES,
                         ids=[name for name, _, _ in EXTEND_CASES])
def test_extend_rebuilds_input_bytes(name, text, base_class, tmp_path, capsys):
    base, cocycle = split_top(json.loads(text), base_class)
    base_path, cocycle_path = tmp_path / "base.json", tmp_path / "top.json"
    base_path.write_text(canonical(base), encoding="utf-8")
    cocycle_path.write_text(canonical(cocycle), encoding="utf-8")
    out = tmp_path / "total.json"
    assert main(["extend", str(base_path), str(cocycle_path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text(encoding="utf-8") == text
