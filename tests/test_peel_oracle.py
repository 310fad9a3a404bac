"""`nilflat peel` against a tower read straight off the input's brackets.

Oracle key: [DERIVED] in an adapted basis the circle peeled at total
dimension k is e_k, so the Euler cocycle of the step down to dimension k − 1
is the e_k component of [e_i, e_j] for i < j < k. The expected tower file is
built from the input JSON with the standard library alone and compared byte
for byte with the CLI output; nothing of `tower` is imported.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from nilflat.cli import main

DATA = Path(__file__).resolve().parent.parent / "data"
VALID = ["h3", "h3_times_z", "h5", "n4", "z2", "z3"]
INVALID = ["h3_scaled", "jacobi_bad", "so3"]


def filiform_obj(n):
    """L_n: [e1, e_k] = e_{k+1} for 2 <= k < n, class n − 1."""
    return {"dim": n, "class": n - 1,
            "brackets": [{"i": 1, "j": k, "terms": [{"k": k + 1, "num": 1, "den": 1}]}
                         for k in range(2, n)]}


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


@pytest.mark.parametrize("n", range(3, 13))
def test_peel_matches_brackets_filiform(n, tmp_path, capsys):
    obj = filiform_obj(n)
    path = tmp_path / f"filiform{n}.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert peel_bytes(path, tmp_path, capsys) == expected_tower(obj)
