"""The package namespace: every exported name resolves, and no module
draws a random number.

Oracle key: [TRIVIAL] `from nilflat import *` fails on a stale `__all__`
entry, so removed API cannot linger in the export list; the modules'
syntax trees name no `random`.
"""

import ast
from pathlib import Path

import nilflat


def test_star_import_resolves_all():
    namespace = {}
    exec("from nilflat import *", namespace)
    for name in nilflat.__all__:
        assert name in namespace
        assert namespace[name] is getattr(nilflat, name)
    assert len(set(nilflat.__all__)) == len(nilflat.__all__)


# [TRIVIAL] no module of the package draws a random number: none names
# `random` (`import random`, `np.random`, `from numpy import random`), so
# every output is a function of the inputs alone.
def test_no_module_names_random():
    package = Path(nilflat.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.update(node.module.split("."))
        assert "random" not in names, path.name
