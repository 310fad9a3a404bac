"""The package namespace: every exported name resolves, removed names stay
removed, no module draws a random number or uses `@`, and README's library
example runs as printed.

Oracle key: [TRIVIAL] `from nilflat import *` fails on a stale `__all__`
entry, so removed API cannot linger in the export list; every name in
README's "Removed public names" list is absent from `nilflat.__all__`,
`dir(nilflat)` and the module that held it; the modules' syntax trees name
no `random` and hold no `ast.MatMult`; [DERIVED] the values README's
example pins in trailing comments (h3 closed forms: 3t/4 at t = 1e-6 and
0.01).
"""

import ast
import importlib
import io
import re
import sys
import tokenize
from pathlib import Path

import nilflat

README = Path(__file__).resolve().parents[1] / "README.md"


def test_star_import_resolves_all():
    namespace = {}
    exec("from nilflat import *", namespace)
    for name in nilflat.__all__:
        assert name in namespace
        assert namespace[name] is getattr(nilflat, name)
    assert len(set(nilflat.__all__)) == len(nilflat.__all__)


def readme_removed_names():
    """{module: names} from README's "Removed public names" list, one
    bullet per module, its names up to the first full stop:
    "- `nilflat.module`: `name`, `name`. What replaces them." """
    section = README.read_text(encoding="utf-8").split(
        "Removed public names", 1)[1].split("\n\n", 2)[1]
    removed = {}
    for bullet in section.split("\n- "):
        module, rest = bullet.lstrip("- ").split(":", 1)
        names = rest.split(".", 1)[0]
        removed[module.strip("`")] = re.findall(r"`(\w+)`", names)
    return removed


# [TRIVIAL] a removed name is in no export list, namespace or old module.
def test_removed_names_stay_removed():
    removed = readme_removed_names()
    assert "DegeneratePlane" in removed["nilflat.errors"]
    assert len(removed["nilflat.metric"]) == 8
    for module, names in removed.items():
        held = importlib.import_module(module)
        for name in names:
            assert name not in nilflat.__all__, name
            assert name not in dir(nilflat), name
            assert not hasattr(held, name), f"{module}.{name}"


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


# [TRIVIAL] no module of the package uses the `@` operator: every dense
# contraction is einsum(optimize=False), in numpy's own loops, so no BLAS
# matmul can make the bits depend on its thread count.
def test_no_module_uses_matmul():
    package = Path(nilflat.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, (ast.BinOp, ast.AugAssign))
                 and isinstance(node.op, ast.MatMult)]
        assert not lines, f"{path.name}: @ at lines {lines}"


def readme_library_example() -> str:
    """The first python block of README's "Library usage" section."""
    section = README.read_text(encoding="utf-8").split("## Library usage", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


# [DERIVED] README's library example runs, and every print with a trailing
# comment prints exactly that comment's text.
def test_readme_library_example_prints_its_comments():
    source = readme_library_example()
    printed = {}

    def record(*args):
        printed[sys._getframe(1).f_lineno] = " ".join(str(a) for a in args)

    exec(compile(source, str(README), "exec"), {"print": record})
    lines = source.splitlines()
    pinned = {token.start[0]: token.string[1:].strip()
              for token in tokenize.generate_tokens(io.StringIO(source).readline)
              if token.type == tokenize.COMMENT
              and lines[token.start[0] - 1].lstrip().startswith("print(")}
    assert len(pinned) == 2
    for line, comment in pinned.items():
        assert printed[line] == comment, lines[line - 1]
