"""The package namespace: every exported name resolves, no module draws a
random number, and README's library example runs as printed.

Oracle key: [TRIVIAL] `from nilflat import *` fails on a stale `__all__`
entry, so removed API cannot linger in the export list; the modules'
syntax trees name no `random`; [DERIVED] the values README's example pins
in trailing comments (h3 closed forms: 3t/4 at t = 1e-6 and 0.01).
"""

import ast
import io
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
