"""Every import of the package sits at module level, and no function body
imports anything; the package imports only the standard library, numpy and
itself, and numpy is its one runtime dependency.  And every function of the
package is named by its own code."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "phi4local"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _function_imports(tree):
    """(line, module) of each import statement inside a function body."""
    for fn in ast.walk(tree):
        if isinstance(fn, FUNCTIONS):
            for node in ast.walk(fn):
                if isinstance(node, ast.Import):
                    yield from ((node.lineno, a.name) for a in node.names)
                elif isinstance(node, ast.ImportFrom):
                    yield node.lineno, "." * node.level + (node.module or "")


# No function body imports anything.  The name dates from when scipy.fft
# was imported where a field is smoothed; it is kept so the test ids hold.
@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_function_bodies_import_only_scipy_fft(module):
    tree = ast.parse((SRC / module).read_text())
    bad = sorted(set(_function_imports(tree)))
    assert not bad, "%s imports inside functions: %s" % (module, bad)


def _imported_packages(tree):
    """(line, top-level package) of each import statement; '' if relative."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, a.name.split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, "" if node.level else node.module.split(".")[0]


def test_src_imports_only_stdlib_numpy_and_itself():
    # a third-party import would make the package need more than the numpy
    # that pyproject.toml asks for
    allowed = set(sys.stdlib_module_names) | {"numpy", "phi4local", ""}
    bad = [(path.name, line, name)
           for path in sorted(SRC.glob("*.py"))
           for line, name in _imported_packages(ast.parse(path.read_text()))
           if name not in allowed]
    assert not bad, "imports outside the standard library and numpy: %s" % bad


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    deps = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    assert [re.match(r"[\w.-]+", d).group() for d in deps] == ["numpy"], deps


# defined for the user and named nowhere in the package: the writer of the
# sidecar files that custom lifts load (see README)
UNNAMED_DEFS = {("field", "save_field")}


def test_every_def_is_named_in_src():
    # a function or method that no code of the package names is a test-only
    # oracle or dead code; dunder methods are called by Python itself
    defined, named = set(), set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and path.name != "__init__.py"
                  and not (node.name.startswith("__") and node.name.endswith("__"))):
                defined.add((path.stem, node.name))
    unnamed = {d for d in defined if d[1] not in named} - UNNAMED_DEFS
    assert not unnamed, "defined but never named in src/: %s" % sorted(unnamed)
