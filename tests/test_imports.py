"""Every import of the package sits at module level, except scipy.fft: it is
imported inside the functions that smooth a field, so a command that
smooths nothing does not pay for loading scipy.  And every function of the
package is named by its own code."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "phi4local"
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


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_function_bodies_import_only_scipy_fft(module):
    tree = ast.parse((SRC / module).read_text())
    bad = sorted({(line, name) for line, name in _function_imports(tree)
                  if name != "scipy.fft"})
    assert not bad, "%s imports inside functions: %s" % (module, bad)


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
