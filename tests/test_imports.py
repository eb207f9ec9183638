"""Every import of the package sits at module level, except scipy.fft: it is
imported inside the functions that smooth a field, so a command that
smooths nothing does not pay for loading scipy."""

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
