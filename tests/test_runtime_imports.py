"""The library's runtime dependencies are numpy and the standard library.

Each ``src/snnplace`` module is parsed with ``ast``, so an import anywhere
(inside a function too) is seen without running it.  Pillow is optional: it
is imported only where a non-PGM image is decoded.
"""

import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).parents[1] / "src" / "snnplace"
# (module file, function) of the one import allowed outside numpy and the stdlib.
OPTIONAL = {"PIL": ("imaging.py", "_load_with_pillow")}


def imports(path):
    """(top-level package or None for a relative import, enclosing function) per import."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                found.extend((alias.name.split(".")[0], function) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                top = None if child.level else child.module.split(".")[0]
                found.append((top, function))
            visit(child, function)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_stdlib_numpy_or_relative(path):
    allowed = set(sys.stdlib_module_names) | {"numpy", "__future__", None}
    outside = [
        (top, function) for top, function in imports(path)
        if top not in allowed and OPTIONAL.get(top) != (path.name, function)
    ]
    assert outside == []


def test_the_scan_sees_the_optional_import():
    assert ("PIL", "_load_with_pillow") in imports(PACKAGE / "imaging.py")
