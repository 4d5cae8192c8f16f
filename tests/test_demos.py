"""The demos import only names the package still has.

Here the demos are parsed, not run: together they take about 30 s, and
CI runs ``demos/01``-``05`` in a step of their own (``06`` in another).
This test names a broken import at once, without running anything.
"""

import ast
import importlib
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))


def package_imports(path):
    """(module, name) for every name a demo imports from snnplace."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "snnplace":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "snnplace":
                    yield alias.name, None


def test_demos_exist():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    imports = list(package_imports(demo))
    assert imports, f"{demo.name} imports nothing from snnplace"
    for module, name in imports:
        owner = importlib.import_module(module)
        if name is not None:
            assert hasattr(owner, name), f"{demo.name}: {module} has no {name!r}"
