"""The benchmark's workloads call only names the library still has.

Tier-1 never runs the benchmark (each run takes minutes), so a rename in
the library would show only when it runs.  ``bench/workloads.py`` reads
every library call as ``module.attr`` of a module imported with
``from snnplace import ...``; this parses the file and checks each read.
"""

import ast
import importlib
import pathlib

WORKLOADS = pathlib.Path(__file__).parents[1] / "bench" / "workloads.py"


def library_reads(path):
    """(module, attribute) for every ``module.attr`` read of an imported snnplace module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "snnplace"
        for alias in node.names
    }
    return {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }


def test_workload_library_reads_resolve():
    reads = library_reads(WORKLOADS)
    assert reads, "bench/workloads.py reads nothing from snnplace"
    missing = [
        f"{module}.{attr}" for module, attr in sorted(reads)
        if not hasattr(importlib.import_module(f"snnplace.{module}"), attr)
    ]
    assert missing == []
