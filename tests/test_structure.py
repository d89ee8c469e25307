"""Static checks of the package's module structure."""

import ast
import graphlib
from pathlib import Path

import pytest

import approxinv

PACKAGE = Path(approxinv.__file__).resolve().parent


def _imported_names(node: ast.AST) -> list[str]:
    """Dotted names an import statement may bind, e.g. ``from . import c0``
    in the package gives ``approxinv`` and ``approxinv.c0``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = node.module or ""
        if node.level:
            base = "approxinv" + (f".{base}" if base else "")
        return [base] + [f"{base}.{alias.name}" for alias in node.names]
    return []


def _import_graph() -> dict[str, set[str]]:
    """Module -> package modules it imports anywhere in its source,
    including inside functions; ``__init__`` is left out."""
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    graph = {}
    for module in modules:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        graph[module] = {
            name.split(".")[1]
            for node in ast.walk(tree)
            for name in _imported_names(node)
            if name.startswith("approxinv.") and name.split(".")[1] in modules
        }
    return graph


def test_package_import_graph_has_no_cycle():
    graph = _import_graph()
    assert {"scenarios", "errors"} <= graph["cli"]
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as err:
        pytest.fail(f"import cycle: {' -> '.join(err.args[1])}")
