"""Every name an ``spnn`` module imports is used in that module: an ``ast``
walk standing in for a linter's unused-import rule."""

import ast
from pathlib import Path

import pytest

import spnn

MODULES = sorted(Path(spnn.__file__).parent.glob("*.py"))

# Imported but not called: perfbench/test_perfbench.py's
# test_shim_wraps_importers_and_restores_every_function checks that its
# tracer wraps each of them in the importing module.
PINNED = {("propagation", "mzi_transfer"), ("cli", "propagate_with_crosstalk")}


def _annotation_names(node: ast.AST) -> set[str]:
    """Names read by an annotation, including one written as a string."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that nothing reads; a
    name listed in ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json, math\n"
        "from numpy import array as arr, zeros\n"
        "from spnn import Rng\n"
        "__all__ = ['Rng']\n"
        "def f(x: 'zeros') -> None:\n"
        "    return os.path.join(math.pi)\n"
    )
    assert unused_imports(source) == ["json", "arr"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert [n for n in unused if (path.stem, n) not in PINNED] == []
