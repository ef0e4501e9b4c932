"""``ast`` walks standing in for linter rules: every name an ``spnn`` module
imports is used in that module, every config field is read, and every
private top-level name is read somewhere in the package."""

import ast
import dataclasses
from pathlib import Path

import pytest

import spnn
from spnn.config import ExperimentConfig
from spnn.device import MziParams

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


def cfg_reads(source: str) -> set[str]:
    """The attributes ``source`` reads off a name ``cfg``."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "cfg"
        and isinstance(node.ctx, ast.Load)
    }


def test_the_check_finds_a_knob_nothing_reads():
    source = "def run(cfg, other):\n    cfg.out = 1\n    return cfg.n + other.m\n"
    assert cfg_reads(source) == {"n"}


def test_every_config_field_is_read():
    """No knob nothing reads: each ExperimentConfig field is read as
    ``cfg.<name>`` by the CLI or the config module, or is a device
    parameter, which ``ExperimentConfig.mzi_params`` passes on."""
    read = {f.name for f in dataclasses.fields(MziParams)}
    for path in MODULES:
        if path.stem in ("cli", "config"):
            read |= cfg_reads(path.read_text(encoding="utf-8"))
    fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert [name for name in fields if name not in read] == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each private (``_x``, not dunder) top-level
    function, class or assigned name of ``sources`` that no other top-level
    statement of any of them reads: as a name, an attribute or an imported
    name."""
    defined, reads = [], []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                names = [
                    n.id
                    for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                ]
            else:
                names = []
            used = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name)
            defined += [(module, n, len(reads)) for n in names]
            reads.append(used)
    return [
        f"{module}.{name}"
        for module, name, own in defined
        if name.startswith("_") and not name.startswith("__")
        and not any(name in used for i, used in enumerate(reads) if i != own)
    ]


def test_the_check_finds_an_unread_private_name():
    sources = {
        "a": (
            "_LIMIT = 3\n_SPARE: int = 4\n_A = _B = _LIMIT\n"
            "def _helper():\n    return _LIMIT\n"
            "def _recurse(k):\n    return _recurse(k - 1)\n"
            "class _Box:\n    pass\n"
            "__all__ = ['run']\n"
        ),
        "b": "from a import _helper\nimport a\nx = a._Box(a._B)\n",
    }
    assert unread_private_names(sources) == ["a._SPARE", "a._A", "a._recurse"]


def test_every_private_name_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert unread_private_names(sources) == []
