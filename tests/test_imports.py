"""``ast`` walks standing in for linter rules: every name an ``spnn`` module
imports is used in that module, every config field is read, every private
top-level name is read somewhere in the package, every parameter default
is overridden by some call, and the config's coercion has one branch per
field type."""

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


def coerced_types(source: str) -> set[str]:
    """The field types that ``_coerce`` in ``source`` compares ``target``
    with, each one branch."""
    (coerce,) = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name == "_coerce"
    ]
    return {
        c.value
        for node in ast.walk(coerce)
        if isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Name)
        and node.left.id == "target"
        for c in node.comparators
        if isinstance(c, ast.Constant)
    }


def test_the_check_finds_every_type_branch():
    source = (
        "def _coerce(name, value):\n"
        "    target = TYPES[name]\n"
        "    if target == 'bool':\n        return bool(value)\n"
        "    if other == 'str':\n        return value\n"
        "    return int(value) if target == 'int' else float(value)\n"
    )
    assert coerced_types(source) == {"bool", "int"}


def test_coerce_has_one_branch_per_scalar_field_type():
    """No dead type branch and no unhandled type: ``_coerce`` compares with
    exactly the scalar types of the config's fields, and its fall-through
    handles the lists."""
    types = {f.type for f in dataclasses.fields(ExperimentConfig)}
    lists = {t for t in types if t.startswith("list[")}
    assert lists <= {"list[int]", "list[float]"}
    source = (Path(spnn.__file__).parent / "config.py").read_text(encoding="utf-8")
    assert coerced_types(source) == types - lists


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


def dead_defaults(defined: dict[str, str], calling: list[str]) -> list[str]:
    """``function.parameter`` of each parameter with a default, of a
    function or method of ``defined``, that no call in ``calling`` passes,
    by keyword or by position. Calls match by name: ``f(...)`` and
    ``x.f(...)`` call every function or method named ``f``, ``C(...)``
    calls ``C.__init__``, and a ``*args`` or ``**kwargs`` argument passes
    every parameter."""
    calls = {}
    for source in calling:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                splat = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                calls.setdefault(name, []).append((len(node.args), splat, keywords))
    dead = []
    for module, source in defined.items():
        tree = ast.parse(source)
        methods = {
            id(f): c.name
            for c in ast.walk(tree)
            if isinstance(c, ast.ClassDef)
            for f in c.body
            if isinstance(f, ast.FunctionDef)
        }
        for f in ast.walk(tree):
            if not isinstance(f, ast.FunctionDef):
                continue
            owner = methods.get(id(f))
            name = owner if f.name == "__init__" else f.name
            args = f.args
            positional = args.posonlyargs + args.args
            skip = 1 if owner else 0  # self
            with_default = [
                (positional.index(a) - skip, a.arg)
                for a in positional[len(positional) - len(args.defaults) :]
            ] + [
                (None, a.arg)
                for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None
            ]
            for index, arg in with_default:
                if not any(
                    splat or arg in keywords or None in keywords
                    or (index is not None and n_args > index)
                    for n_args, splat, keywords in calls.get(name, [])
                ):
                    dead.append(f"{module}.{f.name}.{arg}")
    return dead


def test_the_check_finds_a_default_no_call_passes():
    defined = {
        "a": (
            "def f(x, y=1, z=2, *, w=3, v=4):\n    pass\n"
            "def g(a=1):\n    pass\n"
            "def k(b=1):\n    pass\n"
            "def e(c=1):\n    pass\n"
            "class C:\n"
            "    def __init__(self, k=0, j=1):\n        pass\n"
            "    def m(self, q=0):\n        pass\n"
        ),
    }
    calling = [
        "f(0, 1, w=5)\nh = g\nC(2).m()\n",
        "x.k(*args)\ne(**opts)\n",
    ]
    assert dead_defaults(defined, calling) == [
        "a.f.z", "a.f.v", "a.g.a", "a.__init__.j", "a.m.q"
    ]


def test_every_default_is_passed_by_some_call():
    """No knob nothing turns: each parameter default of ``src/spnn`` is
    overridden by at least one call in the package or its tests."""
    defined = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    tests = sorted(Path(__file__).parent.glob("*.py"))
    calling = [p.read_text(encoding="utf-8") for p in [*MODULES, *tests]]
    assert dead_defaults(defined, calling) == []
