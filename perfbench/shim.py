"""Child-process entry points of the benchmark.

``setup``  imports ``spnn.cli``, resolves the workload's config and exits:
           the fixed cost every CLI command pays before it does any work.
``trace``  wraps the public functions of the spnn layers from outside, runs
           one CLI command, and writes the recorded spans when it ends.

Run as ``python3 perfbench/shim.py setup -- <cli args>`` or
``python3 perfbench/shim.py trace <spans.json> -- <cli args>`` with
``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("mesh", "propagation", "analysis", "device", "numerics", "data")

# Functions whose return value carries a count the traced run reports.
LEAK_RESULTS = ("propagation.network_cascade", "propagation.propagate_with_crosstalk")
COMPILE_RESULTS = ("mesh.compile_layer",)

# Layout of the binary span file: attribute and array typecode, in order.
SPAN_ARRAYS = (("name_of", "i"), ("parent", "q"), ("start", "d"), ("end", "d"))


class Tracer:
    """Records one span (name, start, end, parent) per wrapped call.

    Spans live in flat arrays so that a million of them cost tens of MB;
    a span's id is its index, assigned on entry, so a parent's id is always
    smaller than its children's.
    """

    def __init__(self):
        self.names: list[str] = []
        for attr, typecode in SPAN_ARRAYS:
            setattr(self, attr, array(typecode))
        self.stack = [-1]
        self.counts = {
            "mesh.mzis_compiled": 0,
            "propagation.leak_components": 0,
            "propagation.leak_bank_bytes": 0,
        }

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        observe = self._observer(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observer(self, name: str):
        counts = self.counts
        if name in LEAK_RESULTS:
            def observe(res):
                counts["propagation.leak_components"] += int(res.leak_fields.shape[1])
                counts["propagation.leak_bank_bytes"] = max(
                    counts["propagation.leak_bank_bytes"], int(res.leak_fields.nbytes)
                )
            return observe
        if name in COMPILE_RESULTS:
            def observe(layout):
                counts["mesh.mzis_compiled"] += len(layout.v_mesh) + len(layout.u_mesh)
            return observe
        return None

    def dump(self, path: str, wall_s: float) -> None:
        """Write ``path`` (names, counts, wall time) and ``path + ".bin"``
        (the span arrays, in the order of :data:`SPAN_ARRAYS`)."""
        doc = {
            "names": self.names,
            "spans": len(self.start),
            "counts": self.counts,
            "wall_s": wall_s,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with open(path + ".bin", "wb") as fh:
            for attr, _ in SPAN_ARRAYS:
                getattr(self, attr).tofile(fh)


def layer_functions() -> dict[str, object]:
    """Public functions defined by each layer module, by qualified name."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"spnn.{layer}")
        for attr, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
            ):
                found[f"{layer}.{attr}"] = obj
    return found


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Replace every layer function, in its own module and in every spnn
    module that imported it by name. Returns what :func:`restore` needs."""
    importlib.import_module("spnn.cli")
    wrappers = {}
    for name, fn in layer_functions().items():
        wrappers[id(fn)] = (fn, tracer.wrap(name, fn))
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != "spnn" and not modname.startswith("spnn."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, obj))
    return patched


def restore(patched: list[tuple[object, str, object]]) -> None:
    for mod, attr, original in patched:
        setattr(mod, attr, original)


def _setup(cli_args: list[str]) -> int:
    from spnn import cli
    from spnn.config import ExperimentConfig, apply_overrides

    args = cli._build_parser().parse_args(cli_args)
    overrides = list(args.set) + [f"seed={args.seed}", f"out_dir={args.out}"]
    apply_overrides(ExperimentConfig(), overrides)
    return 0


def _trace(spans_path: str, cli_args: list[str]) -> int:
    tracer = Tracer()
    patched = install(tracer)
    from spnn import cli

    t0 = time.perf_counter()
    try:
        code = cli.main(cli_args)
    finally:
        wall = time.perf_counter() - t0
        restore(patched)
        tracer.dump(spans_path, wall)
    return code


def main(argv: list[str]) -> int:
    split = argv.index("--")
    head, cli_args = argv[:split], argv[split + 1 :]
    if head == ["setup"]:
        return _setup(cli_args)
    if len(head) == 2 and head[0] == "trace":
        return _trace(head[1], cli_args)
    print("usage: shim.py setup -- ARGS | shim.py trace SPANS -- ARGS", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
