"""Self-tests of the benchmark, on the tiny smoke sizes.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import importlib
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import shim  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_named_metric_is_emitted_with_unit_and_samples(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0.1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    with open(run.RUNS / f"{workload}-seed5-trace{trace}-smoke.json") as fh:
        recorded = json.load(fh)["metrics"]
    for m in expected:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
        assert recorded[m["name"]]["samples"] >= 1
        assert f"{m['name']} " in proc.stdout


def _spnn_modules():
    return {n: m for n, m in sys.modules.items() if n == "spnn" or n.startswith("spnn.")}


def test_shim_wraps_importers_and_restores_every_function():
    sys.path.insert(0, str(run.SRC))
    importlib.import_module("spnn.cli")
    before = {n: dict(vars(m)) for n, m in _spnn_modules().items()}
    patched = shim.install(shim.Tracer())
    try:
        wrapped = {(mod.__name__, attr) for mod, attr, _ in patched}
        for name in ("mesh.compile_layer", "propagation.network_cascade",
                     "device.mzi_transfer", "numerics.svd", "data.build_default_dataset"):
            layer, fn = name.split(".")
            assert (f"spnn.{layer}", fn) in wrapped
        for importer in (("spnn.analysis", "compile_layer"),
                         ("spnn.cli", "propagate_with_crosstalk"),
                         ("spnn.propagation", "mzi_transfer")):
            assert importer in wrapped
    finally:
        shim.restore(patched)
    after = {n: dict(vars(m)) for n, m in _spnn_modules().items()}
    assert after.keys() == before.keys()
    for modname, attrs in after.items():
        assert attrs.keys() == before[modname].keys()
        for attr, obj in attrs.items():
            assert obj is before[modname][attr], (modname, attr)


def _runner(tmp_path: Path, name: str) -> run.Runner:
    return run.Runner(name, 5, True, tmp_path, time.monotonic() + 120.0)


def test_self_times_partition_the_traced_time(tmp_path):
    runner = _runner(tmp_path, "penalty-deep")
    spans = tmp_path / "spans.json"
    rep = runner.rep(5, spans)
    assert rep.error is None
    split = run.span_split(spans)
    assert split["self_sum_s"] <= split["wall_s"]
    calls, busy, self_s = split["split"]["mesh.compile_layer"]
    assert calls == 2 * 2 and 0.0 < self_s <= busy
    assert split["counts"]["mesh.mzis_compiled"] == 2 * 2 * 8 * 7


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_corrupted_csv_counts_as_failed_run(tmp_path, workload):
    runner = _runner(tmp_path, workload)
    rep = runner.rep(5)
    assert rep.error is None
    rows = rep.csv_text.splitlines()
    header, first = rows[0].split(","), rows[1].split(",")
    value_col = next(
        i for i, c in enumerate(header) if c not in runner.wl.key_columns
    )
    key_col = header.index(runner.wl.key_columns[0])

    def with_cell(col, cell):
        row = list(first)
        row[col] = cell
        return "\n".join([rows[0], ",".join(row)] + rows[2:]) + "\n"

    corrupted = [
        "",
        "\n".join(rows[:-1]) + "\n",
        with_cell(value_col, "garbage"),
        with_cell(value_col, "nan"),
        with_cell(value_col, "1e300"),
        with_cell(key_col, "99"),
    ]
    # A run judges each process by the CSV it left behind.
    out = next(tmp_path.glob("p*"))
    csv_path = out / f"{runner.wl.command}.csv"
    for text in corrupted:
        csv_path.write_text(text)
        assert runner.judge(rep.proc, out, 5).error is not None
    csv_path.unlink()
    assert runner.judge(rep.proc, out, 5).error == "no CSV written"


def _scale_first_value(text: str, key_columns, factor: float) -> str:
    rows = text.splitlines()
    header, first = rows[0].split(","), rows[1].split(",")
    col = next(i for i, c in enumerate(header) if c not in key_columns)
    first[col] = repr(float(first[col]) * factor)
    return "\n".join([rows[0], ",".join(first)] + rows[2:]) + "\n"


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_recorded_seed_is_checked_cell_by_cell(tmp_path, workload):
    """At a recorded seed a rounding-level change passes and a change far
    inside the band fails."""
    runner = _runner(tmp_path, workload)
    out = tmp_path / "out"
    out.mkdir()
    csv_path = out / f"{runner.wl.command}.csv"
    recorded = runner.entry["csv"][str(run.DEFAULT_SEED)]
    ok = run.Proc(0, 1.0, 1)
    for factor, passes in ((1 + 1e-9, True), (1 + 1e-4, False)):
        csv_path.write_text(_scale_first_value(recorded, runner.wl.key_columns, factor))
        assert (runner.judge(ok, out, run.DEFAULT_SEED).error is None) is passes
        # Without a reference at the seed, only the band applies.
        assert runner.judge(ok, out, 5).error is None


def test_band_admits_the_held_out_seed():
    for name, wl in run.WORKLOADS.items():
        entry = run.reference_entry(run.load_reference(), name, False)
        widening = run.band_widening(entry, wl.key_columns)
        assert 0.0 <= widening < math.inf
        held_out = entry["csv"][str(entry["held_out_seed"])]
        assert run.check_csv(entry, wl.key_columns, held_out, None, widening) is None


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = _bench("--workload", "layer-small", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_all_workloads_in_one_command():
    proc = _bench("--workload", "all", "--seed", "5", "--seconds", "0.1",
                  "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    summary = proc.stdout.strip().splitlines()[-1 - len(run.WORKLOADS):-1]
    for name, line in zip(sorted(run.WORKLOADS), summary):
        assert line.startswith(name) and "fail_ratio 0.0000" in line
        for m in SPEC["end_to_end"]:
            assert f"{m['name']} " in line and f"{name}.{m['name']}" in result["metrics"]


def _processes_mentioning(text: str) -> list[int]:
    found = []
    for entry in Path("/proc").iterdir():
        try:
            if entry.name.isdigit() and text.encode() in (entry / "cmdline").read_bytes():
                found.append(int(entry.name))
        except OSError:
            pass
    return found


def test_terminated_run_stops_its_children():
    tag = "work-layer-small-seed424242-trace0"
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", "layer-small",
         "--seed", "424242", "--seconds", "30", "--trace", "0"],
        cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        for _ in range(100):
            time.sleep(0.1)
            if any(p != proc.pid for p in _processes_mentioning(tag)):
                break
        proc.terminate()
        out, _ = proc.communicate(timeout=30)
    finally:
        proc.kill()
    assert proc.returncode != 0 and out.strip() == b""
    assert _processes_mentioning(tag) == []
    assert not list(run.RUNS.glob(tag + "-*"))
