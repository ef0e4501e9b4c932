#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``spnn`` CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload penalty-deep --seed 1 --seconds 40 --trace 0

Each workload is one real ``spnn`` command, run as a fresh process, again
and again until the ``--seconds`` window is used up. ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates
untraced and traced processes (see ``shim.py``) and reports the per-layer
metrics. Every run first runs the workload once at the default seed and
checks its CSV cell by cell against the one recorded in ``reference.json``;
every other process's CSV is checked against that file too. The last line
of standard output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the lines before it and
``_runs/<workload>-seed<seed>-trace<t>.json`` hold the same metrics with
their sample counts and the run's environment.

``--smoke`` runs tiny versions of the workloads, for the benchmark's own
tests (``python3 -m pytest perfbench``).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from shim import SPAN_ARRAYS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "_runs"
SHIM = BENCH / "shim.py"
REFERENCE = BENCH / "reference.json"

# One BLAS thread: on two shared cores, two threads spread an N=32
# xtalk-grid with 360 evaluation samples over 5.3-7.2 s, against 6.05-6.33 s
# with one.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
HOST_NOTE = "2-core shared sandbox, no system-wide tracing"
# A run must end within 180 s; no child may outlive this.
HARD_LIMIT_S = 170.0
SETUP_PROBES_PER_REP = 3
# ExperimentConfig's default seed. Every run starts with one untimed
# process at this seed, whose CSV must match its recording.
DEFAULT_SEED = 123
# At a recorded seed every value cell must match the recorded one to this
# relative tolerance: reordered floating-point sums pass, a physics change
# does not. A change that alters the random stream on purpose re-records
# reference.json (record_reference.py).
REL_TOL = 1e-6
ABS_TOL = 1e-12
# At any other seed a value cell must lie in the recorded seeds' range,
# widened on each side by this many times the largest leave-one-out excess
# the recorded seeds show (see band_widening), or times the cell's smallest
# recorded step, whichever is more.
BAND_MARGIN = 2.0


@dataclass(frozen=True)
class Workload:
    command: str
    sets: tuple[str, ...]
    items: int  # networks, trials or grid cells completed per process
    key_columns: tuple[str, ...]  # CSV columns that must match exactly

    def cli_args(self, seed: int, out_dir: Path) -> list[str]:
        args = [self.command]
        for s in self.sets:
            args += ["--set", s]
        return args + ["--seed", str(seed), "--out", str(out_dir)]


# Why each workload exists: see README.md. Each process takes 1.5-3.5 s, so
# a 40 s run holds about a dozen of them and its median shrugs off the
# few-second slow spells of a shared host. The smoke variants keep the
# command and shrink the sizes.
WORKLOADS = {
    "penalty-deep": Workload(
        "power-penalty",
        ("n_list=64", "m_list=3", "network_trials=2"),
        2, ("n", "m"),
    ),
    "layer-small": Workload(
        "layer-stats",
        ("n=8", "trials=600"),
        600, ("port",),
    ),
    "xtalk-grid32": Workload(
        "xtalk-grid",
        ("n=32", "n_features=32", "n_per_class=75", "xb_grid=-30,-25", "xc_grid=-18"),
        2, ("xb_db", "xc_db"),
    ),
}
SMOKE_WORKLOADS = {
    "penalty-deep": Workload(
        "power-penalty",
        ("n_list=8", "m_list=2", "network_trials=2"),
        2, ("n", "m"),
    ),
    "layer-small": Workload(
        "layer-stats",
        ("n=4", "trials=20"),
        20, ("port",),
    ),
    "xtalk-grid32": Workload(
        "xtalk-grid",
        ("n=8", "n_features=8", "n_per_class=20", "epochs=20",
         "xb_grid=-30,-25", "xc_grid=-18"),
        2, ("xb_db", "xc_db"),
    ),
}

# Layer functions whose calls, busy time and self time the traced run
# reports (every wrapped function appears in the printed table).
REPORTED_FUNCTIONS = (
    "mesh.compile_layer",
    "mesh.clements_decompose",
    "mesh.lossless_cell",
    "numerics.svd",
    "numerics.db_to_field",
    "propagation.network_cascade",
    "propagation.propagate_signal",
    "propagation.propagate_with_crosstalk",
    "propagation.resolve_crosstalk_fields",
    "device.mzi_transfer",
    "device.crosstalk_coefficient",
    "device.crosstalk_mean_db",
    "analysis.penalty_statistics",
    "analysis.power_penalty",
    "analysis.accuracy_eval",
    "analysis.crosstalk_grid",
    "analysis.train_reference",
    "data.build_default_dataset",
)


# --------------------------------------------------------------------------
# Output check
# --------------------------------------------------------------------------

def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def reference_entry(reference: dict, name: str, smoke: bool) -> dict:
    key = name + (".smoke" if smoke else "")
    entry = reference["workloads"][key]
    wl = (SMOKE_WORKLOADS if smoke else WORKLOADS)[name]
    if entry["args"] != wl.cli_args(0, Path("OUT")):
        raise SystemExit(
            f"reference.json was recorded for other arguments of {key}; "
            "re-record it with perfbench/record_reference.py"
        )
    return entry


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def band_seeds(entry: dict) -> list[str]:
    """Recorded seeds that define the band: all but the held-out one."""
    held_out = str(entry["held_out_seed"])
    return [s for s in entry["csv"] if s != held_out]


def band_widening(entry: dict, key_columns: tuple[str, ...]) -> float:
    """Widening of the band, in units of a cell's recorded range.

    Leave-one-out over the band seeds: for each seed and value cell, the
    excess is how far the seed's value lies outside the range of the other
    seeds' values, in units of that range (0 inside it). The widening is
    :data:`BAND_MARGIN` times the largest excess.
    """
    tables = [_rows(entry["csv"][s]) for s in band_seeds(entry)]
    header = tables[0][0]
    worst = 0.0
    for r in range(1, len(tables[0])):
        for c, column in enumerate(header):
            if column in key_columns:
                continue
            values = [float(t[r][c]) for t in tables]
            for i, v in enumerate(values):
                others = values[:i] + values[i + 1:]
                lo, hi = min(others), max(others)
                if lo <= v <= hi:
                    continue
                if hi == lo:
                    return math.inf
                worst = max(worst, (lo - v) / (hi - lo), (v - hi) / (hi - lo))
    return BAND_MARGIN * worst


def check_csv(
    entry: dict, key_columns: tuple[str, ...], text: str,
    expected: str | None, widening: float,
) -> str | None:
    """Return why a CSV is wrong, or None.

    The header, row count and key columns must equal the recorded ones, and
    every other cell must be a finite number. With ``expected`` (the CSV
    recorded at this seed) each such cell must equal the recorded one to
    :data:`REL_TOL`. Without it, the cell must lie inside the range the
    band seeds span, widened on each side by ``widening`` times that range
    or twice its smallest step, whichever is more: a sanity check for seeds
    that have no reference.
    """
    recorded = [_rows(entry["csv"][s]) for s in band_seeds(entry)]
    header = recorded[0][0]
    rows = _rows(text)
    if not rows or rows[0] != header:
        return f"header {rows[0] if rows else None} != {header}"
    if len(rows) != len(recorded[0]):
        return f"{len(rows) - 1} data rows, expected {len(recorded[0]) - 1}"
    reference = _rows(expected) if expected is not None else None
    for r in range(1, len(rows)):
        if len(rows[r]) != len(header):
            return f"row {r} has {len(rows[r])} cells, expected {len(header)}"
        for c, column in enumerate(header):
            cell = rows[r][c]
            if column in key_columns:
                if cell != recorded[0][r][c]:
                    return f"row {r} {column}={cell!r}, expected {recorded[0][r][c]!r}"
                continue
            try:
                value = float(cell)
            except ValueError:
                return f"row {r} {column}={cell!r} is not a number"
            if not math.isfinite(value):
                return f"row {r} {column}={cell} is not finite"
            if reference is not None:
                want = float(reference[r][c])
                if not math.isclose(value, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                    return f"row {r} {column}={value!r}, recorded {want!r}"
                continue
            band = sorted({float(rec[r][c]) for rec in recorded})
            lo, hi = band[0], band[-1]
            # A cell with few distinct values (an accuracy over 180
            # samples) ties at its extremes, so its leave-one-out excess is
            # 0: pad it by at least BAND_MARGIN of its smallest step.
            step = min((b - a for a, b in zip(band, band[1:])), default=0.0)
            pad = max(widening * (hi - lo), BAND_MARGIN * step)
            if not lo - pad <= value <= hi + pad:
                return f"row {r} {column}={value} outside [{lo - pad}, {hi + pad}]"
    return None


# --------------------------------------------------------------------------
# Processes
# --------------------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


@dataclass
class Proc:
    returncode: int
    wall_s: float
    maxrss_kb: int


# SIGTERM sets the flag and kills the child being waited on; spawn() then
# reaps it and raises SystemExit, so a terminated run leaves no process.
_stopping = threading.Event()
_waiting_on: list[subprocess.Popen] = []


def _terminate(signum, frame):
    _stopping.set()
    for proc in _waiting_on:
        proc.kill()


def spawn(argv: list[str], log: Path, deadline: float) -> Proc:
    """Run one child to completion; kill it at ``deadline`` (monotonic)."""
    if _stopping.is_set():
        raise SystemExit(143)
    t0 = time.perf_counter()
    with open(log, "wb") as fh:
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=fh, stderr=subprocess.STDOUT
        )
    _waiting_on.append(proc)
    if _stopping.is_set():
        proc.kill()
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        _waiting_on.remove(proc)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if _stopping.is_set():
        raise SystemExit(143)
    return Proc(proc.returncode, wall, usage.ru_maxrss)


@dataclass
class Rep:
    proc: Proc
    csv_text: str | None
    error: str | None


class Runner:
    def __init__(self, name: str, seed: int, smoke: bool, work: Path, deadline: float):
        self.seed = seed
        self.wl = (SMOKE_WORKLOADS if smoke else WORKLOADS)[name]
        self.entry = reference_entry(load_reference(), name, smoke)
        self.widening = band_widening(self.entry, self.wl.key_columns)
        self.work = work
        self.deadline = deadline
        self.count = 0

    def _out_dir(self) -> Path:
        self.count += 1
        out = self.work / f"p{self.count}"
        out.mkdir()
        return out

    def setup(self) -> float:
        out = self._out_dir()
        argv = [sys.executable, str(SHIM), "setup", "--"]
        proc = spawn(argv + self.wl.cli_args(self.seed, out), out / "log", self.deadline)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed; see {out / 'log'}")
        return proc.wall_s

    def rep(self, seed: int, spans: Path | None = None) -> Rep:
        out = self._out_dir()
        if spans is None:
            argv = [sys.executable, "-m", "spnn.cli"]
        else:
            argv = [sys.executable, str(SHIM), "trace", str(spans), "--"]
        proc = spawn(argv + self.wl.cli_args(seed, out), out / "log", self.deadline)
        return self.judge(proc, out, seed)

    def judge(self, proc: Proc, out: Path, seed: int) -> Rep:
        """A process fails if it exits nonzero, writes no CSV, or its CSV
        fails :func:`check_csv` (against the CSV recorded at ``seed``, if
        there is one)."""
        csv_path = out / f"{self.wl.command}.csv"
        text = csv_path.read_text(encoding="utf-8") if csv_path.exists() else None
        if proc.returncode != 0:
            error = f"exit code {proc.returncode}"
        elif text is None:
            error = "no CSV written"
        else:
            error = check_csv(
                self.entry, self.wl.key_columns, text,
                self.entry["csv"].get(str(seed)), self.widening,
            )
        return Rep(proc, text, error)


# --------------------------------------------------------------------------
# Spans
# --------------------------------------------------------------------------

def span_split(spans: Path) -> dict:
    """Calls, busy and self seconds per wrapped function from a span file.

    Busy time sums a function's spans, skipping a span whose parent is the
    same function (direct recursion). Self time is a span's duration minus
    its direct children's; it partitions the traced time, so its sum over
    all functions is at most the traced wall time.
    """
    import numpy as np

    with open(spans, encoding="utf-8") as fh:
        doc = json.load(fh)
    n = doc["spans"]
    arrays = {}
    with open(str(spans) + ".bin", "rb") as fh:
        for attr, typecode in SPAN_ARRAYS:
            dtype = {"i": np.int32, "q": np.int64, "d": np.float64}[typecode]
            arrays[attr] = np.fromfile(fh, dtype=dtype, count=n)
    name_of, parent = arrays["name_of"], arrays["parent"]
    dur = arrays["end"] - arrays["start"]
    k = len(doc["names"])
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
    self_time = dur - child[:n]
    outer = ~nested | (name_of[np.where(nested, parent, 0)] != name_of)
    calls = np.bincount(name_of, minlength=k)
    busy = np.bincount(name_of[outer], weights=dur[outer], minlength=k)
    selfs = np.bincount(name_of, weights=self_time, minlength=k)
    split = {
        name: (int(calls[i]), float(busy[i]), float(selfs[i]))
        for i, name in enumerate(doc["names"])
    }
    return {
        "split": split,
        "counts": doc["counts"],
        "wall_s": doc["wall_s"],
        "self_sum_s": float(selfs.sum()),
    }


# --------------------------------------------------------------------------
# Environment record
# --------------------------------------------------------------------------

def environment() -> dict:
    import numpy as np

    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": BLAS_ENV,
        "nproc": len(os.sched_getaffinity(0)),
        "host": HOST_NOTE,
    }


# --------------------------------------------------------------------------
# Runs
# --------------------------------------------------------------------------

def metric(value, unit: str, samples: list) -> dict:
    return {"value": value, "unit": unit, "samples": len(samples)}


def sampled(value, unit: str, samples: list[float]) -> dict:
    """A metric that also keeps its raw samples in the run's record."""
    return dict(metric(value, unit, samples), raw=samples)


def mark_divergent(reps: list[Rep]) -> None:
    """Processes of one run at one seed must write byte-identical CSVs."""
    first = next((r.csv_text for r in reps if r.error is None), None)
    for r in reps:
        if r.error is None and r.csv_text != first:
            r.error = "CSV differs from the first one written at this seed"


def measure_end_to_end(run: Runner, seconds: float) -> tuple[dict, list[Rep]]:
    # Checked against its recording; also the warm-up (byte-compiles src,
    # fills the page cache). It counts against the window.
    t0 = time.monotonic()
    reference = run.rep(DEFAULT_SEED)
    setups: list[float] = []
    reps: list[Rep] = []
    while True:
        it0 = time.monotonic()
        setups += [run.setup() for _ in range(SETUP_PROBES_PER_REP)]
        reps.append(run.rep(run.seed))
        elapsed = time.monotonic() - t0
        if elapsed + (time.monotonic() - it0) > seconds:
            break
    mark_divergent(reps)
    walls = [r.proc.wall_s for r in reps]
    wall_s, setup_s = median(walls), median(setups)
    rss = [r.proc.maxrss_kb / 1024.0 for r in reps]
    metrics = {
        "wall_s": sampled(wall_s, "s", walls),
        "setup_s": sampled(setup_s, "s", setups),
        "items_per_s": metric(run.wl.items / (wall_s - setup_s), "1/s", walls),
        "peak_rss_mb": sampled(median(rss), "MB", rss),
    }
    return metrics, reps + [reference]


def measure_per_layer(run: Runner, seconds: float) -> tuple[dict, list[Rep], list[dict]]:
    t0 = time.monotonic()
    reference = run.rep(DEFAULT_SEED)
    reps: list[Rep] = []
    plain: list[float] = []
    traced: list[float] = []
    splits: list[dict] = []
    while True:
        it0 = time.monotonic()
        spans = run.work / f"spans{len(plain)}.json"
        # Alternate which of the pair goes first, so an order effect cancels.
        if len(plain) % 2:
            rep = run.rep(run.seed, spans)
            base = run.rep(run.seed)
        else:
            base = run.rep(run.seed)
            rep = run.rep(run.seed, spans)
        reps += [base, rep]
        plain.append(base.proc.wall_s)
        traced.append(rep.proc.wall_s)
        if spans.exists():
            splits.append(span_split(spans))
            spans.unlink()
            Path(str(spans) + ".bin").unlink()
        elapsed = time.monotonic() - t0
        if elapsed + (time.monotonic() - it0) > seconds:
            break
    if not splits:
        raise SystemExit("no traced process wrote its spans")
    mark_divergent(reps)
    identical = reference.csv_text == run.entry["csv"][str(DEFAULT_SEED)]

    metrics = {}
    for name in REPORTED_FUNCTIONS:
        rows = [s["split"].get(name, (0, 0.0, 0.0)) for s in splits]
        calls = [r[0] for r in rows]
        metrics[f"{name}.calls"] = metric(int(median(calls)), "count", calls)
        metrics[f"{name}.busy_s"] = metric(median([r[1] for r in rows]), "s", rows)
        metrics[f"{name}.self_s"] = metric(median([r[2] for r in rows]), "s", rows)
    counts = splits[-1]["counts"]
    metrics["mesh.mzis_compiled"] = metric(counts["mesh.mzis_compiled"], "count", splits)
    metrics["propagation.leak_components"] = metric(
        counts["propagation.leak_components"], "count", splits
    )
    metrics["propagation.leak_bank_mb"] = metric(
        counts["propagation.leak_bank_bytes"] / 2**20, "MB", splits
    )
    metrics["trace_overhead_s"] = metric(median(traced) - median(plain), "s", traced)
    metrics["out.csv_identical"] = metric(int(identical), "flag", [reference])
    return metrics, reps + [reference], splits


def print_split(splits: list[dict]) -> None:
    last = splits[-1]
    print(f"traced process: {last['wall_s']:.4f} s inside main, "
          f"self times sum to {last['self_sum_s']:.4f} s")
    print(f"{'function':44s} {'calls':>9s} {'busy_s':>10s} {'self_s':>10s}")
    for name, (calls, busy, self_s) in sorted(
        last["split"].items(), key=lambda kv: -kv[1][2]
    ):
        if calls:
            print(f"{name:44s} {calls:9d} {busy:10.4f} {self_s:10.4f}")


def bench(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """One run of one workload: print its report, write its record, and
    return the result object."""
    tag = f"{name}-seed{seed}-trace{trace}" + ("-smoke" if smoke else "")
    RUNS.mkdir(exist_ok=True)
    work = RUNS / f"work-{tag}-{os.getpid()}"
    work.mkdir()
    try:
        run = Runner(name, seed, smoke, work, time.monotonic() + HARD_LIMIT_S)
        splits = None
        if trace:
            metrics, reps, splits = measure_per_layer(run, seconds)
        else:
            metrics, reps = measure_end_to_end(run, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in reps if r.error is not None]
    env = environment()
    print(f"workload {name} seed {seed} trace {trace}: "
          f"{len(reps)} processes, {len(failed)} failed")
    for r in failed:
        print(f"  failed: {r.error}")
    print("environment: " + json.dumps(env, sort_keys=True))
    if splits:
        print_split(splits)
    fail_ratio = len(failed) / len(reps)
    print(f"{'fail_ratio':28s} {fail_ratio:24.4f} ratio  n={len(reps)} ({len(failed)} failed)")
    for key, m in metrics.items():
        print(f"{key:28s} {m['value']!r:>24} {m['unit']:6s} n={m['samples']}")
    doc = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "smoke": smoke,
        "environment": env,
        "attempted": len(reps),
        "failed": len(failed),
        "fail_ratio": fail_ratio,
        "errors": [r.error for r in failed],
        "metrics": metrics,
    }
    with open(RUNS / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return {
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for self-tests")
    args = parser.parse_args(argv)

    if not (SRC / "spnn" / "cli.py").is_file():
        print(f"error: no spnn sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = bench(name, args.seed, args.seconds, args.trace, args.smoke)
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print()
    for name, res in results.items():
        shown = [] if args.trace else [
            f"{k} {m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items()
        ]
        shown.append(f"fail_ratio {res['failed'] / res['attempted']:.4f}")
        print(f"{name:14s} " + "  ".join(shown))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{k}": m for name, r in results.items() for k, m in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
