#!/usr/bin/env python3
"""Record the reference CSVs that ``run.py`` checks every process against.

Usage (from the repository root)::

    python3 perfbench/record_reference.py

For every workload, full size and smoke size, it runs the CLI once per
recorded seed and stores the CSV text as written, with the commit it was
recorded at. A process at a recorded seed must reproduce its CSV to a tight
tolerance. The default seed and the calibration seeds also define the band
that checks seeds without a reference; the held-out seed is kept out of the
band, so that it shows the band admits a seed it was not built from. Values are stored as they are,
known defects included (negative IL minima in layer-small, grid accuracies
near 1 % in xtalk-grid32).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from run import (
    DEFAULT_SEED,
    REFERENCE,
    RUNS,
    ROOT,
    SMOKE_WORKLOADS,
    WORKLOADS,
    spawn,
)

HELD_OUT_SEED = 99991
# The CLI seeds trial i with seed + i, so seeds closer than the trial count
# (600 in layer-small) would share trials. These are 5000 apart and clear
# of the default and held-out seeds' trials.
CALIBRATION_SEEDS = tuple(range(10000, 90000, 5000))


def record(name: str, smoke: bool, work) -> dict:
    wl = (SMOKE_WORKLOADS if smoke else WORKLOADS)[name]
    texts = {}
    for seed in (DEFAULT_SEED, HELD_OUT_SEED) + CALIBRATION_SEEDS:
        out = work / f"{name}-{int(smoke)}-{seed}"
        out.mkdir()
        argv = [sys.executable, "-m", "spnn.cli"] + wl.cli_args(seed, out)
        proc = spawn(argv, out / "log", time.monotonic() + 600.0)
        if proc.returncode != 0:
            raise SystemExit(f"{name} seed {seed} failed; see {out / 'log'}")
        texts[str(seed)] = (out / f"{wl.command}.csv").read_text(encoding="utf-8")
        print(f"{name}{' (smoke)' if smoke else ''} seed {seed}: {proc.wall_s:.2f} s")
    return {
        "args": wl.cli_args(0, Path("OUT")),
        "held_out_seed": HELD_OUT_SEED,
        "csv": texts,
    }


def main() -> int:
    doc = {
        "commit": subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip(),
        "workloads": {},
    }
    work = RUNS / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for name in sorted(WORKLOADS):
            doc["workloads"][name + ".smoke"] = record(name, True, work)
            doc["workloads"][name] = record(name, False, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
