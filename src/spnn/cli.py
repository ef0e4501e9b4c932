"""Command-line experiment orchestration and deterministic CSV emission.

Every command resolves one :class:`ExperimentConfig` (defaults, then
``--config`` file, then ``--set key=value`` overrides, then ``--seed`` /
``--out`` flags), runs the experiment, and writes next to each CSV a JSON
echo of the fully resolved configuration so any run is reproducible from
its artifacts alone. All numbers are emitted at 17 significant digits so a
parse-back reproduces the exact binary values.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from spnn.analysis import (
    EXPECTED_ALPHA_RANGES,
    ComplexMlp,
    TrainResult,
    _layer_trials,
    accuracy_eval,
    crosstalk_grid,
    joint_loss_sample,
    loss_sweep,
    network_statistics,
    penalty_statistics,
    tolerance_search,
    train_reference,
)
from spnn.config import (
    ExperimentConfig,
    apply_overrides,
    load_config,
    resolve_out_dir,
)
from spnn.data import FeatureDataset, build_default_dataset, featurize, ingest_idx
from spnn.device import PhasePair, crosstalk_mean_db, mzi_transfer, output_insertion_loss
from spnn.mesh import compile_layer, layout_to_json
from spnn.numerics import Rng, mw_to_dbm, power_to_db
# Not called here; perfbench/test_perfbench.py checks its tracer wraps it here.
from spnn.propagation import propagate_with_crosstalk  # noqa: F401

__all__ = ["main", "emit_csv", "run_experiment"]


# --------------------------------------------------------------------------
# CSV emission
# --------------------------------------------------------------------------

def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def emit_csv(header: list[str], rows: list[list], path: str) -> None:
    """Write a rectangular table: minimal RFC-4180 quoting, 17 significant
    digits, UTF-8, trailing newline. An empty table yields a header-only
    file."""
    width = len(header)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(
                f"row {i} has {len(row)} cells, header has {width}"
            )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


# --------------------------------------------------------------------------
# Shared helpers
# --------------------------------------------------------------------------

def _load_dataset(cfg: ExperimentConfig) -> FeatureDataset:
    if bool(cfg.images_path) != bool(cfg.labels_path):
        raise ValueError("images_path and labels_path must be set together")
    if cfg.images_path:
        images, labels = ingest_idx(cfg.images_path, cfg.labels_path)
        n_classes = int(labels.max()) + 1 if labels.size else 0
        return featurize(
            images,
            labels,
            cfg.n_features,
            n_classes,
            provenance={"source": cfg.images_path},
        )
    return build_default_dataset(
        n_per_class=cfg.n_per_class,
        n_features=cfg.n_features,
        seed=cfg.dataset_seed,
    )


def _split_dataset(cfg: ExperimentConfig):
    dataset = _load_dataset(cfg)
    return dataset.split(cfg.train_fraction, Rng(cfg.seed).spawn(1))


def _save_model(model: ComplexMlp, path: str) -> None:
    doc = {
        "bias": model.bias,
        "weights": [
            {"real": w.real.tolist(), "imag": w.imag.tolist()}
            for w in model.weights
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _load_model(path: str) -> ComplexMlp:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    weights = [
        np.array(w["real"], dtype=float) + 1j * np.array(w["imag"], dtype=float)
        for w in doc["weights"]
    ]
    return ComplexMlp(weights, bias=float(doc["bias"]))


def _train(cfg: ExperimentConfig, train_set: FeatureDataset) -> TrainResult:
    return train_reference(
        (cfg.n, cfg.m),
        train_set,
        epochs=cfg.epochs,
        rng=Rng(cfg.seed).spawn(2),
        lr=cfg.lr,
        bias=cfg.bias,
        temp=cfg.temp,
    )


def _trained_model(cfg: ExperimentConfig, train_set: FeatureDataset) -> ComplexMlp:
    if cfg.model_file:
        return _load_model(cfg.model_file)
    return _train(cfg, train_set).model


def _load_weight_matrix(cfg: ExperimentConfig) -> np.ndarray:
    if cfg.weight_file:
        with open(cfg.weight_file, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        real = np.array(doc["real"], dtype=float)
        imag = np.array(doc.get("imag", np.zeros_like(real).tolist()), dtype=float)
        return real + 1j * imag
    return Rng(cfg.seed).standard_normal((cfg.n, cfg.n))


# --------------------------------------------------------------------------
# Command implementations: each returns (header, rows, extra_artifacts)
# --------------------------------------------------------------------------

def _cmd_device_sweep(cfg, out_dir):
    p = cfg.mzi_params()
    rows = []
    for theta in np.linspace(0.0, math.pi, cfg.theta_points):
        il1, il2 = output_insertion_loss(p, PhasePair(float(theta)))
        t = mzi_transfer(p, PhasePair(float(theta)))
        x_lin = 10.0 ** (crosstalk_mean_db(p, float(theta)) / 10.0)
        row_power = np.sum(np.abs(t) ** 2, axis=1)
        # The leak matrix is row-swapped T: output 1 leaks with row 2's
        # optical throughput and vice versa.
        xp1 = cfg.launch_power_dbm + float(mw_to_dbm(x_lin * row_power[1]))
        xp2 = cfg.launch_power_dbm + float(mw_to_dbm(x_lin * row_power[0]))
        rows.append([float(theta), il1, il2, xp1, xp2])
    return ["theta", "il_o1_db", "il_o2_db", "xp_o1_dbm", "xp_o2_dbm"], rows


def _quartiles(samples: np.ndarray) -> list[float]:
    qs = np.percentile(samples, [0, 25, 50, 75, 100])
    return [float(qs[0]), float(qs[1]), float(qs[2]), float(qs[3]),
            float(qs[4]), float(samples.mean())]


def _cmd_layer_stats(cfg, out_dir):
    p = cfg.mzi_params()
    launch_mw = 10.0 ** (cfg.launch_power_dbm / 10.0)
    il_db, xp_dbm = [], []
    for ratios, amps in _layer_trials(cfg.n, p, cfg.trials, cfg.seed, launch_mw):
        il_db.append(power_to_db(ratios))
        xp_dbm.append(mw_to_dbm(np.sum(amps**2, axis=1)))
    il_db, xp_dbm = np.array(il_db).T, np.array(xp_dbm).T  # (port, trial)
    header = ["port"]
    for prefix in ("il", "xp"):
        unit = "db" if prefix == "il" else "dbm"
        header += [
            f"{prefix}_{stat}_{unit}"
            for stat in ("min", "q1", "median", "q3", "max", "mean")
        ]
    rows = [
        [port] + _quartiles(il_db[port]) + _quartiles(xp_dbm[port])
        for port in range(cfg.n)
    ]
    return header, rows


def _cmd_network_stats(cfg, out_dir):
    p = cfg.mzi_params()
    rows = []
    for n in cfg.n_list:
        for m in cfg.m_list:
            st = network_statistics(
                int(n), int(m), p, trials=cfg.network_trials, seed=cfg.seed
            )
            rows.append(
                [int(n), int(m), st.il_avg_db, st.il_worst_db,
                 cfg.launch_power_dbm + st.xp_avg_dbm,
                 cfg.launch_power_dbm + st.xp_worst_dbm]
            )
    return (
        ["n", "m", "il_avg_db", "il_worst_db", "xp_avg_dbm", "xp_worst_dbm"],
        rows,
    )


def _cmd_power_penalty(cfg, out_dir):
    p = cfg.mzi_params()
    rows = []
    for n in cfg.n_list:
        for m in cfg.m_list:
            avg, worst, _ = penalty_statistics(
                int(n),
                int(m),
                p,
                trials=cfg.network_trials,
                seed=cfg.seed,
                sensitivity_dbm=cfg.sensitivity_dbm,
            )
            rows.append([int(n), int(m), avg, worst])
    return ["n", "m", "penalty_avg_dbm", "penalty_worst_dbm"], rows


def _cmd_compile(cfg, out_dir):
    w = _load_weight_matrix(cfg)
    layout = compile_layer(w)
    layout_path = os.path.join(out_dir, "layout.json")
    with open(layout_path, "w", encoding="utf-8") as fh:
        fh.write(layout_to_json(layout))
    n_mzi = len(layout.v_mesh) + len(layout.u_mesh)
    rows = [[layout.n, n_mzi, layout.s_max, layout.sigma_deficit_db()]]
    return ["n", "mesh_mzi_count", "s_max", "sigma_deficit_db"], rows


def _cmd_train(cfg, out_dir):
    train_set, eval_set = _split_dataset(cfg)
    result = _train(cfg, train_set)
    _save_model(result.model, os.path.join(out_dir, "model.json"))
    eval_acc = 100.0 * float(
        np.mean(result.model.predict(eval_set.features) == eval_set.labels)
    )
    print(
        f"train accuracy {result.train_accuracy_pct:.2f}% | "
        f"eval accuracy {eval_acc:.2f}% | converged: {result.converged}"
    )
    rows = [[e, loss] for e, loss in enumerate(result.loss_curve)]
    return ["epoch", "loss"], rows


def _cmd_accuracy(cfg, out_dir):
    train_set, eval_set = _split_dataset(cfg)
    model = _trained_model(cfg, train_set)
    p = cfg.mzi_params()
    ideal = 100.0 * float(
        np.mean(model.predict(eval_set.features) == eval_set.labels)
    )
    res = accuracy_eval(
        model,
        eval_set,
        p,
        crosstalk=cfg.crosstalk,
        rng=Rng(cfg.seed).spawn(3) if cfg.crosstalk else None,
    )
    rows = [[res.accuracy_pct, ideal, cfg.crosstalk, res.n_samples]]
    return ["accuracy_pct", "ideal_accuracy_pct", "crosstalk", "n_samples"], rows


def _cmd_loss_sweep(cfg, out_dir):
    if cfg.sweep_axis not in EXPECTED_ALPHA_RANGES:
        raise ValueError(
            f"sweep_axis must be one of {sorted(EXPECTED_ALPHA_RANGES)}"
        )
    train_set, eval_set = _split_dataset(cfg)
    model = _trained_model(cfg, train_set)
    grid = np.linspace(0.0, cfg.sweep_max_db, cfg.sweep_points)
    results = loss_sweep(model, eval_set, cfg.mzi_params(), cfg.sweep_axis, grid)
    rows = [
        [cfg.sweep_axis, float(v), r.accuracy_pct]
        for v, r in zip(grid, results)
    ]
    return ["axis", "alpha_db", "accuracy_pct"], rows


def _cmd_joint_sample(cfg, out_dir):
    train_set, eval_set = _split_dataset(cfg)
    model = _trained_model(cfg, train_set)
    rows = joint_loss_sample(
        model, eval_set, cfg.mzi_params(), cfg.n_instances, Rng(cfg.seed).spawn(4)
    )
    return (
        ["alpha_l_db", "alpha_m_db", "alpha_prop_db", "accuracy_pct"],
        [list(r) for r in rows],
    )


def _cmd_tolerance(cfg, out_dir):
    train_set, eval_set = _split_dataset(cfg)
    model = _trained_model(cfg, train_set)
    limits = tolerance_search(model, eval_set, cfg.mzi_params(), cfg.max_drop_pct)
    rows = [[axis, limits[axis]] for axis in sorted(limits)]
    return ["axis", "max_alpha_db"], rows


def _cmd_xtalk_grid(cfg, out_dir):
    train_set, eval_set = _split_dataset(cfg)
    model = _trained_model(cfg, train_set)
    grid = crosstalk_grid(
        model, eval_set, cfg.mzi_params(), cfg.xb_grid, cfg.xc_grid,
        Rng(cfg.seed).spawn(5),
    )
    rows = []
    for i, xb in enumerate(cfg.xb_grid):
        for j, xc in enumerate(cfg.xc_grid):
            if math.isnan(grid[i, j]):
                continue
            rows.append([float(xb), float(xc), float(grid[i, j])])
    return ["xb_db", "xc_db", "accuracy_pct"], rows


_COMMANDS = {
    "device-sweep": _cmd_device_sweep,
    "layer-stats": _cmd_layer_stats,
    "network-stats": _cmd_network_stats,
    "power-penalty": _cmd_power_penalty,
    "compile": _cmd_compile,
    "train": _cmd_train,
    "accuracy": _cmd_accuracy,
    "loss-sweep": _cmd_loss_sweep,
    "joint-sample": _cmd_joint_sample,
    "tolerance": _cmd_tolerance,
    "xtalk-grid": _cmd_xtalk_grid,
}


def run_experiment(command: str, cfg: ExperimentConfig) -> str:
    """Run one command: write the CSV plus the resolved-config echo and
    return the CSV path."""
    out_dir = resolve_out_dir(cfg)
    os.makedirs(out_dir, exist_ok=True)
    header, rows = _COMMANDS[command](cfg, out_dir)
    csv_path = os.path.join(out_dir, f"{command}.csv")
    emit_csv(header, rows, csv_path)
    config_path = os.path.join(out_dir, f"{command}.config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(cfg.to_json())
    return csv_path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spnn",
        description=(
            "Insertion-loss and coherent-crosstalk studies of MZI-mesh "
            "photonic neural networks"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="JSON config file")
        cmd.add_argument("--seed", type=int, help="master RNG seed")
        cmd.add_argument("--out", help="output directory")
        cmd.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config field (repeatable)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        overrides = list(args.set)
        if args.seed is not None:
            overrides.append(f"seed={args.seed}")
        if args.out is not None:
            overrides.append(f"out_dir={args.out}")
        if overrides:
            cfg = apply_overrides(cfg, overrides)
        csv_path = run_experiment(args.command, cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(csv_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
