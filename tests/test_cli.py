"""CLI tests: strict config handling, CSV emission round trips, and
byte-identical reproducibility of command outputs."""

import ast
import ctypes
import dataclasses
import json
import os
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import spnn
import spnn.config
from spnn.analysis import EXPECTED_ALPHA_RANGES, accuracy_eval, loss_sweep
from spnn.cli import _COMMANDS, _split_dataset, _trained_model, emit_csv, main
from spnn.config import (
    OUT_DIR_ENV,
    ExperimentConfig,
    apply_overrides,
    config_from_mapping,
    load_config,
    resolve_out_dir,
)
from spnn.device import MziParams
from spnn.numerics import Rng
from spnn.propagation import GAIN_DB, NAU_LOSS_DB


def test_defaults_match_reference_parameters():
    cfg = ExperimentConfig()
    p = cfg.mzi_params()
    assert (p.kappa1, p.kappa2) == (0.5, 0.5)
    assert p.alpha_l_db == 0.1
    assert p.alpha_m_db == 0.2
    assert p.alpha_p_db_per_cm == 2.0
    assert p.l_mzi_um == 300.0
    assert (p.xb_db, p.xc_db) == (-25.0, -18.0)
    assert (GAIN_DB, NAU_LOSS_DB) == (17.0, 1.0)
    assert cfg.launch_power_dbm == 0.0
    assert cfg.sensitivity_dbm == -11.7


def test_config_carries_every_device_parameter_with_its_default():
    cfg_fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    for f in dataclasses.fields(MziParams):
        assert f.name in cfg_fields, f"MziParams.{f.name} has no config key"
        assert cfg_fields[f.name].default == f.default
    assert ExperimentConfig(xb_db=-30.0).mzi_params() == MziParams(xb_db=-30.0)
    # The device fields are inherited, not copied: config.py declares none.
    assert issubclass(ExperimentConfig, MziParams)
    tree = ast.parse(Path(spnn.config.__file__).read_text(encoding="utf-8"))
    (body,) = [
        node.body
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "ExperimentConfig"
    ]
    declared = {s.target.id for s in body if isinstance(s, ast.AnnAssign)}
    assert declared and not declared & {f.name for f in dataclasses.fields(MziParams)}


def test_config_is_frozen_and_hands_out_plain_device_params():
    cfg = ExperimentConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.n = 16
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.xb_db = -30.0
    assert type(cfg.mzi_params()) is MziParams


def test_empty_config_file_gives_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{}")
    assert load_config(str(path)) == ExperimentConfig()


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown config key"):
        config_from_mapping({"alpha_el_db": 0.2})


def test_crosstalk_ordering_rejected():
    with pytest.raises(ValueError, match="ordering"):
        config_from_mapping({"xb_db": -10.0, "xc_db": -20.0})


def test_malformed_json_reports_location(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": }')
    with pytest.raises(ValueError, match=r"bad\.json:1:"):
        load_config(str(path))


def test_resolved_config_round_trip(tmp_path):
    cfg = apply_overrides(ExperimentConfig(), ["n=16", "alpha_l_db=0.3"])
    path = tmp_path / "resolved.json"
    path.write_text(cfg.to_json())
    assert load_config(str(path)) == cfg


def test_override_parsing():
    cfg = apply_overrides(
        ExperimentConfig(), ["n_list=4,8", "temp=50", "seed=9"]
    )
    assert cfg.n_list == [4, 8]
    assert cfg.temp == 50.0
    assert cfg.seed == 9
    with pytest.raises(ValueError, match="key=value"):
        apply_overrides(ExperimentConfig(), ["n8"])
    with pytest.raises(ValueError, match="unknown config key"):
        apply_overrides(ExperimentConfig(), ["nn=8"])


def test_out_dir_env_default(monkeypatch):
    monkeypatch.setenv(OUT_DIR_ENV, "/tmp/spnn-env-dir")
    assert resolve_out_dir(ExperimentConfig()) == "/tmp/spnn-env-dir"
    monkeypatch.delenv(OUT_DIR_ENV)
    assert resolve_out_dir(ExperimentConfig()) == "spnn-out"
    assert resolve_out_dir(ExperimentConfig(out_dir="x")) == "x"


def test_emit_csv_round_trip_bit_identical(tmp_path):
    path = str(tmp_path / "t.csv")
    values = [np.pi, 1.0 / 3.0, 6.5e-31, -0.0, 12345678901234567.0]
    emit_csv(["v"], [[v] for v in values], path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    parsed = [float(line) for line in lines[1:]]
    for got, want in zip(parsed, values):
        assert got == want and np.signbit(got) == np.signbit(want)


def test_emit_csv_quoting_and_trailing_newline(tmp_path):
    path = tmp_path / "q.csv"
    emit_csv(["name", "x"], [["a,b", 1.5], ['say "hi"', 2]], str(path))
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert '"a,b"' in text
    assert '"say ""hi"""' in text


def test_emit_csv_empty_table_is_header_only(tmp_path):
    path = tmp_path / "e.csv"
    emit_csv(["a", "b"], [], str(path))
    assert path.read_text(encoding="utf-8") == "a,b\n"


def test_emit_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError, match="cells"):
        emit_csv(["a", "b"], [[1]], str(tmp_path / "r.csv"))


def test_device_sweep_schema_and_determinism(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["device-sweep", "--out", str(out1)]) == 0
    assert main(["device-sweep", "--out", str(out2)]) == 0
    b1 = (out1 / "device-sweep.csv").read_bytes()
    assert b1 == (out2 / "device-sweep.csv").read_bytes()
    lines = b1.decode().splitlines()
    assert lines[0] == "theta,il_o1_db,il_o2_db,xp_o1_dbm,xp_o2_dbm"
    assert len(lines) == 102  # header + 101 theta points
    cfg_echo = json.loads((out1 / "device-sweep.config.json").read_text())
    assert cfg_echo["seed"] == ExperimentConfig().seed


def test_layer_stats_reproducible_from_seed(tmp_path):
    args = ["layer-stats", "--set", "trials=4", "--set", "n=4", "--seed", "3"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "layer-stats.csv").read_bytes() == (
        out2 / "layer-stats.csv"
    ).read_bytes()


def test_cli_error_exit_code(tmp_path, capsys):
    assert main(["device-sweep", "--set", "bogus=1", "--out", str(tmp_path)]) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "pair",
    [
        "gain_db=30",
        "nau_loss_db=2",
        "weight_source=file",
        "crosstalk=false",
        "sweep_axis=alpha_m_db",
        "sweep_max_db=0.6",
    ],
)
def test_removed_keys_are_unknown(tmp_path, capsys, pair):
    assert main(["compile", "--set", pair, "--out", str(tmp_path)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_compile_reads_the_weight_file_when_set(tmp_path):
    path = tmp_path / "w.json"
    path.write_text('{"real": [[1.0, 0.0], [0.0, 0.5]]}')
    out = tmp_path / "c"
    assert main(["compile", "--set", f"weight_file={path}", "--out", str(out)]) == 0
    lines = (out / "compile.csv").read_text().splitlines()
    n, n_mzi, s_max, _ = lines[1].split(",")
    assert (int(n), int(n_mzi)) == (2, 2)
    assert float(s_max) == pytest.approx(1.0, rel=1e-12)


def test_network_stats_crosstalk_follows_launch_power(tmp_path):
    """Crosstalk power is linear in the launch power and IL is a ratio, so
    the library works at 1 mW per port and the CLI adds the launch power:
    +10 dBm leaves every other cell byte-identical and moves each xp cell
    of network-stats and layer-stats by exactly 10 dB."""
    runs = {
        "network-stats": ["n_list=4", "m_list=1,2", "network_trials=2"],
        "layer-stats": ["n=8", "trials=50"],
    }
    for command, pairs in runs.items():
        args = [command, "--seed", "5"] + [a for p in pairs for a in ("--set", p)]
        tables = []
        for launch in ("0", "10"):
            out = tmp_path / command / launch
            run = ["--set", f"launch_power_dbm={launch}", "--out", str(out)]
            assert main(args + run) == 0
            lines = (out / f"{command}.csv").read_text().splitlines()
            tables.append([line.split(",") for line in lines])
        base, loud = tables
        assert loud[0] == base[0]
        xp = [col.startswith("xp_") for col in base[0]]
        assert any(xp)
        for b_row, l_row in zip(base[1:], loud[1:]):
            for is_xp, b, l in zip(xp, b_row, l_row):
                assert float(l) == float(b) + 10.0 if is_xp else l == b


def test_compile_names_non_finite_weights(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text('{"real": [[1.0, NaN], [0.5, 2.0]]}')
    args = ["compile", "--set", f"weight_file={path}", "--out", str(tmp_path / "c")]
    assert main(args) == 2
    assert "weights contain NaN or inf" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [
        ("[[1, 0], [0, 1]]", "weight_file must hold a JSON object"),
        ('{"real": [[1, 0], [0, 1]], "imag": [[1]]}', "got (2, 2) and (1, 1)"),
        ('{"real": [1, 2]}', "weight_file needs a 2-D 'real'"),
    ],
    ids=["top_level_list", "imag_of_another_shape", "real_not_2d"],
)
def test_compile_rejects_a_malformed_weight_file(tmp_path, capsys, doc, message):
    path = tmp_path / "w.json"
    path.write_text(doc)
    args = ["compile", "--set", f"weight_file={path}", "--out", str(tmp_path / "c")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "c" / "compile.csv").exists()


_BIAS = "model_file bias must be a finite number"


@pytest.mark.parametrize(
    "doc, message",
    [
        ("[1, 2]", "model_file must hold a JSON object"),
        ('{"bias": 0.1}', "model_file must hold a JSON object"),
        ('{"weights": [{"real": [[1]]}]}', "model_file must hold a JSON object"),
        ('{"weights": [{"real": [1, 0]}], "bias": 0.1}', "needs a 2-D 'real'"),
        (
            '{"weights": [{"real": [[1, 0], [0, 1]], "imag": [[1]]}], "bias": 0.1}',
            "got (2, 2) and (1, 1)",
        ),
        ('{"weights": [{"real": {"a": 1}}], "bias": 0.1}', "each model_file weight: "),
        ('{"weights": [{"real": [[1]]}], "bias": NaN}', _BIAS),
        ('{"weights": [{"real": [[1]]}], "bias": Infinity}', _BIAS),
        ('{"weights": [{"real": [[1]]}], "bias": true}', _BIAS),
        ('{"weights": [{"real": [[1]]}], "bias": 1%s}' % ("0" * 400), _BIAS),
    ],
    ids=[
        "top_level_list",
        "weights_missing",
        "bias_missing",
        "real_not_2d",
        "imag_of_another_shape",
        "real_not_numbers",
        "bias_nan",
        "bias_infinite",
        "bias_bool",
        "bias_int_beyond_float",
    ],
)
def test_accuracy_rejects_a_malformed_model_file(tmp_path, capsys, doc, message):
    path = tmp_path / "model.json"
    path.write_text(doc)
    out = tmp_path / "a"
    args = ["accuracy", "--set", f"model_file={path}", "--set", "n_per_class=5"]
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (out / "accuracy.csv").exists()


_HEADERS = {
    "device-sweep": "theta,il_o1_db,il_o2_db,xp_o1_dbm,xp_o2_dbm",
    "layer-stats": ",".join(
        ["port"]
        + [f"{q}_{s}_{u}" for q, u in (("il", "db"), ("xp", "dbm"))
           for s in ("min", "q1", "median", "q3", "max", "mean")]
    ),
    "network-stats": "n,m,il_avg_db,il_worst_db,xp_avg_dbm,xp_worst_dbm",
    "power-penalty": "n,m,penalty_avg_dbm,penalty_worst_dbm",
    "compile": "n,mesh_mzi_count,s_max,sigma_deficit_db",
    "train": "epoch,loss",
    "accuracy": (
        "accuracy_pct,ideal_accuracy_pct,loss_only_accuracy_pct,"
        "crosstalk_only_accuracy_pct,n_samples"
    ),
    "loss-sweep": "axis,alpha_db,accuracy_pct",
    "joint-sample": "alpha_l_db,alpha_m_db,alpha_prop_db,accuracy_pct",
    "tolerance": "axis,max_alpha_db",
    "xtalk-grid": "xb_db,xc_db,accuracy_pct",
}

# Small enough that all eleven commands run in a few seconds; n=8 because the
# synthetic digit set has 8 classes.
_TINY = [
    "n=8", "m=1", "trials=2", "network_trials=1", "n_list=4", "m_list=1",
    "n_per_class=3", "epochs=3", "theta_points=2", "sweep_points=2",
    "n_instances=1", "xb_grid=-25", "xc_grid=-18",
]


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_every_command_runs_at_a_tiny_config(tmp_path, command):
    out = tmp_path / command
    args = [command, "--seed", "4", "--out", str(out)]
    assert main(args + [a for pair in _TINY for a in ("--set", pair)]) == 0
    lines = (out / f"{command}.csv").read_text().splitlines()
    assert lines[0] == _HEADERS[command] and len(lines) >= 2
    echo = load_config(str(out / f"{command}.config.json"))
    assert echo == apply_overrides(
        ExperimentConfig(), _TINY + ["seed=4", f"out_dir={out}"]
    )


# N=32 over 420 training samples: the trainer's temporaries are 100-215 KB, on
# either side of glibc's default 128 KiB mmap threshold.
_TRAIN = ["train", "--set", "n=32", "--set", "n_features=32", "--set", "n_per_class=75"]
_TRAIN += ["--set", "epochs=20", "--seed", "5"]


def test_main_sets_the_trim_and_mmap_thresholds(tmp_path, monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    assert main(["device-sweep", "--set", "theta_points=3", "--out", str(tmp_path)]) == 0
    assert calls == [(-1, 32 * 2**20), (-3, 32 * 2**20)]


def _refuse_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize(
    "cdll", [_refuse_libc, lambda name: object()],
    ids=["cdll_raises", "libc_without_mallopt"],
)
def test_main_runs_where_mallopt_is_missing(tmp_path, monkeypatch, cdll):
    assert main(_TRAIN + ["--out", str(tmp_path / "normal")]) == 0
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert main(_TRAIN + ["--out", str(tmp_path / "bare")]) == 0
    normal = (tmp_path / "normal" / "train.csv").read_bytes()
    assert (tmp_path / "bare" / "train.csv").read_bytes() == normal


def _child_env(blas_threads: int) -> dict:
    """The environment of a child process that imports this ``spnn`` and runs
    OpenBLAS on ``blas_threads`` threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(spnn.__file__).parents[1]), env.get("PYTHONPATH")) if p
    )
    return env


def test_train_loss_curve_does_not_depend_on_the_heap_thresholds(tmp_path):
    """Two fresh processes, one through ``main`` as the CLI runs it and one
    whose ``ctypes.CDLL`` fails, so its allocator keeps glibc's defaults,
    write the same loss-curve bytes."""
    env = _child_env(1)
    run = (
        "import ctypes, sys\n"
        "if sys.argv[1] == 'bare':\n"
        "    def _refuse(name): raise OSError('no C library')\n"
        "    ctypes.CDLL = _refuse\n"
        "from spnn.cli import main\n"
        "sys.exit(main(sys.argv[2:]))\n"
    )
    for side in ("set", "bare"):
        argv = [sys.executable, "-c", run, side] + _TRAIN + ["--out", str(tmp_path / side)]
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=120)
    curve = (tmp_path / "set" / "train.csv").read_bytes()
    assert curve.count(b"\n") == 21
    assert (tmp_path / "bare" / "train.csv").read_bytes() == curve


def test_trained_weights_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The N=32 trainer in two fresh processes, at one and at two OpenBLAS
    threads, writes the same model bytes."""
    for threads in (1, 2):
        argv = [sys.executable, "-m", "spnn.cli"] + _TRAIN
        argv += ["--set", "epochs=3", "--out", str(tmp_path / str(threads))]
        subprocess.run(
            argv, env=_child_env(threads), check=True, capture_output=True, timeout=120
        )
    model = (tmp_path / "1" / "model.json").read_bytes()
    assert (tmp_path / "2" / "model.json").read_bytes() == model


def test_compile_emits_layout(tmp_path):
    out = tmp_path / "c"
    assert main(["compile", "--out", str(out), "--set", "n=4", "--seed", "5"]) == 0
    layout = json.loads((out / "layout.json").read_text())
    assert layout["n"] == 4


def test_accuracy_rejects_a_model_of_another_port_count(tmp_path, capsys):
    eye = {"real": np.eye(2).tolist(), "imag": np.zeros((2, 2)).tolist()}
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"weights": [eye, eye], "bias": 0.1}))
    out = tmp_path / "a"
    args = ["accuracy", "--set", f"model_file={path}", "--set", "n_per_class=5"]
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: model_file ") and "n_features=8" in err
    assert not (out / "accuracy.csv").exists()


def test_accuracy_command_end_to_end(tmp_path):
    out = tmp_path / "acc"
    args = [
        "accuracy",
        "--out",
        str(out),
        "--set",
        "epochs=30",
        "--set",
        "n_per_class=10",
    ]
    assert main(args) == 0
    lines = (out / "accuracy.csv").read_text().splitlines()
    assert lines[0] == _HEADERS["accuracy"]
    *accuracies, n = lines[1].split(",")
    assert len(accuracies) == 4
    assert all(0.0 <= float(a) <= 100.0 for a in accuracies)
    assert int(n) > 0


def test_accuracy_columns_are_the_library_evaluations(tmp_path):
    """Both, ideal, loss only and crosstalk only: the crosstalk runs draw from
    spawns 3 and 6 of the seed, crosstalk only on the lossless device."""
    sets = ["epochs=30", "n_per_class=10", "seed=3", f"out_dir={tmp_path}"]
    assert main(["accuracy", *[a for p in sets for a in ("--set", p)]]) == 0
    cfg = apply_overrides(ExperimentConfig(), sets)
    train_set, eval_set = _split_dataset(cfg)
    model = _trained_model(cfg, train_set)
    p = cfg.mzi_params()
    ideal = 100.0 * np.mean(model.predict(eval_set.features) == eval_set.labels)
    want = [
        accuracy_eval(
            model, eval_set, p, crosstalk=True, rng=Rng(cfg.seed).spawn(3)
        ).accuracy_pct,
        ideal,
        accuracy_eval(model, eval_set, p).accuracy_pct,
        accuracy_eval(
            model, eval_set, p.lossless(), crosstalk=True, rng=Rng(cfg.seed).spawn(6)
        ).accuracy_pct,
        eval_set.n_samples,
    ]
    row = (tmp_path / "accuracy.csv").read_text().splitlines()[1].split(",")
    assert [float(v) for v in row] == want


def test_loss_sweep_covers_every_axis_to_twice_its_expected_maximum(tmp_path):
    sets = ["epochs=30", "n_per_class=10", "sweep_points=4", f"out_dir={tmp_path}"]
    assert main(["loss-sweep", *[a for p in sets for a in ("--set", p)]]) == 0
    cfg = apply_overrides(ExperimentConfig(), sets)
    train_set, eval_set = _split_dataset(cfg)
    model = _trained_model(cfg, train_set)
    want = []
    for axis, (_, hi) in EXPECTED_ALPHA_RANGES.items():
        grid = np.linspace(0.0, 2.0 * hi, 4)
        results = loss_sweep(model, eval_set, cfg.mzi_params(), axis, grid)
        want += [(axis, v, r.accuracy_pct) for v, r in zip(grid, results)]
    lines = (tmp_path / "loss-sweep.csv").read_text().splitlines()[1:]
    got = [(a, float(v), float(acc)) for a, v, acc in (r.split(",") for r in lines)]
    assert got == want


def test_an_idx_header_claiming_more_than_the_file_holds_exits_2(tmp_path, capsys):
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    images.write_bytes(struct.pack(">IIII", 0x803, 100000, 1000, 1000) + bytes(10))
    labels.write_bytes(struct.pack(">II", 0x801, 100000) + bytes(10))
    out = tmp_path / "a"
    sets = ["--set", f"images_path={images}", "--set", f"labels_path={labels}"]
    assert main(["accuracy", *sets, "--out", str(out)]) == 2
    assert "truncated IDX payload while reading image data" in capsys.readouterr().err
    assert not (out / "accuracy.csv").exists()


@pytest.mark.parametrize(
    "command, sizes, pair",
    [
        ("layer-stats", ["trials=3"], "alpha_l_db=nan"),
        ("layer-stats", ["trials=3"], "launch_power_dbm=nan"),
        (
            "power-penalty",
            ["n_list=4", "m_list=1", "network_trials=1"],
            "sensitivity_dbm=inf",
        ),
        ("compile", ["n=2"], "xb_grid=-30,nan"),
        ("compile", ["n=2"], "alpha_p_db_per_cm=inf"),
    ],
)
def test_non_finite_config_values_are_rejected(tmp_path, capsys, command, sizes, pair):
    out = tmp_path / "o"
    sets = [a for p in [*sizes, pair] for a in ("--set", p)]
    assert main([command, "--out", str(out), *sets]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(pair.partition("=")[0]) in err
    assert not out.exists()


def test_a_config_file_with_a_non_finite_value_is_rejected(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text('{"alpha_m_db": NaN, "xc_grid": [-18, Infinity]}')
    assert main(["compile", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "'alpha_m_db' expects a finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [('{"n": true}', "'n' expects an integer"), ('{"temp": true}', "'temp' expects a number")],
)
def test_a_config_file_with_a_boolean_number_is_rejected(tmp_path, capsys, doc, message):
    """The config has no boolean field: JSON ``true`` is no 1 or 1.0."""
    path = tmp_path / "c.json"
    path.write_text(doc)
    assert main(["compile", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, value",
    [
        ("lr", float("nan")),
        ("temp", float("inf")),
        ("bias", float("nan")),
        ("max_drop_pct", float("nan")),
        ("train_fraction", float("inf")),
        ("launch_power_dbm", float("nan")),
        ("sensitivity_dbm", float("-inf")),
        ("xb_grid", [-30.0, float("inf")]),
    ],
)
def test_a_config_built_in_python_rejects_a_non_finite_value(name, value):
    with pytest.raises(ValueError, match=f"field '{name}' expects a finite number"):
        ExperimentConfig(**{name: value})


@pytest.mark.parametrize("pairs", [["n=16"], ["m=5"], ["n=16", "m=5"]])
def test_accuracy_rejects_a_model_of_another_shape_than_n_and_m(tmp_path, capsys, pairs):
    eye = {"real": np.eye(8).tolist()}
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"weights": [eye, eye], "bias": 0.1}))
    out = tmp_path / "a"
    args = ["accuracy", "--set", f"model_file={path}", "--set", "n_per_class=5"]
    args += [a for p in pairs for a in ("--set", p)]
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: model_file ") and "8 ports and 2 layers" in err
    assert all(p in err for p in pairs)
    assert not (out / "accuracy.csv").exists()


@pytest.mark.parametrize(
    "command, sets",
    [
        ("accuracy", ["train_fraction=0.01"]),
        ("accuracy", ["train_fraction=0.99"]),
        ("train", ["train_fraction=0.01"]),
    ],
)
def test_an_empty_train_or_eval_split_is_rejected(tmp_path, capsys, command, sets):
    out = tmp_path / "o"
    args = [a for p in ["n_per_class=1", *sets] for a in ("--set", p)]
    assert main([command, "--out", str(out), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "train_fraction" in err and "8 samples" in err
    assert not (out / f"{command}.csv").exists()
