"""CLI tests: strict config handling, CSV emission round trips, and
byte-identical reproducibility of command outputs."""

import dataclasses
import json
import os

import numpy as np
import pytest

from spnn.cli import emit_csv, main
from spnn.config import (
    OUT_DIR_ENV,
    ExperimentConfig,
    apply_overrides,
    config_from_mapping,
    load_config,
    resolve_out_dir,
)
from spnn.device import MziParams


def test_defaults_match_reference_parameters():
    cfg = ExperimentConfig()
    p = cfg.mzi_params()
    assert (p.kappa1, p.kappa2) == (0.5, 0.5)
    assert p.alpha_l_db == 0.1
    assert p.alpha_m_db == 0.2
    assert p.alpha_p_db_per_cm == 2.0
    assert p.l_mzi_um == 300.0
    assert (p.xb_db, p.xc_db) == (-25.0, -18.0)
    assert cfg.gain_db == 17.0
    assert cfg.nau_loss_db == 1.0
    assert cfg.launch_power_dbm == 0.0
    assert cfg.sensitivity_dbm == -11.7


def test_config_carries_every_device_parameter_with_its_default():
    cfg_fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    for f in dataclasses.fields(MziParams):
        assert f.name in cfg_fields, f"MziParams.{f.name} has no config key"
        assert cfg_fields[f.name].default == f.default
    assert ExperimentConfig(xb_db=-30.0).mzi_params() == MziParams(xb_db=-30.0)


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
        ExperimentConfig(), ["n_list=4,8", "crosstalk=false", "seed=9"]
    )
    assert cfg.n_list == [4, 8]
    assert cfg.crosstalk is False
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
    path = str(tmp_path / "q.csv")
    emit_csv(["name", "x"], [["a,b", 1.5], ['say "hi"', 2]], path)
    text = open(path, encoding="utf-8").read()
    assert text.endswith("\n")
    assert '"a,b"' in text
    assert '"say ""hi"""' in text


def test_emit_csv_empty_table_is_header_only(tmp_path):
    path = str(tmp_path / "e.csv")
    emit_csv(["a", "b"], [], path)
    assert open(path, encoding="utf-8").read() == "a,b\n"


def test_emit_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError, match="cells"):
        emit_csv(["a", "b"], [[1]], str(tmp_path / "r.csv"))


def test_device_sweep_schema_and_determinism(tmp_path):
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(["device-sweep", "--out", out1]) == 0
    assert main(["device-sweep", "--out", out2]) == 0
    b1 = open(os.path.join(out1, "device-sweep.csv"), "rb").read()
    b2 = open(os.path.join(out2, "device-sweep.csv"), "rb").read()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == "theta,il_o1_db,il_o2_db,xp_o1_dbm,xp_o2_dbm"
    assert len(lines) == 102  # header + 101 theta points
    cfg_echo = json.load(open(os.path.join(out1, "device-sweep.config.json")))
    assert cfg_echo["seed"] == ExperimentConfig().seed


def test_layer_stats_reproducible_from_seed(tmp_path):
    args = ["layer-stats", "--set", "trials=4", "--set", "n=4", "--seed", "3"]
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    assert (
        open(os.path.join(out1, "layer-stats.csv"), "rb").read()
        == open(os.path.join(out2, "layer-stats.csv"), "rb").read()
    )


def test_cli_error_exit_code(tmp_path, capsys):
    assert main(["device-sweep", "--set", "bogus=1", "--out", str(tmp_path)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_compile_names_non_finite_weights(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text('{"real": [[1.0, NaN], [0.5, 2.0]]}')
    args = ["compile", "--set", "weight_source=file", "--set", f"weight_file={path}"]
    assert main(args + ["--out", str(tmp_path / "c")]) == 2
    assert "weights contain NaN or inf" in capsys.readouterr().err


def test_compile_emits_layout(tmp_path):
    out = str(tmp_path / "c")
    assert main(["compile", "--out", out, "--set", "n=4", "--seed", "5"]) == 0
    layout = json.load(open(os.path.join(out, "layout.json")))
    assert layout["n"] == 4


def test_accuracy_command_end_to_end(tmp_path):
    out = str(tmp_path / "acc")
    args = [
        "accuracy",
        "--out",
        out,
        "--set",
        "epochs=30",
        "--set",
        "n_per_class=10",
        "--set",
        "crosstalk=false",
    ]
    assert main(args) == 0
    lines = open(os.path.join(out, "accuracy.csv")).read().splitlines()
    assert lines[0] == "accuracy_pct,ideal_accuracy_pct,crosstalk,n_samples"
    acc, ideal, xtalk, n = lines[1].split(",")
    assert 0.0 <= float(acc) <= 100.0
    assert xtalk == "false"
    assert int(n) > 0
