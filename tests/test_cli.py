"""CLI tests: strict config handling, CSV emission round trips, and
byte-identical reproducibility of command outputs."""

import dataclasses
import json

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


@pytest.mark.parametrize("pair", ["gain_db=30", "nau_loss_db=2", "weight_source=file"])
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
    """Under the nominal ledger crosstalk power is linear in the launch
    power and IL is a ratio: +10 dBm moves only the xp columns, by 10 dB."""
    args = ["network-stats", "--set", "n_list=4", "--set", "m_list=1,2"]
    args += ["--set", "network_trials=2"]
    rows = []
    for launch in ("0", "10"):
        out = tmp_path / launch
        run = ["--set", f"launch_power_dbm={launch}", "--out", str(out)]
        assert main(args + run) == 0
        lines = (out / "network-stats.csv").read_text().splitlines()
        rows.append([line.split(",") for line in lines[1:]])
    for base, loud in zip(*rows):
        assert loud[:4] == base[:4]
        for b, l in zip(base[4:], loud[4:]):
            assert float(l) == pytest.approx(float(b) + 10.0, rel=0, abs=1e-12)


def test_compile_names_non_finite_weights(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text('{"real": [[1.0, NaN], [0.5, 2.0]]}')
    args = ["compile", "--set", f"weight_file={path}", "--out", str(tmp_path / "c")]
    assert main(args) == 2
    assert "weights contain NaN or inf" in capsys.readouterr().err


def test_compile_emits_layout(tmp_path):
    out = tmp_path / "c"
    assert main(["compile", "--out", str(out), "--set", "n=4", "--seed", "5"]) == 0
    layout = json.loads((out / "layout.json").read_text())
    assert layout["n"] == 4


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
        "--set",
        "crosstalk=false",
    ]
    assert main(args) == 0
    lines = (out / "accuracy.csv").read_text().splitlines()
    assert lines[0] == "accuracy_pct,ideal_accuracy_pct,crosstalk,n_samples"
    acc, ideal, xtalk, n = lines[1].split(",")
    assert 0.0 <= float(acc) <= 100.0
    assert xtalk == "false"
    assert int(n) > 0
