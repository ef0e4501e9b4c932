"""Experiment configuration: JSON-shaped documents with strict validation.

The config extends MziParams: the device parameters, their reference
defaults and their checks are MziParams' own. Unknown keys are rejected
rather than ignored so a typo can never silently fall back to a default,
and the fully resolved configuration is re-emitted next to every
experiment's outputs so a run is reproducible from its artifacts alone.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field

from spnn.device import MziParams

__all__ = [
    "ExperimentConfig",
    "load_config",
    "config_from_mapping",
    "apply_overrides",
    "resolve_out_dir",
    "OUT_DIR_ENV",
]

OUT_DIR_ENV = "SPNN_OUT_DIR"


@dataclass(frozen=True)
class ExperimentConfig(MziParams):
    """All experiment knobs, with reference-fabrication defaults."""

    # Network shape and system-level budget. The per-layer gain and NAU
    # loss are spnn.propagation constants. launch_power_dbm offsets the
    # crosstalk columns of device-sweep, layer-stats and network-stats.
    n: int = 8
    m: int = 2
    launch_power_dbm: float = 0.0
    sensitivity_dbm: float = -11.7
    # Scaling-study grids (network-stats / power-penalty).
    n_list: list[int] = field(default_factory=lambda: [8, 16, 32, 64])
    m_list: list[int] = field(default_factory=lambda: [1, 2, 3])
    # Ensemble sizes.
    trials: int = 100
    network_trials: int = 10
    # Reproducibility and artifacts.
    seed: int = 123
    out_dir: str = ""
    # compile's weights: this JSON file when set, else a seeded random matrix.
    weight_file: str = ""
    model_file: str = ""
    # Dataset: IDX pair when both paths are set, else the packaged
    # synthetic digit set.
    images_path: str = ""
    labels_path: str = ""
    n_features: int = 8
    n_per_class: int = 150
    dataset_seed: int = 7
    train_fraction: float = 0.7
    # Trainer.
    epochs: int = 500
    lr: float = 0.02
    bias: float = 0.1
    temp: float = 400.0
    # Experiment-specific knobs.
    theta_points: int = 101
    sweep_points: int = 9
    n_instances: int = 100
    max_drop_pct: float = 5.0
    xb_grid: list[float] = field(default_factory=lambda: [-30.0, -25.0, -20.0])
    xc_grid: list[float] = field(default_factory=lambda: [-25.0, -18.0, -15.0])

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        # NaN would pass the range checks below: every number must be finite.
        for name, value in self.to_mapping().items():
            for v in value if isinstance(value, list) else [value]:
                if not isinstance(v, str):
                    _finite(name, v)
        super().__post_init__()
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        for name in ("n_list", "m_list"):
            values = getattr(self, name)
            if not values or any(int(v) < 1 for v in values):
                raise ValueError(f"{name} must be a nonempty list of ints >= 1")
        for name in (
            "trials",
            "network_trials",
            "n_features",
            "n_per_class",
            "epochs",
            "sweep_points",
            "n_instances",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.theta_points < 2:
            raise ValueError("theta_points must be >= 2")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if self.lr <= 0 or self.temp <= 0:
            raise ValueError("lr and temp must be > 0")
        if self.bias < 0:
            raise ValueError("bias must be >= 0")
        if self.max_drop_pct <= 0:
            raise ValueError("max_drop_pct must be > 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def mzi_params(self) -> MziParams:
        return MziParams(
            **{f.name: getattr(self, f.name) for f in dataclasses.fields(MziParams)}
        )

    def to_mapping(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_mapping(), indent=2, sort_keys=True) + "\n"


_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}


def _coerce(name: str, value):
    """Coerce a parsed value to the declared field type, strictly."""
    target = _FIELDS[name].type
    if target == "int":
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise ValueError(f"field {name!r} expects an integer, got {value!r}")
        return int(value)
    if target == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ValueError(f"field {name!r} expects a number, got {value!r}")
        return float(value)
    if target == "str":
        if not isinstance(value, str):
            raise ValueError(f"field {name!r} expects a string, got {value!r}")
        return value
    # List fields: accept JSON lists, or comma-separated strings from --set.
    if isinstance(value, str):
        value = [v for v in value.split(",") if v != ""]
    if not isinstance(value, list):
        raise ValueError(f"field {name!r} expects a list, got {value!r}")
    elem = int if name in ("n_list", "m_list") else float
    return [elem(v) for v in value]


def _finite(name: str, value):
    if not math.isfinite(value):
        raise ValueError(f"field {name!r} expects a finite number, got {value!r}")
    return value


def config_from_mapping(mapping: dict, source: str = "<config>") -> ExperimentConfig:
    """Validated config from a parsed JSON object; unknown keys rejected."""
    if not isinstance(mapping, dict):
        raise ValueError(f"{source}: top level must be a JSON object")
    unknown = sorted(set(mapping) - set(_FIELDS))
    if unknown:
        raise ValueError(
            f"{source}: unknown config key(s): {', '.join(unknown)}"
        )
    kwargs = {k: _coerce(k, v) for k, v in mapping.items()}
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a JSON config file. An empty document ({}) yields
    every default."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            mapping = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}:{exc.lineno}:{exc.colno}: malformed JSON: {exc.msg}"
            ) from exc
    return config_from_mapping(mapping, source=path)


def apply_overrides(cfg: ExperimentConfig, pairs: list[str]) -> ExperimentConfig:
    """Apply ``key=value`` override strings on top of an existing config."""
    mapping = cfg.to_mapping()
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"override {pair!r} is not of the form key=value")
        if key not in _FIELDS:
            raise ValueError(f"override: unknown config key {key!r}")
        mapping[key] = value
    # Re-coerce everything through the strict path (strings from --set).
    return config_from_mapping(
        {k: mapping[k] for k in mapping}, source="<overrides>"
    )


def resolve_out_dir(cfg: ExperimentConfig) -> str:
    """Output directory: config value, else the environment default, else
    ./spnn-out."""
    if cfg.out_dir:
        return cfg.out_dir
    return os.environ.get(OUT_DIR_ENV, "spnn-out")
