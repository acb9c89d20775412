"""Experiment configuration: line-oriented `key = value` files.

Sections [model], [pmu], [train], [data].  Parsing is strict — unknown
sections or keys are errors — and every problem in a file is reported in
one pass rather than stopping at the first.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import InputError
from .model import EncoderConfig, ModelConfig, PMUConfig


@dataclass
class TrainConfig:
    base_lr: float = 1.0
    warmup_steps: int = 400
    max_steps: int = 3000
    batch_size: int = 8
    seed: int = 0
    grad_clip_norm: float = 5.0
    eval_every: int = 200
    label_smoothing: float = 0.1
    max_symbols_per_frame: int = 5
    out_dir: str = "runs/exp"

    def validate(self):
        errors = []
        for name in ("base_lr", "warmup_steps", "max_steps", "batch_size",
                     "grad_clip_norm", "eval_every", "max_symbols_per_frame"):
            if getattr(self, name) <= 0:
                errors.append(f"{name} must be positive")
        if not (0.0 <= self.label_smoothing < 1.0):
            errors.append(f"label_smoothing {self.label_smoothing} not in [0,1)")
        if self.seed < 0:
            errors.append("seed must be >= 0")
        if errors:
            raise InputError("; ".join(errors))


@dataclass
class DataConfig:
    train_manifest: str = ""
    dev_manifest: str = ""
    bpe_model: str = ""
    pasm_model: str = ""
    bpe_small_model: str = ""


def _coerce(raw: str, kind: type):
    if kind is bool:
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    return kind(raw)


_SECTIONS = ("model", "pmu", "train", "data")

# [model] keys of the outer model config; the rest belong to EncoderConfig
_MODEL_KEYS = {"input_dim": int, "lstm_dim": int, "joint_dim": int,
               "subsample_channels": int}
_TYPE_NAMES = {"int": int, "float": float, "bool": bool, "str": str,
               "tuple": tuple}


def _field_types(cls) -> dict:
    out = {}
    for f in fields(cls):
        t = f.type if isinstance(f.type, type) else _TYPE_NAMES[str(f.type)]
        out[f.name] = t
    return out


def parse_config_text(text: str, path: str = "<config>") -> dict:
    """Raw section/key/value table, with syntax errors collected."""
    table: dict[str, dict[str, str]] = {s: {} for s in _SECTIONS}
    errors = []
    section = None
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip()
            if name not in _SECTIONS:
                errors.append(f"{path}:{lineno}: unknown section [{name}]")
                section = None
            else:
                section = name
            continue
        if "=" not in stripped:
            errors.append(f"{path}:{lineno}: expected `key = value`, got {stripped!r}")
            continue
        if section is None:
            errors.append(f"{path}:{lineno}: key outside any section")
            continue
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key in table[section]:
            errors.append(f"{path}:{lineno}: duplicate key {key!r} in [{section}]")
        table[section][key] = value
    if errors:
        raise InputError("\n".join(errors))
    return table


@dataclass
class Experiment:
    model: ModelConfig
    pmu: PMUConfig
    train: TrainConfig
    data: DataConfig


def config_from_table(table: dict, path: str = "<config>") -> Experiment:
    errors = []
    enc = EncoderConfig()
    mcfg = ModelConfig(encoder=enc)
    pmu = PMUConfig()
    tcfg = TrainConfig()
    dcfg = DataConfig()

    enc_types = _field_types(EncoderConfig)
    plans = [
        ("model", {**enc_types, **_MODEL_KEYS},
         lambda k: enc if k in enc_types else mcfg),
        ("pmu", _field_types(PMUConfig), lambda k: pmu),
        ("train", _field_types(TrainConfig), lambda k: tcfg),
        ("data", _field_types(DataConfig), lambda k: dcfg),
    ]
    for section, types, target_of in plans:
        for key, raw in table.get(section, {}).items():
            if key not in types:
                errors.append(f"{path}: unknown key {key!r} in [{section}]")
                continue
            try:
                setattr(target_of(key), key, _coerce(raw, types[key]))
            except ValueError as e:
                errors.append(f"{path}: [{section}] {key}: {e}")
    if errors:
        raise InputError("\n".join(errors))

    # semantic validation, also with every problem listed
    for check in (enc.validate, pmu.validate, tcfg.validate):
        try:
            check()
        except InputError as e:
            errors.append(f"{path}: {e}")
    if errors:
        raise InputError("\n".join(errors))
    return Experiment(model=mcfg, pmu=pmu, train=tcfg, data=dcfg)


def load_config(path: str) -> Experiment:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return config_from_table(parse_config_text(text, path), path)
