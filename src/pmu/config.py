"""Experiment configuration: line-oriented `key = value` files.

Sections [model], [pmu], [train], [data].  Parsing is strict — unknown
sections or keys are errors — and every problem in a file is reported in
one pass rather than stopping at the first.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import raise_problems, read_lines
from .model import ModelConfig, PMUConfig


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

    def problems(self) -> list[str]:
        errors = []
        for name in ("base_lr", "warmup_steps", "max_steps", "batch_size",
                     "grad_clip_norm", "eval_every", "max_symbols_per_frame"):
            if getattr(self, name) <= 0:
                errors.append(f"{name} must be positive")
        if not (0.0 <= self.label_smoothing < 1.0):
            errors.append(f"label_smoothing {self.label_smoothing} not in [0,1)")
        if self.seed < 0:
            errors.append("seed must be >= 0")
        return errors


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
    if kind is tuple:
        return tuple(part.strip() for part in raw.split(",") if part.strip())
    return kind(raw)


_SECTIONS = ("model", "pmu", "train", "data")
_TYPE_NAMES = {"int": int, "float": float, "bool": bool, "str": str,
               "tuple": tuple}


def assign_fields(values: dict, targets: list, where: str) -> list[str]:
    """Set each `key: raw` of `values` on the first dataclass in `targets`
    with a scalar field of that name, coerced to the field's type.  Returns
    the problems, unknown keys and values that do not coerce, each after
    `where`."""
    errors = []
    types = [{f.name: _TYPE_NAMES[f.type] for f in fields(t)
              if f.type in _TYPE_NAMES} for t in targets]
    for key, raw in values.items():
        owner = next((i for i, known in enumerate(types) if key in known), None)
        if owner is None:
            errors.append(f"{where} unknown key {key!r}")
            continue
        try:
            setattr(targets[owner], key, _coerce(raw, types[owner][key]))
        except ValueError as e:
            errors.append(f"{where} {key}: {e}")
    return errors


def parse_config_text(lines, path: str = "<config>",
                      sections=_SECTIONS) -> dict:
    """Raw section/key/value table of `key = value` lines, with syntax
    errors collected.  Keys before the first header go to the section ""
    when it is one of `sections` (a file without headers), and are an
    error otherwise."""
    table: dict[str, dict[str, str]] = {s: {} for s in sections}
    errors = []
    section = ""
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in table:
                errors.append(f"{path}:{lineno}: unknown section [{section}]")
                section = None
            continue
        if "=" not in stripped:
            errors.append(f"{path}:{lineno}: expected `key = value`, got {stripped!r}")
            continue
        if section not in table:
            errors.append(f"{path}:{lineno}: key outside any section")
            continue
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key in table[section]:
            where = f" in [{section}]" if section else ""
            errors.append(f"{path}:{lineno}: duplicate key {key!r}{where}")
        table[section][key] = value
    raise_problems(errors, "\n")
    return table


@dataclass
class Experiment:
    model: ModelConfig
    pmu: PMUConfig
    train: TrainConfig
    data: DataConfig


def config_from_table(table: dict, path: str = "<config>") -> Experiment:
    errors = []
    mcfg = ModelConfig()
    exp = Experiment(model=mcfg, pmu=PMUConfig(), train=TrainConfig(),
                     data=DataConfig())
    for section in _SECTIONS:
        # [model] keys set the encoder's fields first, then the outer model's
        targets = ([mcfg.encoder, mcfg] if section == "model"
                   else [getattr(exp, section)])
        errors += assign_fields(table.get(section, {}), targets,
                                f"{path}: [{section}]")
    errors += [f"{path}: {p}" for p in mcfg.problems()
               + exp.pmu.problems(mcfg.encoder.num_layers)
               + exp.train.problems()]
    raise_problems(errors, "\n")
    return exp


def load_config(path: str) -> Experiment:
    return config_from_table(parse_config_text(read_lines(path), path), path)
