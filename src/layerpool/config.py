"""Run configuration: the config dataclasses and their strict JSON form.

The JSON keys, their types and their defaults are the fields of `RunConfig`,
`TrainConfig` and `EncoderConfig`; `TrainConfig`'s fields sit at the top
level next to `RunConfig`'s. Values keep their JSON type: an integer may
stand for a float, nothing else converts.
"""

from __future__ import annotations

import difflib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from typing import get_type_hints

from .artifact import loads_json
from .encoder import EncoderConfig
from .objectives import DEFAULT_TEMPERATURE, OBJECTIVES
from .pooler import PoolStrategy

class ConfigError(ValueError):
    pass


@dataclass
class TrainConfig:
    objective: str
    strategy: str = "attn_cls_avg_concat"
    norm_mode: str = "softmax"
    temperature: float = DEFAULT_TEMPERATURE
    batch_size: int = 16
    learning_rate: float = 1e-3
    epochs: int = 1
    seed: int = 0
    frozen_features: str | None = None
    encoder: EncoderConfig = field(default_factory=EncoderConfig)

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if self.strategy not in {s.value for s in PoolStrategy}:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.norm_mode not in ("softmax", "ratio"):
            raise ValueError(f"unknown norm_mode {self.norm_mode!r}")
        if not 0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be positive and finite, got {self.temperature}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, "
                             f"got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass
class RunConfig:
    train: TrainConfig
    corpus: str
    checkpoint_dir: str = "checkpoint"
    output_dir: str = "."


_RUN_KEYS = {f.name for f in fields(RunConfig)} - {"train"}


def _reject_unknown(doc: dict, known, context: str) -> None:
    for key in doc:
        if key not in known:
            hint = difflib.get_close_matches(key, known, n=1)
            suggestion = f" (did you mean {hint[0]!r}?)" if hint else ""
            raise ConfigError(f"unknown {context} key {key!r}{suggestion}")


def _from_doc(cls, doc, context: str, defaults: bool):
    """A `cls` from the JSON object `doc`; absent keys take the field default
    when `defaults` is true and are an error otherwise."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{context} must be a JSON object")
    keys = {f.name: f for f in fields(cls)}
    _reject_unknown(doc, keys, context)
    hints = get_type_hints(cls)
    kwargs = {}
    for key, f in keys.items():
        if key not in doc:
            if defaults and (f.default is not MISSING or f.default_factory is not MISSING):
                continue
            raise ConfigError(f"missing required key {key!r}")
        value, kind = doc[key], hints[key]
        if is_dataclass(kind):
            value = _from_doc(kind, value, key, defaults)
        elif kind is float and type(value) is int:
            value = float(value)
        elif not isinstance(value, kind) or type(value) is bool:
            name = getattr(kind, "__name__", kind)
            raise ConfigError(f"{key} must be {name}, got {value!r}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def validate_config(doc: dict) -> RunConfig:
    """Type-check and default a parsed config document."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(doc, _RUN_KEYS | {f.name for f in fields(TrainConfig)}, "config")
    run_doc = {k: v for k, v in doc.items() if k in _RUN_KEYS}
    run_doc["train"] = {k: v for k, v in doc.items() if k not in _RUN_KEYS}
    return _from_doc(RunConfig, run_doc, "config", defaults=True)


def train_config_doc(config: TrainConfig) -> dict:
    """The JSON object of a TrainConfig, read back by `train_config_from_doc`."""
    return asdict(config)


def train_config_from_doc(doc) -> TrainConfig:
    """The TrainConfig of a complete JSON object, as a checkpoint stores it."""
    return _from_doc(TrainConfig, doc, "config", defaults=False)


def load_config(path) -> RunConfig:
    """The RunConfig of a JSON file; the files it names are checked when read.
    A repeated key and the non-JSON literals NaN, Infinity and -Infinity,
    which `json` accepts by default, are errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = loads_json(fh.read())
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config {path}: {exc}") from exc
    return validate_config(doc)


def effective_config_doc(config: RunConfig) -> dict:
    """The fully-defaulted document echoed next to every run's outputs."""
    doc = asdict(config)
    doc.update(doc.pop("train"))
    return doc
