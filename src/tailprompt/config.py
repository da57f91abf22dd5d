"""Run configuration files: strict JSON parsing and canonical echoing.

A run config has sections {synth, train, loss, prompt} plus a top-level
encoder_seed. Every field has a default, so {} is a valid document, but any
unknown key anywhere is rejected by name: silent hyperparameter typos are the
main reproducibility hazard this format exists to prevent. Each value must
also have the JSON type of its field's default. The canonical form
written back into run directories spells out every effective value and
reparses to an equal config.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

from .errors import ConfigError, read_json
from .losses import LossConfig
from .synth import SynthConfig
from .train import PromptSpec, TrainConfig


def _field_defaults(cls, *excluded: str) -> dict:
    return {f.name: f.default for f in fields(cls) if f.name not in excluded}


SYNTH_FIELDS = _field_defaults(SynthConfig)
LOSS_FIELDS = _field_defaults(LossConfig)
PROMPT_FIELDS = _field_defaults(PromptSpec)
TRAIN_FIELDS = _field_defaults(TrainConfig, "loss", "prompt", "encoder_seed")
TOP_KEYS = ("synth", "train", "loss", "prompt", "encoder_seed")

# the JSON values a field takes, by its default's type; a number is never a
# bool, and only token_dim (default None) takes null
_ACCEPTED = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    type(None): ((int, type(None)), "an integer or null"),
}


@dataclass(frozen=True)
class RunConfigFile:
    """Parsed config document; encoder_seed/loss/prompt live inside train."""

    synth: SynthConfig
    train: TrainConfig


def _finite_double(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond a double's range
        return False


def _check_type(key: str, where: str, value, default) -> None:
    """Refuse a value without the JSON type of the field's default, and a
    number for a float field that is not a finite double: json.loads reads
    1e400 as inf, and an integer literal of any size as an int."""
    accepted, kind = _ACCEPTED[type(default)]
    if isinstance(value, bool) is not isinstance(default, bool) or not isinstance(value, accepted):
        raise ConfigError(f"key {key!r} {where} must be {kind}, got {json.dumps(value)}")
    if isinstance(default, float) and not _finite_double(value):
        raise ConfigError(f"key {key!r} {where} must be a finite number within a double's range")


def _section(doc: dict, name: str, defaults: dict) -> dict:
    raw = doc.get(name, {})
    if not isinstance(raw, dict):
        raise ConfigError(f"section {name!r} must be a JSON object")
    for key, value in raw.items():
        if key not in defaults:
            raise ConfigError(f"unknown key {key!r} in section {name!r}")
        _check_type(key, f"in section {name!r}", value, defaults[key])
    return raw


def parse_config(doc: dict) -> RunConfigFile:
    """Build a RunConfigFile from a JSON document, rejecting unknown keys and
    values of the wrong type."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    for key in doc:
        if key not in TOP_KEYS:
            raise ConfigError(f"unknown key {key!r} at the top level")
    synth = SynthConfig(**_section(doc, "synth", SYNTH_FIELDS))
    loss = LossConfig(**_section(doc, "loss", LOSS_FIELDS))
    prompt = PromptSpec(**_section(doc, "prompt", PROMPT_FIELDS))
    encoder_seed = doc.get("encoder_seed", TrainConfig.encoder_seed)
    _check_type("encoder_seed", "at the top level", encoder_seed, TrainConfig.encoder_seed)
    train = TrainConfig(
        **_section(doc, "train", TRAIN_FIELDS),
        encoder_seed=encoder_seed,
        loss=loss,
        prompt=prompt,
    )
    return RunConfigFile(synth=synth, train=train)


def default_config() -> RunConfigFile:
    return parse_config({})


def config_to_dict(config: RunConfigFile) -> dict:
    """Canonical document with every effective value explicit.

    parse_config(config_to_dict(c)) == c; this is what run directories echo.
    """
    return {
        "synth": {name: getattr(config.synth, name) for name in SYNTH_FIELDS},
        "train": {name: getattr(config.train, name) for name in TRAIN_FIELDS},
        "loss": {name: getattr(config.train.loss, name) for name in LOSS_FIELDS},
        "prompt": {name: getattr(config.train.prompt, name) for name in PROMPT_FIELDS},
        "encoder_seed": config.train.encoder_seed,
    }


def load_config(path) -> RunConfigFile:
    return parse_config(read_json(path, "config file"))


def with_train(config: RunConfigFile, **changes) -> RunConfigFile:
    """Copy with TrainConfig scalar fields replaced."""
    return RunConfigFile(synth=config.synth, train=replace(config.train, **changes))


def with_loss(config: RunConfigFile, **changes) -> RunConfigFile:
    return with_train(config, loss=replace(config.train.loss, **changes))


def with_prompt(config: RunConfigFile, **changes) -> RunConfigFile:
    return with_train(config, prompt=replace(config.train.prompt, **changes))


def with_synth(config: RunConfigFile, **changes) -> RunConfigFile:
    return RunConfigFile(synth=replace(config.synth, **changes), train=config.train)
