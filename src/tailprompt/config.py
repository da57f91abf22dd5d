"""Run configuration files: strict JSON parsing and canonical echoing.

A run config has sections {synth, train, loss, prompt} plus a top-level
encoder_seed. Every field has a default, so {} is a valid document, but any
unknown key anywhere is rejected by name: silent hyperparameter typos are the
main reproducibility hazard this format exists to prevent. The canonical form
written back into run directories spells out every effective value and
reparses to an equal config.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .errors import ConfigError, read_json
from .losses import LossConfig
from .synth import SynthConfig
from .train import PromptSpec, TrainConfig


def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


SYNTH_KEYS = _field_names(SynthConfig)
LOSS_KEYS = _field_names(LossConfig)
PROMPT_KEYS = _field_names(PromptSpec)
TRAIN_KEYS = tuple(
    name for name in _field_names(TrainConfig) if name not in ("loss", "prompt", "encoder_seed")
)
TOP_KEYS = ("synth", "train", "loss", "prompt", "encoder_seed")


@dataclass(frozen=True)
class RunConfigFile:
    """Parsed config document; encoder_seed/loss/prompt live inside train."""

    synth: SynthConfig
    train: TrainConfig


def _section(doc: dict, name: str, allowed: tuple[str, ...]) -> dict:
    raw = doc.get(name, {})
    if not isinstance(raw, dict):
        raise ConfigError(f"section {name!r} must be a JSON object")
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in section {name!r}")
    return raw


def parse_config(doc: dict) -> RunConfigFile:
    """Build a RunConfigFile from a JSON document, rejecting unknown keys."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    for key in doc:
        if key not in TOP_KEYS:
            raise ConfigError(f"unknown key {key!r} at the top level")
    synth = SynthConfig(**_section(doc, "synth", SYNTH_KEYS))
    loss = LossConfig(**_section(doc, "loss", LOSS_KEYS))
    prompt = PromptSpec(**_section(doc, "prompt", PROMPT_KEYS))
    encoder_seed = doc.get("encoder_seed", TrainConfig.encoder_seed)
    if isinstance(encoder_seed, bool) or not isinstance(encoder_seed, int):
        raise ConfigError("encoder_seed must be an integer")
    train = TrainConfig(
        **_section(doc, "train", TRAIN_KEYS),
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
        "synth": {name: getattr(config.synth, name) for name in SYNTH_KEYS},
        "train": {name: getattr(config.train, name) for name in TRAIN_KEYS},
        "loss": {name: getattr(config.train.loss, name) for name in LOSS_KEYS},
        "prompt": {name: getattr(config.train.prompt, name) for name in PROMPT_KEYS},
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
