import json

import pytest

from tailprompt.config import (
    config_to_dict,
    default_config,
    load_config,
    parse_config,
    with_loss,
    with_prompt,
    with_synth,
    with_train,
)
from tailprompt.errors import ConfigError
from tailprompt.losses import LossConfig
from tailprompt.synth import SynthConfig
from tailprompt.train import PromptSpec, TrainConfig


class TestParse:
    def test_empty_document_is_all_defaults(self):
        cfg = parse_config({})
        assert cfg == default_config()
        assert cfg.synth == SynthConfig()
        assert cfg.train == TrainConfig()
        assert cfg.train.loss == LossConfig()
        assert cfg.train.prompt == PromptSpec()

    def test_sections_route_to_the_right_dataclass(self):
        cfg = parse_config(
            {
                "synth": {"num_classes": 5, "num_samples": 80},
                "train": {"epochs": 2, "lr0": 0.1},
                "loss": {"cls_loss_weight": 0.25, "cls_loss_kind": "bce"},
                "prompt": {"num_context_tokens": 2, "mode": "shared"},
                "encoder_seed": 42,
            }
        )
        assert cfg.synth.num_classes == 5
        assert cfg.train.epochs == 2
        assert cfg.train.loss.cls_loss_weight == 0.25
        assert cfg.train.prompt.mode == "shared"
        assert cfg.train.encoder_seed == 42

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError, match="'lr'.*top level"):
            parse_config({"lr": 0.1})

    def test_unknown_section_key_named(self):
        with pytest.raises(ConfigError, match="'lr'.*'train'"):
            parse_config({"train": {"lr": 0.1}})
        with pytest.raises(ConfigError, match="'eta2'.*'loss'"):
            parse_config({"loss": {"eta2": 1.0}})

    def test_nested_keys_do_not_leak_between_sections(self):
        # loss fields are not accepted inside train and vice versa
        with pytest.raises(ConfigError):
            parse_config({"train": {"eta": 1.0}})
        with pytest.raises(ConfigError):
            parse_config({"loss": {"epochs": 3}})

    def test_non_dict_section(self):
        with pytest.raises(ConfigError, match="must be a JSON object"):
            parse_config({"train": [1, 2]})
        with pytest.raises(ConfigError, match="config must be a JSON object"):
            parse_config([])

    def test_encoder_seed_type(self):
        assert parse_config({"encoder_seed": 3}).train.encoder_seed == 3
        with pytest.raises(ConfigError, match="encoder_seed"):
            parse_config({"encoder_seed": True})
        with pytest.raises(ConfigError, match="encoder_seed"):
            parse_config({"encoder_seed": "7"})

    def test_value_types_follow_the_defaults(self):
        assert parse_config({"prompt": {"token_dim": None}}).train.prompt.token_dim is None
        assert parse_config({"prompt": {"token_dim": 8}}).train.prompt.token_dim == 8
        assert parse_config({"loss": {"eta": 1}}).train.loss.eta == 1
        wrong = [
            ({"prompt": {"token_dim": 8.0}}, "'token_dim' in .* must be an integer or null"),
            ({"prompt": {"mode": None}}, "'mode' in section 'prompt' must be a string"),
            ({"loss": {"eta": True}}, "'eta' in section 'loss' must be a number, got true"),
            ({"synth": {"dim": None}}, "'dim' in section 'synth' must be an integer, got null"),
            ({"encoder_seed": 1.5}, "'encoder_seed' at the top level must be an integer"),
        ]
        for doc, message in wrong:
            with pytest.raises(ConfigError, match=message):
                parse_config(doc)

    def test_invalid_values_bubble_up(self):
        with pytest.raises(ConfigError, match="epochs"):
            parse_config({"train": {"epochs": 0}})
        with pytest.raises(ConfigError, match="num_samples"):
            parse_config({"synth": {"num_classes": 30, "num_samples": 5}})


class TestEcho:
    def test_round_trip_equality(self):
        cfg = parse_config(
            {
                "synth": {"seed": 9},
                "train": {"epochs": 4, "batch_size": 7},
                "loss": {"gamma_rw": 0.5},
                "prompt": {"init": "template"},
                "encoder_seed": 1,
            }
        )
        assert parse_config(config_to_dict(cfg)) == cfg

    def test_every_effective_value_explicit(self):
        doc = config_to_dict(default_config())
        assert doc["train"]["epochs"] == TrainConfig.epochs
        assert doc["loss"]["eta"] == LossConfig.eta
        assert doc["synth"]["powerlaw_exponent"] == SynthConfig.powerlaw_exponent
        assert doc["prompt"]["num_context_tokens"] == PromptSpec.num_context_tokens
        assert doc["encoder_seed"] == TrainConfig.encoder_seed
        # nothing hides behind a nested default
        assert set(doc) == {"synth", "train", "loss", "prompt", "encoder_seed"}

    def test_file_round_trip(self, tmp_path):
        cfg = with_loss(default_config(), cls_loss_weight=0.75)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config_to_dict(cfg), indent=2) + "\n")
        assert load_config(path) == cfg
        # the file is plain JSON with explicit values
        doc = json.loads(path.read_text())
        assert doc["loss"]["cls_loss_weight"] == 0.75

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"train": {"tau": 1e400}}', "'tau' in section 'train'"),
            ('{"train": {"tau": 1' + "0" * 400 + "}}", "'tau' in section 'train'"),
            ('{"loss": {"eta": -1e400}}', "'eta' in section 'loss'"),
            ('{"prompt": {"init_std": 2e308}}', "'init_std' in section 'prompt'"),
        ],
        ids=["inf", "huge-int", "minus-inf", "prompt"],
    )
    def test_float_field_beyond_a_double_refused(self, tmp_path, text, key):
        """json.loads reads 1e400 as inf and a 401-digit integer as an int
        that no double holds: each is refused by name, before it can be
        echoed as Infinity or overflow in training."""
        path = tmp_path / "huge.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"key {key} must be a finite number"):
            load_config(path)

    def test_large_finite_float_field_kept(self):
        config = parse_config({"train": {"tau": 10**300, "lr0": 1e308}})
        assert (config.train.tau, config.train.lr0) == (10**300, 1e308)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)


class TestHelpers:
    def test_with_train(self):
        cfg = with_train(default_config(), epochs=9, seed=5)
        assert cfg.train.epochs == 9
        assert cfg.train.seed == 5
        assert cfg.synth == default_config().synth

    def test_with_loss_prompt_synth(self):
        cfg = default_config()
        assert with_loss(cfg, eta=2.0).train.loss.eta == 2.0
        assert with_prompt(cfg, num_context_tokens=8).train.prompt.num_context_tokens == 8
        assert with_synth(cfg, seed=123).synth.seed == 123

    def test_helpers_validate(self):
        with pytest.raises(ConfigError):
            with_train(default_config(), epochs=0)
        with pytest.raises(ConfigError):
            with_loss(default_config(), cls_loss_weight=2.0)
