import tailprompt

# Every name here has a caller outside the tests (the CLI, the training loop,
# the benchmark). A name that nothing calls belongs in tests/oracles.py.
EXPORTS = [
    "Batch",
    "ClassStats",
    "ConfigError",
    "EvalResult",
    "FrozenTextEncoder",
    "LossConfig",
    "LossReport",
    "MultiLabelDataset",
    "NumericsError",
    "PromptSet",
    "PromptSpec",
    "RunRecord",
    "SynthConfig",
    "TailPromptError",
    "TrainConfig",
    "average_precision",
    "class_counts",
    "encode_all",
    "evaluate",
    "generate",
    "group_classes",
    "init_prompt_set",
    "load_dataset",
    "save_dataset",
    "total_loss",
    "train",
    "__version__",
]


def test_exports_are_exactly_the_pinned_list():
    assert tailprompt.__all__ == EXPORTS


def test_every_exported_name_resolves():
    missing = [name for name in tailprompt.__all__ if not hasattr(tailprompt, name)]
    assert missing == []
    assert len(set(tailprompt.__all__)) == len(tailprompt.__all__)


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from tailprompt import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(tailprompt.__all__)
    for name in tailprompt.__all__:
        assert namespace[name] is getattr(tailprompt, name)
