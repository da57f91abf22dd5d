"""Desk-scale laboratory for long-tailed multi-label prompt tuning.

Synthetic data with a power-law class distribution, frozen linear text and
image encoders, learnable prompt contexts, a margin/re-weighting embedding
loss blended with rebalanced classification losses, analytic gradients
certified against finite differences, and head/medium/tail mAP evaluation.
"""

from .data_model import (
    Batch,
    ClassStats,
    MultiLabelDataset,
    class_counts,
    group_classes,
    load_dataset,
    save_dataset,
)
from .encoders import (
    FrozenTextEncoder,
    PromptSet,
    encode_all,
    encode_prompt,
    init_prompt_set,
    load_prompts,
    save_prompts,
)
from .errors import ConfigError, NumericsError, TailPromptError
from .losses import LossConfig, LossReport, bce_loss, cse_loss, db_loss, focal_loss, total_loss
from .metrics import EvalResult, average_precision, evaluate
from .synth import SynthConfig, generate
from .train import PromptSpec, RunRecord, TrainConfig, train

__version__ = "0.1.0"

__all__ = [
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
    "bce_loss",
    "class_counts",
    "cse_loss",
    "db_loss",
    "encode_all",
    "encode_prompt",
    "evaluate",
    "focal_loss",
    "generate",
    "group_classes",
    "init_prompt_set",
    "load_dataset",
    "load_prompts",
    "save_dataset",
    "save_prompts",
    "total_loss",
    "train",
    "__version__",
]
