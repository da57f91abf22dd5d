"""Deterministic SGD prompt-tuning loop with cosine-annealed learning rate.

Only the prompt contexts receive updates; the text projection, class tokens,
and all dataset embeddings are frozen bit-for-bit. Class statistics are
computed once from the full split before epoch 1 and reused everywhere. Every
random choice flows from explicit seeds, so a (dataset, config) pair fully
determines every logged number.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data_model import (
    Batch,
    ClassStats,
    HEAD_MIN_DEFAULT,
    MultiLabelDataset,
    TAIL_MAX_DEFAULT,
)
from .encoders import (
    FrozenTextEncoder,
    MODE_CLASS_SPECIFIC,
    MODE_SHARED,
    PromptSet,
    init_prompt_set,
    prompts_to_dict,
)
from .errors import ConfigError, NumericsError
from .losses import LossConfig, cls_loss_on_logits, mean_positive_delta, total_loss
from .metrics import EvalResult, evaluate, evaluate_scores
from .seeding import DOMAIN_TRAIN, substream

BASELINES = ("none", "linear_probe")

# PRNG stream ids under the training domain; stream 1 draws the CLI's
# pre-training gradcheck batch (cli._GRADCHECK_BATCH_STREAM)
_STREAM_SHUFFLE = 0


@dataclass(frozen=True)
class PromptSpec:
    """How the trainable prompts are laid out and initialized.

    token_dim defaults to the dataset embedding dimension when left None.
    """

    mode: str = MODE_CLASS_SPECIFIC
    num_context_tokens: int = 4
    token_dim: int | None = None
    init: str = "gaussian"
    init_std: float = 0.02

    def __post_init__(self):
        if self.mode not in (MODE_CLASS_SPECIFIC, MODE_SHARED):
            raise ConfigError(f"unknown prompt mode {self.mode!r}")
        if self.num_context_tokens < 1:
            raise ConfigError("num_context_tokens must be >= 1")
        if self.token_dim is not None and self.token_dim < 1:
            raise ConfigError("token_dim must be >= 1 (or None for the dataset dim)")
        if self.init not in ("gaussian", "template"):
            raise ConfigError(f"unknown prompt init {self.init!r}")
        if self.init_std < 0:
            raise ConfigError("init_std must be >= 0")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    lr0: float = 5e-3
    batch_size: int = 64
    seed: int = 0
    eval_every: int = 1
    baseline: str = "none"
    tau: float = 1.0
    head_min: int = HEAD_MIN_DEFAULT
    tail_max: int = TAIL_MAX_DEFAULT
    encoder_seed: int = 11
    loss: LossConfig = field(default_factory=LossConfig)
    prompt: PromptSpec = field(default_factory=PromptSpec)

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not self.lr0 > 0:
            raise ConfigError("lr0 must be > 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be >= 1")
        if self.baseline not in BASELINES:
            raise ConfigError(f"baseline must be one of {BASELINES}")
        if not self.tau > 0:
            raise ConfigError("tau must be > 0")
        if self.tail_max > self.head_min:
            raise ConfigError(
                f"tail_max ({self.tail_max}) must not exceed head_min ({self.head_min})"
            )
        if self.seed < 0 or self.encoder_seed < 0:
            raise ConfigError("seeds must be >= 0")


@dataclass(frozen=True)
class EpochRecord:
    """Scalars logged for one epoch; eval fields are None off-cadence."""

    epoch: int
    lr: float
    loss_total: float
    loss_cls: float
    loss_cse: float
    mean_pos_delta: float | None
    eval: EvalResult | None


@dataclass(frozen=True)
class RunRecord:
    """Everything a finished (or aborted) run produced.

    history covers completed epochs only; initial is the epoch-0 state before
    any update. prompts/probe_* hold the final parameters (probe_* only for
    the linear-probe baseline).
    """

    initial: EpochRecord
    history: tuple[EpochRecord, ...]
    final_eval: EvalResult | None
    wall_seconds: float
    failed: bool
    abort_reason: str | None
    stats: ClassStats
    prompts: PromptSet | None = None
    encoder: FrozenTextEncoder | None = None
    probe_weights: np.ndarray | None = None
    probe_bias: np.ndarray | None = None

    @property
    def epochs_completed(self) -> int:
        return len(self.history)


def cosine_lr(t: int, total_epochs: int, lr0: float) -> float:
    """lr(t) = lr0 * (1 + cos(pi * t / T)) / 2 on epoch index t in [0, T)."""
    if total_epochs < 1:
        raise ConfigError("total_epochs must be >= 1")
    if not 0 <= t < total_epochs:
        raise ConfigError(f"invalid step: epoch index {t} outside [0, {total_epochs})")
    if not lr0 > 0:
        raise ConfigError("lr0 must be > 0")
    return lr0 * (1.0 + math.cos(math.pi * t / total_epochs)) / 2.0


def sgd_step(params: np.ndarray, gradient: np.ndarray, lr: float) -> np.ndarray:
    """In-place params -= lr * gradient; no momentum, no weight decay."""
    gradient = np.asarray(gradient)
    if gradient.shape != params.shape:
        raise ConfigError("gradient shape does not match parameters")
    if not np.isfinite(gradient).all():
        raise NumericsError("abort run: non-finite gradient")
    params -= lr * gradient
    return params


def _epoch_batches(permutation: np.ndarray, batch_size: int):
    for start in range(0, permutation.size, batch_size):
        yield permutation[start : start + batch_size]


def build_training_state(
    dataset: MultiLabelDataset, config: TrainConfig
) -> tuple[ClassStats, FrozenTextEncoder, PromptSet]:
    """Deterministic pre-training setup: split statistics, frozen encoder,
    freshly initialized prompts. The CLI gradcheck hook builds the exact
    state train() would so the certificate covers the real run."""
    stats = ClassStats.from_dataset(dataset, config.head_min, config.tail_max)
    token_dim = config.prompt.token_dim or dataset.dim
    encoder = FrozenTextEncoder.create(config.encoder_seed, token_dim, dataset.dim)
    prompts = init_prompt_set(
        num_classes=dataset.num_classes,
        token_dim=token_dim,
        num_context_tokens=config.prompt.num_context_tokens,
        mode=config.prompt.mode,
        init=config.prompt.init,
        init_std=config.prompt.init_std,
        encoder_seed=config.encoder_seed,
        init_seed=config.seed,
    )
    return stats, encoder, prompts


def train(dataset: MultiLabelDataset, config: TrainConfig) -> RunRecord:
    """Run the prompt-tuning loop (or the configured baseline) to completion.

    A non-finite loss or gradient aborts the run; the partial record comes
    back with failed=True instead of an exception so sweeps can continue.
    """
    if config.baseline == "linear_probe":
        return linear_probe_baseline(dataset, config)

    started = time.perf_counter()
    stats, encoder, prompts = build_training_state(dataset, config)
    full = dataset.full_batch()

    def snapshot(epoch: int, lr: float) -> EpochRecord:
        report = total_loss(full, prompts, encoder, stats, config.loss, config.tau, need_grad=False)
        return EpochRecord(
            epoch=epoch,
            lr=lr,
            loss_total=report.total,
            loss_cls=report.cls_part,
            loss_cse=report.cse_part,
            mean_pos_delta=mean_positive_delta(full, prompts, encoder),
            eval=evaluate(dataset, prompts, encoder, config.tau, stats),
        )

    initial = snapshot(0, config.lr0)
    shuffle_rng = substream(config.seed, DOMAIN_TRAIN, _STREAM_SHUFFLE)
    history: list[EpochRecord] = []
    failed = False
    abort_reason = None

    for epoch in range(1, config.epochs + 1):
        lr = cosine_lr(epoch - 1, config.epochs, config.lr0)
        permutation = shuffle_rng.permutation(dataset.num_samples)
        sum_total = 0.0
        sum_cls = 0.0
        sum_cse = 0.0
        try:
            for indices in _epoch_batches(permutation, config.batch_size):
                batch = dataset.batch(indices)
                report = total_loss(
                    batch, prompts, encoder, stats, config.loss, config.tau, need_grad=True
                )
                if not math.isfinite(report.total):
                    raise NumericsError(f"abort run: non-finite loss at epoch {epoch}")
                sgd_step(prompts.contexts, report.gradient, lr)
                sum_total += report.total * indices.size
                sum_cls += report.cls_part * indices.size
                sum_cse += report.cse_part * indices.size
        except NumericsError as err:
            failed = True
            abort_reason = str(err)
            break

        eval_now = epoch % config.eval_every == 0 or epoch == config.epochs
        history.append(
            EpochRecord(
                epoch=epoch,
                lr=lr,
                loss_total=sum_total / dataset.num_samples,
                loss_cls=sum_cls / dataset.num_samples,
                loss_cse=sum_cse / dataset.num_samples,
                mean_pos_delta=mean_positive_delta(full, prompts, encoder) if eval_now else None,
                eval=evaluate(dataset, prompts, encoder, config.tau, stats) if eval_now else None,
            )
        )

    final_eval = None
    for record in reversed([initial, *history]):
        if record.eval is not None:
            final_eval = record.eval
            break
    return RunRecord(
        initial=initial,
        history=tuple(history),
        final_eval=final_eval,
        wall_seconds=time.perf_counter() - started,
        failed=failed,
        abort_reason=abort_reason,
        stats=stats,
        prompts=prompts,
        encoder=encoder,
    )


def linear_probe_baseline(dataset: MultiLabelDataset, config: TrainConfig) -> RunRecord:
    """Reference run: a C x d linear head (plus bias) on the frozen image
    embeddings, trained with the configured classification loss alone. No
    prompts, no embedding loss; same schedule, shuffle, and metrics pipeline.
    """
    started = time.perf_counter()
    stats = ClassStats.from_dataset(dataset, config.head_min, config.tail_max)
    weights = np.zeros((dataset.num_classes, dataset.dim))
    bias = np.zeros(dataset.num_classes)

    def head_scores(images: np.ndarray) -> np.ndarray:
        return images @ weights.T / config.tau + bias

    def snapshot(epoch: int, lr: float) -> EpochRecord:
        report = cls_loss_on_logits(
            head_scores(dataset.images), dataset.labels, stats, config.loss, need_grad=False
        )
        return EpochRecord(
            epoch=epoch,
            lr=lr,
            loss_total=report.total,
            loss_cls=report.cls_part,
            loss_cse=0.0,
            mean_pos_delta=None,
            eval=evaluate_scores(head_scores(dataset.images), dataset.labels, stats),
        )

    initial = snapshot(0, config.lr0)
    shuffle_rng = substream(config.seed, DOMAIN_TRAIN, _STREAM_SHUFFLE)
    history: list[EpochRecord] = []
    failed = False
    abort_reason = None

    for epoch in range(1, config.epochs + 1):
        lr = cosine_lr(epoch - 1, config.epochs, config.lr0)
        permutation = shuffle_rng.permutation(dataset.num_samples)
        sum_value = 0.0
        try:
            for indices in _epoch_batches(permutation, config.batch_size):
                images = dataset.images[indices]
                labels = dataset.labels[indices]
                report = cls_loss_on_logits(
                    head_scores(images), labels, stats, config.loss, need_grad=True
                )
                if not math.isfinite(report.total):
                    raise NumericsError(f"abort run: non-finite loss at epoch {epoch}")
                grad_z = report.gradient
                sgd_step(weights, grad_z.T @ images / config.tau, lr)
                sgd_step(bias, grad_z.sum(axis=0), lr)
                sum_value += report.total * indices.size
        except NumericsError as err:
            failed = True
            abort_reason = str(err)
            break

        eval_now = epoch % config.eval_every == 0 or epoch == config.epochs
        mean_value = sum_value / dataset.num_samples
        history.append(
            EpochRecord(
                epoch=epoch,
                lr=lr,
                loss_total=mean_value,
                loss_cls=mean_value,
                loss_cse=0.0,
                mean_pos_delta=None,
                eval=evaluate_scores(head_scores(dataset.images), dataset.labels, stats)
                if eval_now
                else None,
            )
        )

    final_eval = None
    for record in reversed([initial, *history]):
        if record.eval is not None:
            final_eval = record.eval
            break
    return RunRecord(
        initial=initial,
        history=tuple(history),
        final_eval=final_eval,
        wall_seconds=time.perf_counter() - started,
        failed=failed,
        abort_reason=abort_reason,
        stats=stats,
        probe_weights=weights,
        probe_bias=bias,
    )


METRICS_COLUMNS = (
    "epoch",
    "map_total",
    "map_head",
    "map_medium",
    "map_tail",
    "loss_total",
    "loss_cls",
    "loss_cse",
    "lr",
)


def _cell(value) -> str:
    # repr of a float is its shortest round-trip form: full precision, stable
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _metrics_row(record: EpochRecord) -> list[str]:
    ev = record.eval
    return [
        _cell(record.epoch),
        _cell(ev.map_total if ev else None),
        _cell(ev.map_head if ev else None),
        _cell(ev.map_medium if ev else None),
        _cell(ev.map_tail if ev else None),
        _cell(record.loss_total),
        _cell(record.loss_cls),
        _cell(record.loss_cse),
        _cell(record.lr),
    ]


def _eval_to_dict(ev: EvalResult | None):
    if ev is None:
        return None
    per_class = [float(a) if math.isfinite(a) else None for a in ev.per_class_ap]
    return {
        "map_total": ev.map_total,
        "map_head": ev.map_head,
        "map_medium": ev.map_medium,
        "map_tail": ev.map_tail,
        "per_class_ap": per_class,
        "excluded": list(ev.excluded),
    }


def _epoch_to_dict(record: EpochRecord) -> dict:
    return {
        "epoch": record.epoch,
        "lr": record.lr,
        "loss_total": record.loss_total,
        "loss_cls": record.loss_cls,
        "loss_cse": record.loss_cse,
        "mean_pos_delta": record.mean_pos_delta,
        "eval": _eval_to_dict(record.eval),
    }


def run_record_to_dict(record: RunRecord) -> dict:
    """JSON document for run.json; wall_seconds lives here and only here so
    the byte-compared files stay timing-free."""
    return {
        "failed": record.failed,
        "abort_reason": record.abort_reason,
        "epochs_completed": record.epochs_completed,
        "wall_seconds": record.wall_seconds,
        "class_counts": [int(n) for n in record.stats.counts],
        "class_groups": list(record.stats.group),
        "initial": _epoch_to_dict(record.initial),
        "history": [_epoch_to_dict(r) for r in record.history],
        "final_eval": _eval_to_dict(record.final_eval),
    }


def checkpoint_to_dict(record: RunRecord) -> dict:
    """Final trained parameters: prompt contexts or the linear-probe head."""
    if record.prompts is not None:
        return {"kind": "prompts", **prompts_to_dict(record.prompts)}
    if record.probe_weights is not None:
        return {
            "kind": "linear_probe",
            "weights": record.probe_weights.tolist(),
            "bias": record.probe_bias.tolist(),
        }
    raise ConfigError("run record holds no trained parameters")


def write_run_dir(out_dir, record: RunRecord, config_doc: dict, force: bool = False) -> Path:
    """Persist a run: config.json (echo), metrics.csv, prompts.ckpt.json, run.json.

    Refuses to reuse a non-empty directory unless force is set. metrics.csv
    carries the epoch-0 row followed by one row per completed epoch; absent
    values (off-cadence evals, empty groups) are empty cells.
    """
    out = Path(out_dir)
    if out.exists() and any(out.iterdir()) and not force:
        raise ConfigError(f"output directory {out} is not empty (use force to overwrite)")
    out.mkdir(parents=True, exist_ok=True)

    (out / "config.json").write_text(json.dumps(config_doc, indent=2) + "\n")

    with (out / "metrics.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(METRICS_COLUMNS)
        writer.writerow(_metrics_row(record.initial))
        for epoch_record in record.history:
            writer.writerow(_metrics_row(epoch_record))

    ckpt = checkpoint_to_dict(record)
    (out / "prompts.ckpt.json").write_text(json.dumps(ckpt) + "\n")

    (out / "run.json").write_text(json.dumps(run_record_to_dict(record), indent=2) + "\n")
    return out
