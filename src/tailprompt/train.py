"""Deterministic SGD prompt-tuning loop with cosine-annealed learning rate.

One loop trains either head: the prompt contexts, or the weights and bias of
the linear-probe reference. Only those receive updates; the text projection,
class tokens, and all dataset embeddings are frozen bit-for-bit. Class
statistics are computed once from the full split before epoch 1 and reused
everywhere. Every random choice flows from explicit seeds, so a (dataset,
config) pair fully determines every logged number.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .data_model import (
    ClassStats,
    HEAD_MIN_DEFAULT,
    MultiLabelDataset,
    TAIL_MAX_DEFAULT,
)
from .encoders import (
    FrozenTextEncoder,
    MODE_CLASS_SPECIFIC,
    PROMPT_MODES,
    PromptSet,
    encode_all,
    encode_backward,
    init_prompt_set,
    prompts_from_dict,
    prompts_to_dict,
)
from .errors import ConfigError, NumericsError
from .losses import (
    LossConfig,
    LossReport,
    Objective,
    active_parts,
    blend,
    check_classes,
    class_scores,
    classification_part,
    cls_loss_on_logits,
    cosine_distances,
    embedding_part,
    loss_constants,
    loss_objective,
    mean_positive_delta,
    objective_core,
)
from .metrics import MAP_KEYS, EvalResult, evaluate
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
        if self.mode not in PROMPT_MODES:
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
    """In-place params -= lr * gradient; no momentum, no weight decay.

    Each axis of gradient has the length of params' axis or 1, where it
    broadcasts: the pooled prompt gradient has one token row per block (see
    encoders.encode_backward). The finiteness check and the product lr *
    gradient run on gradient as given, so every entry of params gets the
    bits p - lr * g that a full-shape copy of gradient would give it.
    """
    gradient = np.asarray(gradient)
    if gradient.ndim != params.ndim or any(
        g not in (p, 1) for g, p in zip(gradient.shape, params.shape)
    ):
        raise ConfigError(
            f"gradient shape {gradient.shape} does not match parameters {params.shape}"
        )
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


class _PromptHead:
    """Prompt contexts scored through the frozen text encoder under the
    blended objective, on one split."""

    def __init__(
        self,
        dataset: MultiLabelDataset,
        prompts: PromptSet,
        encoder: FrozenTextEncoder,
        stats: ClassStats,
        config: TrainConfig,
    ):
        self.dataset = dataset
        self.prompts = prompts
        self.encoder = encoder
        self.stats = stats
        self.config = config
        self.record_fields = {"prompts": prompts, "encoder": encoder}

    @cached_property
    def _objective(self) -> Objective:
        """The steps' Objective, built at the first step, after the epoch-0
        record has resolved the same constants. The split, the prompts and
        the stats are checked to agree on the classes here, once a run."""
        check_classes(self.dataset, self.prompts, self.stats)
        return loss_objective(self.stats, self.config.loss, self.config.tau)

    def step(self, indices: np.ndarray, lr: float):
        """One SGD step on the split's rows indices; (total, cls part, cse
        part) of their loss, the bits of total_loss on dataset.batch(indices).

        The rows are gathered directly and scored by objective_core, the
        core that total_loss, and so the pre-training gradcheck, runs. It and
        encode_all, encode_backward and sgd_step are looked up by module name
        on every call, where the traced benchmark wraps them (it counts steps
        by sgd_step). sgd_step checks the gradient before it writes, and a
        loss that is not finite leaves the contexts untouched, for train()
        to abort on.
        """
        data = self.dataset
        encoding = encode_all(self.encoder, self.prompts)
        total, cls_value, cse_value, gradient = objective_core(
            self._objective,
            data.images[indices],
            data.labels[indices],
            data.captions[indices],
            encoding.embeddings,
            True,
        )
        gradient = encode_backward(self.encoder, self.prompts, encoding, gradient)
        if math.isfinite(total):
            sgd_step(self.prompts.contexts, gradient, lr)
        return total, cls_value, cse_value

    def evaluate(self) -> EvalResult:
        embeddings = encode_all(self.encoder, self.prompts).embeddings
        scores = class_scores(self.dataset.images, embeddings, self.config.tau)
        return evaluate(scores, self.dataset.labels, self.stats)

    def measure(self, with_loss: bool = False):
        """(LossReport or None, mean positive delta, EvalResult) for an epoch
        record, from one encoding of the prompts.

        Each (N, C) matrix is built once, serves both of its readers and is
        freed before the next is built: the scores give the classification
        part's value and the ranking, the distances the embedding part's
        value and the alignment diagnostic. The report, asked for at epoch 0,
        has the bits of total_loss(dataset, need_grad=False).
        """
        dataset, loss = self.dataset, self.config.loss
        labels = dataset.labels
        compute_cls, compute_cse = active_parts(loss) if with_loss else (False, False)
        constants = loss_constants(self.stats, loss)
        embeddings = encode_all(self.encoder, self.prompts).embeddings
        cls_value = cse_value = 0.0
        scores = class_scores(dataset.images, embeddings, self.config.tau)
        if compute_cls:
            cls_value, _ = classification_part(scores, labels, constants, loss, need_grad=False)
        result = evaluate(scores, labels, self.stats)
        del scores
        distances = cosine_distances(dataset.captions, embeddings)
        if compute_cse:
            cse_value, _ = embedding_part(distances, labels, constants, need_grad=False)
        delta = mean_positive_delta(distances, labels)
        if not with_loss:
            return None, delta, result
        total = blend(loss.cls_loss_weight, cls_value, cse_value)
        return LossReport(total, cls_value, cse_value, None), delta, result


class _ProbeHead:
    """The linear-probe reference: a C x d linear head (plus bias) on the
    frozen image embeddings of one split, trained with the configured
    classification loss alone. No prompts, no embedding loss."""

    def __init__(
        self,
        dataset: MultiLabelDataset,
        weights: np.ndarray,
        bias: np.ndarray,
        stats: ClassStats,
        config: TrainConfig,
    ):
        self.dataset = dataset
        self.weights = weights
        self.bias = bias
        self.stats = stats
        self.config = config
        self.record_fields = {"probe_weights": weights, "probe_bias": bias}

    def scores(self, images: np.ndarray) -> np.ndarray:
        """images @ W.T / tau + bias, divided and shifted in place: one
        (N, C) matrix is held, with the bits of the three-operation form."""
        z = images @ self.weights.T
        z /= self.config.tau
        z += self.bias
        return z

    def step(self, indices: np.ndarray, lr: float):
        """One SGD step on the split's rows indices, as the prompt head's:
        (total, cls part, cse part) of their loss from cls_loss_on_logits,
        then sgd_step on the weights and on the bias. A loss that is not
        finite leaves both untouched."""
        images = self.dataset.images[indices]
        report = cls_loss_on_logits(
            self.scores(images), self.dataset.labels[indices], self.stats, self.config.loss
        )
        grad_z = report.gradient
        gradients = (grad_z.T @ images / self.config.tau, grad_z.sum(axis=0))
        if math.isfinite(report.total):
            for params, gradient in zip((self.weights, self.bias), gradients):
                sgd_step(params, gradient, lr)
        return report.total, report.cls_part, report.cse_part

    def evaluate(self) -> EvalResult:
        return evaluate(self.scores(self.dataset.images), self.dataset.labels, self.stats)

    def measure(self, with_loss: bool = False):
        """(LossReport or None, None, EvalResult) for an epoch record, from
        one product of the scores; a probe has no prompts to align."""
        z = self.scores(self.dataset.images)
        report = None
        if with_loss:
            report = cls_loss_on_logits(
                z, self.dataset.labels, self.stats, self.config.loss, need_grad=False
            )
        return report, None, evaluate(z, self.dataset.labels, self.stats)


def train(dataset: MultiLabelDataset, config: TrainConfig) -> RunRecord:
    """Run the prompt-tuning loop (or the configured baseline) to completion.

    Prompts and the linear probe share the schedule, shuffle, abort rule and
    metrics. A non-finite loss or gradient aborts the run; the partial record
    comes back with failed=True instead of an exception so sweeps can continue.
    """
    started = time.perf_counter()
    if config.baseline == "linear_probe":
        stats = ClassStats.from_dataset(dataset, config.head_min, config.tail_max)
        weights = np.zeros((dataset.num_classes, dataset.dim))
        head = _ProbeHead(dataset, weights, np.zeros(dataset.num_classes), stats, config)
    else:
        stats, encoder, prompts = build_training_state(dataset, config)
        head = _PromptHead(dataset, prompts, encoder, stats, config)

    report, *measured = head.measure(with_loss=True)
    initial = EpochRecord(0, config.lr0, report.total, report.cls_part, report.cse_part, *measured)
    shuffle_rng = substream(config.seed, DOMAIN_TRAIN, _STREAM_SHUFFLE)
    history: list[EpochRecord] = []
    abort_reason = None

    for epoch in range(1, config.epochs + 1):
        lr = cosine_lr(epoch - 1, config.epochs, config.lr0)
        permutation = shuffle_rng.permutation(dataset.num_samples)
        sum_total = 0.0
        sum_cls = 0.0
        sum_cse = 0.0
        try:
            for indices in _epoch_batches(permutation, config.batch_size):
                total, cls_part, cse_part = head.step(indices, lr)
                if not math.isfinite(total):
                    raise NumericsError(f"abort run: non-finite loss at epoch {epoch}")
                sum_total += total * indices.size
                sum_cls += cls_part * indices.size
                sum_cse += cse_part * indices.size
        except NumericsError as err:
            abort_reason = str(err)
            break

        eval_now = epoch % config.eval_every == 0 or epoch == config.epochs
        history.append(
            EpochRecord(
                epoch,
                lr,
                sum_total / dataset.num_samples,
                sum_cls / dataset.num_samples,
                sum_cse / dataset.num_samples,
                *(head.measure()[1:] if eval_now else (None, None)),
            )
        )

    final_eval = next(
        (record.eval for record in reversed([initial, *history]) if record.eval is not None), None
    )
    return RunRecord(
        initial=initial,
        history=tuple(history),
        final_eval=final_eval,
        wall_seconds=time.perf_counter() - started,
        failed=abort_reason is not None,
        abort_reason=abort_reason,
        stats=head.stats,
        **head.record_fields,
    )

METRICS_COLUMNS = ("epoch", *MAP_KEYS, "loss_total", "loss_cls", "loss_cse", "lr")


def _cell(value) -> str:
    # repr of a float is its shortest round-trip form: full precision, stable
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _metrics_row(record: EpochRecord) -> list[str]:
    """The METRICS_COLUMNS cells of the record's run.json epoch entry."""
    fields = {**_epoch_to_dict(record), **(_eval_to_dict(record.eval) or {})}
    return [_cell(fields.get(column)) for column in METRICS_COLUMNS]


def _eval_to_dict(ev: EvalResult | None):
    if ev is None:
        return None
    per_class = [float(a) if math.isfinite(a) else None for a in ev.per_class_ap]
    return {**ev.maps(), "per_class_ap": per_class, "excluded": list(ev.excluded)}


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


def checkpoint_from_dict(doc, dataset: MultiLabelDataset, config: TrainConfig):
    """Inverse of checkpoint_to_dict: the trained head a checkpoint holds, set
    up to score dataset the way training did. config supplies tau, the group
    thresholds, and the encoder seed when the checkpoint records none."""
    if not isinstance(doc, dict):
        raise ConfigError("checkpoint must be a JSON object")
    stats = ClassStats.from_dataset(dataset, config.head_min, config.tail_max)
    kind = doc.get("kind", "prompts")
    if kind == "prompts":
        prompts = prompts_from_dict(doc)
        seed = prompts.encoder_seed if prompts.encoder_seed is not None else config.encoder_seed
        encoder = FrozenTextEncoder.create(seed, prompts.token_dim, dataset.dim)
        return _PromptHead(dataset, prompts, encoder, stats, config)
    if kind == "linear_probe":
        try:
            weights = np.asarray(doc["weights"], dtype=np.float64)
            bias = np.asarray(doc["bias"], dtype=np.float64)
        except KeyError as exc:
            raise ConfigError(f"linear_probe checkpoint missing field: {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"linear_probe checkpoint is malformed: {exc}") from exc
        shape = (dataset.num_classes, dataset.dim)
        if weights.shape != shape or bias.shape != shape[:1]:
            raise ConfigError(
                f"linear_probe checkpoint holds weights {weights.shape} and bias {bias.shape}; "
                f"the dataset needs {shape} and {shape[:1]}"
            )
        return _ProbeHead(dataset, weights, bias, stats, config)
    raise ConfigError(f"unknown checkpoint kind {kind!r}")


def refuse_nonempty_dir(out_dir, force: bool) -> Path:
    """Raise ConfigError when out_dir is a file or lies under one, or when it
    is a non-empty directory and force is not set."""
    out = Path(out_dir)
    nearest = next(path for path in (out, *out.parents) if path.exists())
    if not nearest.is_dir():
        raise ConfigError(f"output directory {out} is not a directory ({nearest} is a file)")
    if not force and out.is_dir() and any(out.iterdir()):
        raise ConfigError(f"output directory {out} is not empty (use --force to overwrite)")
    return out


def _write_json_line(path: Path, doc: dict) -> None:
    """Write json.dumps(doc) + "\n" to path without ever holding that text:
    each value of doc is encoded alone, and a list one element at a time (a
    context block of the prompts, a row of the probe's weights)."""
    with path.open("w") as fh:
        fh.write("{")
        for i, (key, value) in enumerate(doc.items()):
            fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
            if isinstance(value, list):
                fh.write("[")
                for j, item in enumerate(value):
                    fh.write(f"{', ' if j else ''}{json.dumps(item)}")
                fh.write("]")
            else:
                fh.write(json.dumps(value))
        fh.write("}\n")


def write_run_dir(out_dir, record: RunRecord, config_doc: dict, force: bool = False) -> Path:
    """Persist a run: config.json (echo), metrics.csv, prompts.ckpt.json, run.json.

    Refuses to reuse a non-empty directory unless force is set. metrics.csv
    carries the epoch-0 row followed by one row per completed epoch; absent
    values (off-cadence evals, empty groups) are empty cells.
    """
    out = refuse_nonempty_dir(out_dir, force)
    out.mkdir(parents=True, exist_ok=True)

    (out / "config.json").write_text(json.dumps(config_doc, indent=2) + "\n")

    with (out / "metrics.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(METRICS_COLUMNS)
        writer.writerow(_metrics_row(record.initial))
        for epoch_record in record.history:
            writer.writerow(_metrics_row(epoch_record))

    _write_json_line(out / "prompts.ckpt.json", checkpoint_to_dict(record))

    (out / "run.json").write_text(json.dumps(run_record_to_dict(record), indent=2) + "\n")
    return out
