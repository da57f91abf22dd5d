"""Deterministic SGD prompt-tuning loop with cosine-annealed learning rate.

One loop trains either head: the prompt contexts, or the weights and bias of
the linear-probe reference. Only those receive updates; the text projection,
class tokens, and all dataset embeddings are frozen bit-for-bit. Class
statistics are computed once from the full training split before epoch 1 and
reused everywhere: a head holds its parameters and those statistics, and
scores any split it is given under the training split's class groups. Every
random choice flows from explicit seeds, so a (dataset, config) pair fully
determines every logged number.

Prompt runs whose configs share a stack_key, and so differ at most in the
seed and the two ablation switches of the embedding loss, train in lockstep
(train_stack): one step evaluates all of them on a leading run axis, and each
run keeps the bits it gets when trained alone. train() is the one-run case of
that loop.

When a core is free and this process runs one thread, a forked record worker
scores each epoch record but the last while this process takes the next
epoch's steps (_RecordWorker). The speculative epoch is kept only when
nothing would tell it apart from the inline order; otherwise it is rewound
and replayed inline, so the worker changes no output byte, exit code,
message or warning.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import json
import math
import os
import pickle
import signal
import time
import warnings
from dataclasses import dataclass, field
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
)
from .errors import ConfigError, NumericsError
from .losses import (
    LossConfig,
    check_classes,
    class_scores,
    cosine_distances,
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
    any update; abort_reason is None for a finished run. prompts/probe_* hold
    the final parameters (probe_* only for the linear-probe baseline).
    """

    initial: EpochRecord
    history: tuple[EpochRecord, ...]
    wall_seconds: float
    abort_reason: str | None
    stats: ClassStats
    prompts: PromptSet | None = None
    encoder: FrozenTextEncoder | None = None
    probe_weights: np.ndarray | None = None
    probe_bias: np.ndarray | None = None

    @property
    def epochs_completed(self) -> int:
        return len(self.history)

    @property
    def failed(self) -> bool:
        return self.abort_reason is not None

    @property
    def final_eval(self) -> EvalResult:
        """The last epoch record's evaluation; epoch 0 always has one."""
        return next(r.eval for r in reversed((self.initial, *self.history)) if r.eval is not None)


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


def _epoch_batches(order: np.ndarray, batch_size: int):
    """Consecutive batches of the last axis of order: one shared
    permutation, or one row per run."""
    for start in range(0, order.shape[-1], batch_size):
        yield order[..., start : start + batch_size]


def stack_key(config: TrainConfig):
    """What the configs of prompt runs trained as one stack on one dataset
    share: the whole TrainConfig but its seed and the LossConfig's
    use_class_aware_margin and use_reweighting, which only the embedding
    part's per-class constants read. None for the linear probe, which
    trains alone."""
    if config.baseline != "none":
        return None
    loss = dataclasses.replace(config.loss, use_class_aware_margin=True, use_reweighting=True)
    return dataclasses.replace(config, seed=0, loss=loss)


def build_training_state(
    dataset: MultiLabelDataset, config: TrainConfig
) -> tuple[ClassStats, FrozenTextEncoder, PromptSet]:
    """The stats, frozen encoder and fresh prompts of a prompt run: those of
    the head _trainer(dataset, [config]) builds, so the CLI's pre-training
    gradcheck certifies the trainer's own state."""
    (head,) = _trainer(dataset, [config]).heads
    return head.stats, head.encoder, head.prompts


def _record_eval(scores: np.ndarray, labels: np.ndarray, stats: ClassStats) -> EvalResult:
    """evaluate of an epoch record's scores. The parameters an epoch's last
    step wrote are read first here, so scores that are not finite abort the
    run, as a non-finite loss does, where evaluate would refuse them as bad
    input. min and max carry any NaN or infinity, and copy nothing."""
    if not (math.isfinite(scores.min()) and math.isfinite(scores.max())):
        raise NumericsError("abort run: non-finite scores in the epoch record")
    return evaluate(scores, labels, stats)


class _PromptHead:
    """Prompt contexts scored through the frozen text encoder under the
    run's blended Objective, grouped by the training split's stats."""

    def __init__(
        self, prompts: PromptSet, encoder: FrozenTextEncoder, stats: ClassStats, config: TrainConfig
    ):
        self.prompts = prompts
        self.encoder = encoder
        self.stats = stats
        self.config = config
        self.objective = loss_objective(stats, config.loss)
        self.record_fields = {"prompts": prompts, "encoder": encoder}

    def evaluate(self, split: MultiLabelDataset) -> EvalResult:
        embeddings = encode_all(self.encoder, self.prompts).embeddings
        scores = class_scores(split.images, embeddings, self.config.tau)
        return evaluate(scores, split.labels, self.stats)

    def measure(self, split: MultiLabelDataset, with_loss: bool = False):
        """(losses or None, mean positive delta, EvalResult) for an epoch
        record of split, from one encoding of the prompts.

        Each (N, C) matrix is built once, serves both of its readers and is
        freed before the next is built: the scores give the classification
        part's value and the ranking, the distances the embedding part's
        value and the alignment diagnostic. The losses, asked for at epoch
        0, are the floats (total, cls part, cse part) with the bits of
        total_loss(split, need_grad=False); the split, the prompts and the
        stats are checked to agree on the classes then, once a run.
        """
        labels, objective = split.labels, self.objective
        if with_loss:
            check_classes(split, self.prompts, self.stats)
        embeddings = encode_all(self.encoder, self.prompts).embeddings
        cls_value = cse_value = (0.0,)
        scores = class_scores(split.images, embeddings, self.config.tau)
        if with_loss and objective.compute_cls:
            cls_value, _ = objective.classification(scores, labels, need_grad=False)
        result = _record_eval(scores, labels, self.stats)
        del scores
        distances = cosine_distances(split.captions, embeddings)
        if with_loss and objective.compute_cse:
            cse_value, _ = objective.embedding(distances, labels, need_grad=False)
        delta = mean_positive_delta(distances, labels)
        if not with_loss:
            return None, delta, result
        (total,) = objective.blend(cls_value, cse_value)
        return (total, cls_value[0], cse_value[0]), delta, result


class _PromptStack:
    """The prompt heads of S >= 1 runs that share a stack_key, trained in
    lockstep: they share the stats, the encoder and tau, and each keeps its
    own contexts and epoch records. parameters lists the arrays a step
    updates: the stack's contexts.

    The step evaluates the one Objective of the runs' LossConfigs on one
    PromptSet: a lone run's own, or, for S > 1 runs, one whose contexts
    stack the runs' on a leading run axis. Each head's contexts are then
    rebound to their slice of the stack, so an update of the stack is an
    update of every run, and every array of the step has the run axis.
    """

    def __init__(self, heads: list[_PromptHead]):
        self.heads = heads
        first = heads[0]
        self.encoder, self.tau = first.encoder, first.config.tau
        self.prompts = first.prompts
        if len(heads) > 1:
            contexts = np.stack([head.prompts.contexts for head in heads])
            for head, view in zip(heads, contexts):
                head.prompts.contexts = view
            self.prompts = dataclasses.replace(first.prompts, contexts=contexts)
        self.parameters = [self.prompts.contexts]
        self.objective = loss_objective(first.stats, *(head.config.loss for head in heads))

    def step(self, split: MultiLabelDataset, rows: np.ndarray, lr: float) -> list[tuple]:
        """One SGD step of every run on split's rows: one shared index
        vector, or one row of indices per run. Returns each run's (total,
        cls part, cse part) of their loss, the bits of total_loss on
        split.batch of its rows.

        The rows are gathered once and scored by objective_core, the core
        that total_loss, and so the pre-training gradcheck, runs.
        encode_all, encode_backward and sgd_step are looked up by module name
        on every call, where the traced benchmark wraps them (it counts steps
        by sgd_step); objective_core is looked up there too, because the
        abort tests patch it there. sgd_step checks the gradient before it
        writes, and a loss that is not finite in any run leaves every run's
        contexts untouched, for the loop to abort on.
        """
        encoding = encode_all(self.encoder, self.prompts)
        total, cls_value, cse_value, gradient = objective_core(
            self.objective,
            split.images[rows],
            split.labels[rows],
            split.captions[rows],
            encoding.embeddings,
            self.tau,
            True,
        )
        gradient = encode_backward(self.encoder, self.prompts, encoding, gradient)
        if all(map(math.isfinite, total)):
            sgd_step(self.prompts.contexts, gradient, lr)
        return list(zip(total, cls_value, cse_value))


class _ProbeHead:
    """The linear-probe reference: a C x d linear head (plus bias) on the
    frozen image embeddings, trained with the configured classification loss
    alone, whatever the blend weight, and grouped by the training split's
    stats. No prompts, no embedding loss. parameters lists the arrays a step
    updates: the weights and the bias."""

    def __init__(
        self, weights: np.ndarray, bias: np.ndarray, stats: ClassStats, config: TrainConfig
    ):
        self.weights = weights
        self.bias = bias
        self.stats = stats
        self.config = config
        self.objective = loss_objective(stats, config.loss)
        self.record_fields = {"probe_weights": weights, "probe_bias": bias}
        self.parameters = [weights, bias]

    def scores(self, images: np.ndarray) -> np.ndarray:
        """images @ W.T / tau + bias, divided and shifted in place: one
        (N, C) matrix is held, with the bits of the three-operation form."""
        z = images @ self.weights.T
        z /= self.config.tau
        z += self.bias
        return z

    @property
    def heads(self) -> list["_ProbeHead"]:
        """The one run a probe trains, as a _PromptStack's heads."""
        return [self]

    def step(self, split: MultiLabelDataset, indices: np.ndarray, lr: float) -> list[tuple]:
        """One SGD step on split's rows indices, as _PromptStack's of one
        run: [(total, cls part, cse part)] of their loss, which is the
        classification part alone, then sgd_step on the weights and on the
        bias. A loss that is not finite leaves both untouched."""
        images = split.images[indices]
        (value,), grad_z = self.objective.classification(
            self.scores(images), split.labels[indices], True
        )
        gradients = (grad_z.T @ images / self.config.tau, grad_z.sum(axis=0))
        if math.isfinite(value):
            for params, gradient in zip((self.weights, self.bias), gradients):
                sgd_step(params, gradient, lr)
        return [(value, value, 0.0)]

    def evaluate(self, split: MultiLabelDataset) -> EvalResult:
        return evaluate(self.scores(split.images), split.labels, self.stats)

    def measure(self, split: MultiLabelDataset, with_loss: bool = False):
        """(losses or None, None, EvalResult) for an epoch record of split,
        from one product of the scores; a probe has no prompts to align. The
        losses (total, cls part, cse part) are (value, value, 0.0), value
        with the bits of cls_loss_on_logits(need_grad=False)."""
        z = self.scores(split.images)
        losses = None
        if with_loss:
            (value,), _ = self.objective.classification(z, split.labels, need_grad=False)
            losses = (value, value, 0.0)
        return losses, None, _record_eval(z, split.labels, self.stats)


def train(
    dataset: MultiLabelDataset, config: TrainConfig, spare_core: bool | None = None
) -> RunRecord:
    """Run the prompt-tuning loop (or the configured baseline) to completion:
    train_stack of the one run, with its record worker when spare_core
    says so.

    Prompts and the linear probe share the schedule, shuffle, abort rule and
    metrics. A non-finite loss, gradient or epoch-record score aborts the run;
    the partial record comes back with failed=True instead of an exception so
    sweeps can continue.
    """
    return train_stack(dataset, [config], spare_core)[0]


def _trainer(dataset: MultiLabelDataset, configs: list[TrainConfig]):
    """The probe head of a linear-probe run, or the _PromptStack of prompt
    runs that share a stack_key, whose starting state is built here and only
    here; ConfigError for any other set of configs. Runs differ in it only
    by the seed their prompts are drawn from."""
    key = stack_key(configs[0])
    if (key is None and len(configs) > 1) or any(stack_key(c) != key for c in configs):
        raise ConfigError("runs trained as one stack must share a stack_key")
    config, spec = configs[0], configs[0].prompt
    stats = ClassStats.from_dataset(dataset, config.head_min, config.tail_max)
    if key is None:
        weights = np.zeros((dataset.num_classes, dataset.dim))
        return _ProbeHead(weights, np.zeros(dataset.num_classes), stats, config)
    token_dim = spec.token_dim or dataset.dim
    encoder = FrozenTextEncoder.create(config.encoder_seed, token_dim, dataset.dim)
    heads = []
    for run_config in configs:
        prompts = init_prompt_set(
            num_classes=dataset.num_classes,
            token_dim=token_dim,
            num_context_tokens=spec.num_context_tokens,
            mode=spec.mode,
            init=spec.init,
            init_std=spec.init_std,
            encoder_seed=config.encoder_seed,
            init_seed=run_config.seed,
        )
        heads.append(_PromptHead(prompts, encoder, stats, run_config))
    return _PromptStack(heads)


def usable_cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has sched_getaffinity
        return os.cpu_count() or 1


def _threads() -> int | None:
    """The number of threads this process runs, or None where the system
    does not say."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def _may_fork(*functions) -> bool:
    """Whether a child may be forked here: this process runs one thread, and
    none of functions, nor of the functions an epoch record calls, has been
    wrapped.

    A second thread is most often a BLAS library's, which runs its products
    on every core: a child would then take the parent's cores rather than a
    free one, and a child forked from a threaded process may deadlock
    (Python 3.12 warns of it). Where the thread count cannot be read, no
    child is forked. A wrapper (functools.wraps marks it __wrapped__), such
    as a tracer's or a profiler's, must see the calls a child would make
    out of its sight.
    """
    functions += (encode_all, evaluate, mean_positive_delta)
    return _threads() == 1 and not any(hasattr(fn, "__wrapped__") for fn in functions)


@contextlib.contextmanager
def _warnings_raised():
    """Raise each warning that would be issued in the block, as its
    exception, and issue none.

    The "error" filter is put in front of warnings.filters in place:
    warnings.simplefilter would also reset what the warning registries
    hold, and a warning the registries hold as already issued passes
    silently here, as it does outside. A warning raised here is not
    recorded, so code replayed after the block issues it as it would have.
    """
    filters, entry = warnings.filters, ("error", None, Warning, None, 0)
    filters.insert(0, entry)
    try:
        yield
    finally:
        filters.remove(entry)


def _or_none(fn, *args):
    """fn(*args), or None when it raised an Exception or would have warned,
    for the caller to run fn again where that shows."""
    try:
        with _warnings_raised():
            return fn(*args)
    except Exception:
        return None


def _record(trainer, dataset: MultiLabelDataset, with_loss: bool) -> list[tuple]:
    """Each run's (losses or None, mean positive delta, EvalResult) for an
    epoch record of dataset; the losses are asked for at epoch 0."""
    return [head.measure(dataset, with_loss) for head in trainer.heads]


def _serve_records(trainer, dataset: MultiLabelDataset, requests):
    """The record worker's replies: read a with-loss flag byte and the raw
    bytes of trainer's parameter arrays, yield _record, or None when scoring
    raised or would have warned; stop at end of input."""
    while flag := requests.read(1):
        for params in trainer.parameters:
            view = memoryview(params).cast("B")
            if requests.readinto(view) != len(view):
                return
        yield _or_none(_record, trainer, dataset, flag == b"\1")


class _Child:
    """A forked process that pickles each reply of serve(requests) down a
    pipe to this process, where requests is a binary file on a pipe from
    this process, and exits.

    It inherits this process's memory by copy-on-write: spawn would
    re-import the package and pickle the dataset (41 MB at 10k x 200 x
    256), which costs more than the work a child hides.
    """

    def __init__(self, serve):
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (request_r, request_w, reply_r, reply_w):
                os.close(fd)
            raise
        if self.pid == 0:
            try:
                os.close(request_w)
                os.close(reply_r)
                with os.fdopen(request_r, "rb") as requests, os.fdopen(reply_w, "wb") as replies:
                    for reply in serve(requests):
                        replies.write(pickle.dumps(reply))  # all of it, or nothing
                        replies.flush()
            finally:
                os._exit(0)  # no exit handler, buffer flush or test teardown of the parent's
        os.close(request_r)
        os.close(reply_w)
        self.requests = request_w
        self.replies = os.fdopen(reply_r, "rb")

    def receive(self):
        """The next object the child pickled, or None when the child sent
        None, is gone, or sent what cannot be unpickled here."""
        try:
            return pickle.load(self.replies)
        except Exception:
            return None

    def close(self) -> None:
        """End the child and reap it, whatever it is doing."""
        os.close(self.requests)
        self.replies.close()
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


class _RecordWorker(_Child):
    """A child that scores a trainer's epoch records while this process
    trains on.

    It is forked once the trainer is built, so it inherits the dataset and
    the frozen state. Each record sends it only the trainer's parameter
    arrays, raw, down a pipe; it replies with the pickled _record, or None.
    """

    def __init__(self, trainer, dataset: MultiLabelDataset):
        self.parameters = trainer.parameters
        super().__init__(functools.partial(_serve_records, trainer, dataset))

    def send(self, with_loss: bool) -> None:
        """Start scoring an epoch record of the current parameters."""
        try:
            os.write(self.requests, b"\1" if with_loss else b"\0")
            for params in self.parameters:
                view = memoryview(params).cast("B")
                while view:
                    view = view[os.write(self.requests, view) :]
        except BrokenPipeError:  # the worker is gone; receive says so
            pass


def _overlap(worker: _RecordWorker, trainer, generators: list, ahead, with_loss: bool):
    """Score an epoch record in worker while ahead() takes the next epoch's
    steps here: (the record, ahead's value or its NumericsError).

    (None, None) when the record or ahead raised anything else or would
    have warned, or the worker is gone. The trainer's parameters and the
    shuffle generators are then restored to their state before ahead(), so
    that the record and the epoch can run again as if neither had run.
    """
    snapshot = [params.copy() for params in trainer.parameters]
    states = [rng.bit_generator.state for rng in generators]
    worker.send(with_loss)
    outcome = None
    try:
        with _warnings_raised():
            outcome = ahead()
    except NumericsError as err:
        outcome = err
    except Exception:  # a warning or any other failure shows when it runs again
        pass
    measured = worker.receive()
    if measured is not None and outcome is not None:
        return measured, outcome
    for params, saved in zip(trainer.parameters, snapshot):
        params[...] = saved
    for rng, state in zip(generators, states):
        rng.bit_generator.state = state
    return None, None


def train_stack(
    dataset: MultiLabelDataset, configs: list[TrainConfig], spare_core: bool | None = None
) -> list[RunRecord]:
    """Train runs that share a stack_key in lockstep; each run's RunRecord.

    Each epoch draws one permutation per distinct seed, and each step
    gathers the rows of all runs at once and takes one step of every run,
    so every run gets the bits it gets alone. The stack trains or aborts as
    one: when a loss, a gradient or an epoch record's scores of any run are
    not finite, every run's record ends at that epoch with failed=True (a
    sweep then trains each run alone; see cli). Every record's wall_seconds
    is the stack's.

    spare_core says whether a core is free for a record worker; None counts
    this process's usable cores, two or more. With a spare core, in a
    process that runs one thread and whose record functions are not wrapped
    (_may_fork), each epoch record but the last is scored in a
    forked worker while the next epoch's steps run here. That epoch is kept
    when the record came back, and neither raised nor would have warned,
    save the epoch's abort on a non-finite loss. Otherwise the parameters
    and shuffles are restored from a snapshot, the worker is ended, and the
    record and the epoch run again here, as they would have without it.
    """
    started = time.perf_counter()
    config = configs[0]
    trainer = _trainer(dataset, configs)
    seeds = [run_config.seed for run_config in configs]
    n = dataset.num_samples
    shuffles = {seed: substream(seed, DOMAIN_TRAIN, _STREAM_SHUFFLE) for seed in seeds}

    def steps(epoch: int):
        """The steps of epoch: its lr and each run's mean (total, cls part,
        cse part) of their losses; NumericsError on a non-finite loss."""
        lr = cosine_lr(epoch - 1, config.epochs, config.lr0)
        permutations = {seed: rng.permutation(n) for seed, rng in shuffles.items()}
        if len(permutations) == 1:
            order = permutations[seeds[0]]
        else:
            order = np.stack([permutations[seed] for seed in seeds])
        sums = [[0.0, 0.0, 0.0] for _ in configs]
        for rows in _epoch_batches(order, config.batch_size):
            size = rows.shape[-1]
            for run_sums, values in zip(sums, trainer.step(dataset, rows, lr)):
                if not math.isfinite(values[0]):
                    raise NumericsError(f"abort run: non-finite loss at epoch {epoch}")
                for k, value in enumerate(values):
                    run_sums[k] += value * size
        return lr, [[value / n for value in run_sums] for run_sums in sums]

    if spare_core is None:
        spare_core = usable_cores() > 1
    worker = None
    if spare_core and _may_fork():
        with contextlib.suppress(OSError):  # no process to be had: every record runs here
            worker = _RecordWorker(trainer, dataset)
    histories: list[list[EpochRecord]] = [[] for _ in configs]
    abort_reason = None
    lr, means = config.lr0, None
    try:
        for epoch in range(config.epochs + 1):
            last = epoch == config.epochs
            due = epoch % config.eval_every == 0 or last
            measured = ahead = None
            if worker is not None and due and not last:
                generators = list(shuffles.values())
                next_epoch = functools.partial(steps, epoch + 1)
                measured, ahead = _overlap(worker, trainer, generators, next_epoch, epoch == 0)
                if measured is None:
                    worker.close()
                    worker = None
            if not due:
                measured = [(None, None, None)] * len(configs)
            elif measured is None:
                try:
                    measured = _record(trainer, dataset, epoch == 0)
                except NumericsError as err:
                    if epoch == 0:
                        raise
                    abort_reason = str(err)
                    break
            if epoch == 0:
                initial = [EpochRecord(0, lr, *losses, *rest) for losses, *rest in measured]
            else:
                for history, run_means, (_, *rest) in zip(histories, means, measured):
                    history.append(EpochRecord(epoch, lr, *run_means, *rest))
            if last:
                break
            if ahead is None:
                try:
                    ahead = steps(epoch + 1)
                except NumericsError as err:
                    ahead = err
            if isinstance(ahead, NumericsError):
                abort_reason = str(ahead)
                break
            lr, means = ahead
    finally:
        if worker is not None:
            worker.close()

    outcome = dict(wall_seconds=time.perf_counter() - started, abort_reason=abort_reason)
    return [
        RunRecord(first, tuple(history), stats=head.stats, **outcome, **head.record_fields)
        for head, first, history in zip(trainer.heads, initial, histories)
    ]

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
    """The document of prompts.ckpt.json, the final trained parameters:
    prompt contexts or the linear-probe head. Its parameters stay arrays;
    _write_json_line lists them, and checkpoint_from_dict reads arrays and
    lists alike."""
    prompts = record.prompts
    if prompts is not None:
        return {
            "kind": "prompts",
            "mode": prompts.mode,
            "num_context_tokens": prompts.num_context_tokens,
            "token_dim": prompts.token_dim,
            "contexts": prompts.contexts,
            "class_tokens": prompts.class_tokens,
            "encoder_seed": prompts.encoder_seed,
        }
    if record.probe_weights is not None:
        return {"kind": "linear_probe", "weights": record.probe_weights, "bias": record.probe_bias}
    raise ConfigError("run record holds no trained parameters")


def checkpoint_from_dict(doc, train_split: MultiLabelDataset, config: TrainConfig):
    """Inverse of checkpoint_to_dict: the trained head a checkpoint holds,
    with the class stats and groups of train_split, the split it trained on.
    config supplies tau, the group thresholds, and the encoder seed when the
    checkpoint records none."""
    if not isinstance(doc, dict):
        raise ConfigError("checkpoint must be a JSON object")
    stats = ClassStats.from_dataset(train_split, config.head_min, config.tail_max)
    shape = (train_split.num_classes, train_split.dim)
    kind = doc.get("kind", "prompts")
    if kind == "prompts":
        try:
            contexts = np.asarray(doc["contexts"], dtype=np.float64)
            class_tokens = np.asarray(doc["class_tokens"], dtype=np.float64)
            mode, encoder_seed = doc["mode"], doc["encoder_seed"]
        except KeyError as exc:
            raise ConfigError(f"prompt checkpoint missing field: {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"prompt checkpoint is malformed: {exc}") from exc
        if encoder_seed is not None and not (type(encoder_seed) is int and encoder_seed >= 0):
            raise ConfigError(f"prompt checkpoint encoder_seed {encoder_seed!r} is not a seed")
        # a PromptSet also takes a stack's contexts, which no checkpoint holds
        if contexts.ndim != 3:
            raise ConfigError("prompt checkpoint contexts must be (C or 1, M, d_token)")
        prompts = PromptSet(contexts, class_tokens, mode=mode, encoder_seed=encoder_seed)
        if prompts.num_context_tokens != doc.get("num_context_tokens"):
            raise ConfigError("prompt checkpoint header disagrees with its contexts")
        if prompts.token_dim != doc.get("token_dim"):
            raise ConfigError("prompt checkpoint header disagrees with its token_dim")
        if prompts.num_classes != shape[0]:
            raise ConfigError(
                f"prompt checkpoint holds {prompts.num_classes} classes; the dataset has {shape[0]}"
            )
        seed = prompts.encoder_seed if prompts.encoder_seed is not None else config.encoder_seed
        encoder = FrozenTextEncoder.create(seed, prompts.token_dim, shape[1])
        return _PromptHead(prompts, encoder, stats, config)
    if kind == "linear_probe":
        try:
            weights = np.asarray(doc["weights"], dtype=np.float64)
            bias = np.asarray(doc["bias"], dtype=np.float64)
        except KeyError as exc:
            raise ConfigError(f"linear_probe checkpoint missing field: {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"linear_probe checkpoint is malformed: {exc}") from exc
        if weights.shape != shape or bias.shape != shape[:1]:
            raise ConfigError(
                f"linear_probe checkpoint holds weights {weights.shape} and bias {bias.shape}; "
                f"the dataset needs {shape} and {shape[:1]}"
            )
        return _ProbeHead(weights, bias, stats, config)
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
    """Write json.dumps(doc) + "\n" of doc with its arrays as nested lists,
    holding neither that text nor a list copy of a whole array: each value is
    encoded alone, and an array one leading-axis row at a time, listed by
    .tolist() (a context block, a class-token row, a probe weight row or one
    bias entry). A row that holds a NaN or an infinity, which an aborted
    run's parameters may, lists each of them as None, so the file stays
    strict JSON (null); a finite row is written as it is."""
    with path.open("w") as fh:
        fh.write("{")
        for i, (key, value) in enumerate(doc.items()):
            fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
            if isinstance(value, np.ndarray):
                fh.write("[")
                for j, row in enumerate(value):
                    finite = np.isfinite(row)
                    if not finite.all():
                        row = np.where(finite, row, None)
                    fh.write(f"{', ' if j else ''}{json.dumps(row.tolist())}")
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
