"""Training objectives with analytic value-and-gradient evaluation.

Two parts are blended: a hinge-style class-specific embedding (CSE) loss that
pulls each class prompt toward the captions of samples containing the class
and pushes it beyond a margin from the rest, and a per-class sigmoid
classification loss (distribution-balanced, BCE, or focal). Gradients flow
only into prompt contexts; everything else is frozen.

All class statistics (weights, margins, rebalance factors, logit biases) are
computed from full-training-split counts, never from batch counts. One
Objective per ClassStats and LossConfig, or per ClassStats and a stack's
LossConfigs, resolves them, each part's on first use, and serves the whole
run (see loss_objective). Reductions sum over classes first, then average
over samples in index order, so values are bit-stable. A value-only pass
over a whole split does its elementwise work in row blocks and gives the
same bits as one whole-array pass (see _mean_of_terms).

Each part's value is also reachable from a score matrix the caller already
holds (Objective.classification on class_scores, Objective.embedding on
cosine_distances, combined by Objective.blend), so a training epoch's record
can share each (N, C) product with the ranking and the alignment diagnostic.

objective_core is the one evaluation of the blended objective and its
gradient w.r.t. the prompt embeddings. total_loss is its argument checks
around that core, and a training step calls the same core on the rows it
gathers. Runs that train as one stack (see train.stack_key) call it once
for all of them, with the Objective of their configs and a leading run axis
on the embeddings, the scores and the distances; the kernels and the core
read their last two axes, so each run's slice has the bits of its own 2-d
call.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .data_model import Batch, ClassStats, block_rows, positive_mask, row_blocks
from .encoders import MODE_SHARED, FrozenTextEncoder, PromptSet, encode_all, encode_backward
from .errors import ConfigError, NumericsError

CLS_LOSS_KINDS = ("db", "bce", "focal")

# distance from a hinge kink within which hinge_kink_mask flags a coordinate
KINK_GUARD = 1e-6


@dataclass(frozen=True)
class LossConfig:
    """Every scalar hyperparameter of the objective in one place.

    cls_loss_weight is the blend weight on the classification part; the
    embedding part gets (1 - cls_loss_weight). The three use_* toggles are the
    ablation switches: margins fall back to the flat mu_base, weights to 1.
    """

    eta: float = 1.0  # class-aware margin scale: margin_i = eta / n_i^(1/4)
    gamma_rw: float = 1.0  # re-weighting exponent on inverse frequencies
    mu_base: float = 0.2  # flat margin used when class-aware margin is off
    cls_loss_weight: float = 0.5
    db_alpha: float = 0.1
    db_beta: float = 10.0
    db_theta: float = 0.2
    db_kappa: float = 0.05
    db_zeta: float = 5.0
    gamma_focal: float = 2.0
    use_embedding_loss: bool = True
    use_class_aware_margin: bool = True
    use_reweighting: bool = True
    cls_loss_kind: str = "db"

    def __post_init__(self):
        if not 0.0 <= self.cls_loss_weight <= 1.0:
            raise ConfigError("cls_loss_weight must lie in [0, 1]")
        if self.eta < 0:
            raise ConfigError("eta must be >= 0")
        if self.gamma_rw < 0:
            raise ConfigError("gamma_rw must be >= 0")
        if self.gamma_focal < 0:
            raise ConfigError("gamma_focal must be >= 0")
        if self.mu_base < 0:
            raise ConfigError("mu_base must be >= 0")
        if self.db_zeta < 1:
            raise ConfigError("db_zeta must be >= 1")
        if self.cls_loss_kind not in CLS_LOSS_KINDS:
            raise ConfigError(f"cls_loss_kind must be one of {CLS_LOSS_KINDS}")
        # loss_objective's key, by value. A frozenset keeps its hash, where the
        # generated __hash__ builds and hashes a tuple of every field per call.
        key = frozenset((f.name, getattr(self, f.name)) for f in fields(self))
        object.__setattr__(self, "_key", key)


@dataclass(frozen=True)
class LossReport:
    """Value breakdown plus the gradient of the reported objective.

    total = cls_loss_weight * cls_part + (1 - cls_loss_weight) * cse_part for
    total_loss, whose gradient is the pooled one of encode_backward: one
    token row per context block, which broadcasts against PromptSet.contexts.
    cls_loss_on_logits reports the classification part's value as total and
    cls_part, with cse_part zero and the gradient shaped like the logits
    (for chaining). gradient is None when it was not requested.
    """

    total: float
    cls_part: float
    cse_part: float
    gradient: np.ndarray | None


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form is stable for large |x| and vectorizes without branching;
    # 0.5 * (1 + tanh(0.5 x)), each step in place in one new array
    s = np.multiply(x, 0.5)
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


def _checked_counts(counts) -> np.ndarray:
    arr = np.asarray(counts, dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigError("counts must be a nonempty 1-d integer vector")
    if (arr < 1).any():
        raise ConfigError("invalid count: every class needs n_i >= 1")
    return arr


def class_margins(counts, eta: float) -> np.ndarray:
    """Per-class soft margins eta / n_i^(1/4): rarer classes get a larger margin."""
    arr = _checked_counts(counts)
    if eta < 0:
        raise ConfigError("eta must be >= 0")
    return eta / np.power(arr.astype(np.float64), 0.25)


def class_weights(counts, gamma_rw: float) -> np.ndarray:
    """Normalized inverse-frequency weights (1/n_i)^gamma / sum_j (1/n_j)^gamma."""
    arr = _checked_counts(counts)
    if gamma_rw < 0:
        raise ConfigError("gamma_rw must be >= 0")
    raw = np.power(1.0 / arr.astype(np.float64), gamma_rw)
    return raw / raw.sum()


def class_scores(images: np.ndarray, embeddings: np.ndarray, tau: float) -> np.ndarray:
    """(B, C) scores image . embedding / tau: the classification part's
    logits, and what metrics.evaluate ranks. (S, B, C) for a stack's (S, C,
    d) embeddings."""
    return images @ embeddings.swapaxes(-1, -2) / tau


def cosine_distances(captions: np.ndarray, embeddings: np.ndarray) -> np.ndarray:
    """(B, C) cosine distances 1 - caption . embedding between unit rows: the
    embedding part's deltas, and what mean_positive_delta averages. (S, B,
    C) for a stack's (S, C, d) embeddings."""
    dl = captions @ embeddings.swapaxes(-1, -2)
    return np.subtract(1.0, dl, out=dl)


def _cse_parts(dl: np.ndarray, labels: np.ndarray, weights, margins, need_grad: bool):
    """Per-sample sums of the embedding loss's terms on the distances dl, and
    the terms' derivatives w.r.t. dl (not divided by B; see total_loss)."""
    positive = positive_mask(labels)
    hinge = weights * (margins - dl)
    terms = np.where(positive, weights * dl, np.maximum(0.0, hinge))
    if not need_grad:
        return terms.sum(axis=-1), None
    # d(term)/d(delta): +w for positives, -w on the active hinge side, 0 at
    # the kink (subgradient convention) and beyond it
    coef = np.where(positive, weights, np.where(hinge > 0, -weights, 0.0))
    return terms.sum(axis=-1), coef


def db_rebalance(counts, alpha: float, beta: float, theta: float) -> np.ndarray:
    """Per-class rebalance factor r = alpha + sigmoid(beta * (share - theta)),
    where share is the class's normalized inverse frequency (class_weights at
    exponent 1). r lies in
    (alpha, alpha+1) and never increases with n_i."""
    return alpha + _sigmoid(beta * (class_weights(counts, 1.0) - theta))


def db_bias(counts, num_samples: int, kappa: float) -> np.ndarray:
    """Class-prior logit bias v_i = kappa * log(N/n_i - 1); rarer classes get a
    larger v_i, shifting their logits down before the sigmoid."""
    arr = _checked_counts(counts)
    if num_samples < 1:
        raise ConfigError("num_samples must be >= 1")
    if (arr >= num_samples).any():
        raise NumericsError(
            "infinite bias: some class is positive in every sample (n_i = N)"
        )
    return kappa * np.log(num_samples / arr.astype(np.float64) - 1.0)


def _focal_form_parts(
    z: np.ndarray,
    labels: np.ndarray,
    rebal: np.ndarray,
    bias: np.ndarray,
    zeta: float,
    gamma: float,
    need_grad: bool,
):
    """(B, C) terms of the distribution-balanced loss on logits z and their
    derivatives w.r.t. z, neither averaged (see _cls_parts). Focal is the
    same loss at r = 1, v = 0, zeta = 1: each of those enters by an exact
    operation, so it gives focal's own bits.

    Positives: -r (1-q)^g log q with q = sigmoid(x), x = z - v; negatives:
    -(r/zeta) q^g log(1-q) with q = sigmoid(zeta x). Both are one formula in
    y = x * (1 or zeta), with base = 1-q or q and mod = base^g: the term is
    (r or r/zeta) * mod * softplus(-y or y), and the derivative is
    push - pull or pull - push, where pull = r base^(g+1) and push =
    r g (q or mod) (mod or 1-q) (log q or log(1-q)). Each entry is computed
    once, np.where picking its label's operand, so it goes through its own
    branch's scalar operations in the same order and keeps their bits. The
    mask is made C-contiguous, so the results are C-ordered whatever the
    labels' layout."""
    g = gamma
    positive = np.ascontiguousarray(positive_mask(labels))
    y = z - bias
    y *= np.where(positive, 1.0, zeta)
    sp = _softplus(np.where(positive, -y, y))  # -log q or -log(1-q)
    q = _sigmoid(y)
    del y  # one (B, C) array fewer at the kernel's peak
    one_minus_q = 1.0 - q
    base = np.where(positive, one_minus_q, q)
    mod = np.power(base, g)
    # in place from here on; each product groups its factors as above
    terms = np.where(positive, rebal, rebal / zeta) * mod
    terms *= sp
    if not need_grad:
        return terms, None
    pull = np.power(base, g + 1.0, out=base)
    pull *= rebal
    np.negative(sp, out=sp)  # log q or log(1-q)
    push = rebal * g * np.where(positive, q, mod)
    push *= np.where(positive, mod, one_minus_q)
    push *= sp
    # pull - push, not -(push - pull): the two differ in the sign of a zero
    return terms, np.where(positive, push - pull, pull - push)


def _bce_parts(z: np.ndarray, labels: np.ndarray, need_grad: bool):
    """(B, C) binary cross-entropy terms on logits z and their derivatives
    w.r.t. z, neither averaged, C-ordered as _focal_form_parts's are. Not
    the focal form at gamma = 0: at +-inf logits that form's gradient is
    NaN, where this one is -1 or +1."""
    positive = np.ascontiguousarray(positive_mask(labels))
    terms = _softplus(np.where(positive, -z, z))
    if not need_grad:
        return terms, None
    q = _sigmoid(z)
    return terms, np.where(positive, q - 1.0, q)


def _cls_parts(
    z: np.ndarray, labels: np.ndarray, kind: str, focal_form, gamma: float, need_grad: bool
):
    """The classification part of the given kind: the terms it averages and
    the gradient w.r.t. z. db averages per-sample sums over the samples; bce
    and focal average their (B, C) terms over every entry. The kernels
    return both unaveraged, and this is the one place that divides, by one
    run's count of terms when z is a stack's (S, B, C) scores. focal_form is
    the (rebalance, bias, zeta) of Objective.cls_constants, None for bce."""
    if kind == "bce":
        terms, grad_z = _bce_parts(z, labels, need_grad)
    else:
        terms, grad_z = _focal_form_parts(z, labels, *focal_form, gamma, need_grad)
    if kind == "db":
        terms = terms.sum(axis=-1)
    if need_grad:
        grad_z /= terms[0].size if z.ndim == 3 else terms.size  # in place: the same bits
    return terms, grad_z


def _mean_of_terms(
    part, scores: np.ndarray, labels: np.ndarray, constants: tuple, need_grad: bool
):
    """([value], gradient) of one part of the objective on (B, C) scores,
    or (each run's value, gradient) on a stack's (S, B, C) scores.

    part(scores, labels, *constants, need_grad) returns the terms its value
    averages, (B,) per-sample sums or (B, C) entries, and its gradient. A
    run's value is one sum over its contiguous terms, so a run in a stack
    gets the bits of its own call. A value-only call on more rows than fit
    in one block runs part on each row block of the scores
    (data_model.row_blocks) and keeps only those terms, in one row-major
    buffer. The one sum then adds the same numbers in the same order as on
    the whole array, so the value is bit-identical, while every other (B, C)
    temporary lives for one block.

    The scores themselves come in whole: with some BLAS kernels, a row block
    of a matrix product computed alone has other bits than the same rows of
    the whole product.
    """
    if need_grad or scores.shape[0] <= block_rows(scores.shape[1]):
        terms, gradient = part(scores, labels, *constants, need_grad)
        if scores.ndim == 2:
            return [float(terms.sum() / terms.size)], gradient
        return [float(run.sum() / run.size) for run in terms], gradient
    terms = None
    for rows in row_blocks(*scores.shape):
        block, _ = part(scores[rows], labels[rows], *constants, False)
        if terms is None:
            terms = np.empty((scores.shape[0], *block.shape[1:]))
        terms[rows] = block
    return [float(terms.sum() / terms.size)], None


def cls_loss_on_logits(
    z: np.ndarray,
    labels: np.ndarray,
    stats: ClassStats,
    config: LossConfig,
    need_grad: bool = True,
) -> LossReport:
    """The configured classification loss applied to raw (B, C) logits: the
    checked logits-level entry point of the classification part, which
    tests/test_acceptance.py and the test oracles call. It checks the
    logits, the labels and the stats against each other, reads the logits
    in C order and evaluates Objective.classification, which the linear
    probe's step and epoch record call directly."""
    z = np.asarray(z, dtype=np.float64, order="C")
    if z.ndim != 2 or np.shape(labels) != z.shape or z.shape[1] != stats.num_classes:
        raise ConfigError(
            f"logits {z.shape}, labels {np.shape(labels)} and stats of "
            f"{stats.num_classes} classes disagree"
        )
    (value,), grad_z = loss_objective(stats, config).classification(z, labels, need_grad)
    return LossReport(total=value, cls_part=value, cse_part=0.0, gradient=grad_z)


def check_classes(batch: Batch, prompts: PromptSet, stats: ClassStats) -> None:
    """Raise ConfigError unless batch, prompts and stats count the same classes."""
    if not batch.num_classes == prompts.num_classes == stats.num_classes:
        sizes = dict(batch=batch.num_classes, prompts=prompts.num_classes, stats=stats.num_classes)
        raise ConfigError(f"class counts disagree: {sizes}")


class Objective:
    """The blended objective of one run's (ClassStats, LossConfig), or of
    the S runs of a stack, whose LossConfigs differ at most in
    use_class_aware_margin and use_reweighting (see train.stack_key). It
    holds the blend weight lam, whether the blend computes its
    classification part (compute_cls) and its embedding part (compute_cse),
    and each part's per-class constants as the kernels take them. At the
    endpoints of lam the disabled part is skipped entirely, so the total
    reproduces the pure loss bit-exactly.

    The runs share lam and the classification constants. Only the embedding
    constants differ by run: with S > 1 they are each run's (S, 1, C) rows,
    for arrays with a leading run axis, (S, C, d) embeddings and (S, B, C)
    scores and distances. Each of them multiplies or adds entry by entry, so
    each run's slice keeps the bits of its own Objective. Part values and
    the blend are lists of each run's float.

    The constants depend only on the full-split counts and the configs, all
    frozen. A part's are built, and the counts validated, at its first
    evaluation and reused after it: a part that is never evaluated reads no
    counts, and a build that raises keeps nothing and raises again at the
    next evaluation. See loss_objective.
    """

    def __init__(self, counts: np.ndarray, num_samples: int, configs: tuple):
        self._counts = counts
        self._num_samples = num_samples
        self._configs = configs
        config = configs[0]
        self.lam = config.cls_loss_weight
        self.compute_cls = self.lam > 0.0
        self.compute_cse = config.use_embedding_loss and self.lam < 1.0
        self.skipped = (0.0,) * len(configs)  # the values of a part the blend skips

    @cached_property
    def cls_constants(self) -> tuple:
        """_cls_parts's (kind, focal_form, gamma). focal_form is the
        focal-form loss's (rebalance r, logit bias v, negative tolerance
        zeta): db's, from the counts, or focal's r = 1, v = 0 and zeta = 1;
        bce has none. Only db's reads the counts."""
        cfg, counts = self._configs[0], self._counts
        kind = cfg.cls_loss_kind
        focal_form = None
        if kind == "focal":
            focal_form = np.ones(len(counts)), np.zeros(len(counts)), 1.0
        elif kind == "db":
            rebal = db_rebalance(counts, cfg.db_alpha, cfg.db_beta, cfg.db_theta)
            focal_form = rebal, db_bias(counts, self._num_samples, cfg.db_kappa), cfg.db_zeta
        return kind, focal_form, cfg.gamma_focal

    @cached_property
    def cse_constants(self) -> tuple:
        """(weights, margins) of the embedding loss. When re-weighting or the
        class-aware margin is off, a float stands for the same value in every
        class; it broadcasts to the same numbers a full vector would. With
        S > 1 each is the runs' (S, 1, C) rows of a contiguous array."""
        counts = self._counts
        runs = [
            (
                class_weights(counts, cfg.gamma_rw) if cfg.use_reweighting else 1.0,
                class_margins(counts, cfg.eta) if cfg.use_class_aware_margin else cfg.mu_base,
            )
            for cfg in self._configs
        ]
        if len(runs) == 1:
            return runs[0]
        weights, margins = (np.empty((len(runs), 1, len(counts))) for _ in range(2))
        for run, (run_weights, run_margins) in enumerate(runs):
            weights[run], margins[run] = run_weights, run_margins
        return weights, margins

    def classification(self, scores: np.ndarray, labels: np.ndarray, need_grad: bool):
        """(each run's value, gradient w.r.t. scores) of the configured
        classification part on (B, C) scores or logits, or a stack's (S, B,
        C) scores, whose runs may share (B, C) labels: the kernels' label
        mask broadcasts against the scores. A value-only call on a whole
        split runs in row blocks."""
        return _mean_of_terms(_cls_parts, scores, labels, self.cls_constants, need_grad)

    def embedding(self, distances: np.ndarray, labels: np.ndarray, need_grad: bool):
        """(each run's value, d terms / d distances) of the embedding part on
        (B, C) or a stack's (S, B, C) cosine distances; the derivatives are
        not divided by B (see objective_core)."""
        return _mean_of_terms(_cse_parts, distances, labels, self.cse_constants, need_grad)

    def blend(self, cls_values: list, cse_values: list) -> list:
        """Each run's lam * cls_value + (1 - lam) * cse_value; a part the
        blend skips enters as 0.0 (skipped)."""
        lam = self.lam
        return [lam * c + (1.0 - lam) * e for c, e in zip(cls_values, cse_values)]


def loss_objective(stats: ClassStats, *configs: LossConfig) -> Objective:
    """The Objective of one run's or one stack's LossConfigs on stats, kept
    on stats and keyed by the configs' field values, so equal configs (one
    unpickled in a sweep worker, say) share it."""
    key = configs[0]._key if len(configs) == 1 else tuple(config._key for config in configs)
    return stats.derived(key, lambda: Objective(stats.counts, stats.num_samples, configs))


def objective_core(
    objective: Objective,
    images: np.ndarray,
    labels: np.ndarray,
    captions: np.ndarray,
    embeddings: np.ndarray,
    tau: float,
    need_grad: bool,
):
    """(total, cls value, cse value, gradient w.r.t. embeddings or None) of
    the blended objective on the rows (images, labels, captions), scored
    against the unit prompt embeddings at temperature tau; each value holds
    one float per run. For a stack's Objective the embeddings are (S, C, d)
    and the rows shared (B, .) or per-run (S, B, .).

    The parts the objective skips are not computed; with neither active the
    gradient is zero. A zero-filled array accumulating the parts' gradients
    a and b would hold (0.0 + a) + b. This returns (a + b) + 0.0 instead,
    the same in every bit: adding +0.0 changes only a -0.0 into +0.0, and
    neither form can end at -0.0.
    """
    cls_value = cse_value = objective.skipped
    # each (B, C) matrix is passed on unnamed, so it is freed before the next is built
    if objective.compute_cls:
        cls_value, grad_z = objective.classification(
            class_scores(images, embeddings, tau), labels, need_grad
        )
    if objective.compute_cse:
        cse_value, coef = objective.embedding(
            cosine_distances(captions, embeddings), labels, need_grad
        )
    total = objective.blend(cls_value, cse_value)
    if not need_grad:
        return total, cls_value, cse_value, None

    gradient = None
    lam = objective.lam
    if objective.compute_cls:
        gradient = lam * (grad_z.swapaxes(-1, -2) @ images) / tau
    if objective.compute_cse:
        cse_gradient = (1.0 - lam) * (-(coef.swapaxes(-1, -2) @ captions) / images.shape[-2])
        if gradient is None:
            gradient = cse_gradient
        else:
            gradient += cse_gradient
    if gradient is None:
        return total, cls_value, cse_value, np.zeros_like(embeddings)
    gradient += 0.0
    return total, cls_value, cse_value, gradient


def total_loss(
    batch: Batch,
    prompts: PromptSet,
    encoder: FrozenTextEncoder,
    stats: ClassStats,
    config: LossConfig,
    tau: float = 1.0,
    need_grad: bool = True,
) -> LossReport:
    """Blended objective: cls_loss_weight * L_cls + (1 - cls_loss_weight) * L_cse.

    The argument checks, then objective_core between the encoder's forward
    and backward pass. The gradient is encode_backward's, shaped (C or 1,
    1, d_token).
    """
    if tau <= 0:
        raise ConfigError("temperature must be > 0")
    check_classes(batch, prompts, stats)
    encoding = encode_all(encoder, prompts)
    (total,), (cls_value,), (cse_value,), gradient = objective_core(
        loss_objective(stats, config),
        batch.images,
        batch.labels,
        batch.captions,
        encoding.embeddings,
        tau,
        need_grad,
    )
    if need_grad:
        gradient = encode_backward(encoder, prompts, encoding, gradient)
    return LossReport(total, cls_value, cse_value, gradient)


def hinge_kink_mask(
    batch: Batch,
    prompts: PromptSet,
    encoder: FrozenTextEncoder,
    stats: ClassStats,
    config: LossConfig,
) -> np.ndarray:
    """Boolean mask (contexts layout) of coordinates whose loss sits within
    KINK_GUARD of a hinge kink, where finite differences are meaningless.

    A context coordinate of class i is near a kink when any negative-label
    hinge argument w_i*(margin_i - delta) of that class lies within KINK_GUARD of
    zero; in shared mode every coordinate feeds every class.
    """
    check_classes(batch, prompts, stats)
    mask = np.zeros(prompts.contexts.shape, dtype=bool)
    objective = loss_objective(stats, config)
    if not objective.compute_cse:
        return mask
    encoding = encode_all(encoder, prompts)
    weights, margins = objective.cse_constants
    dl = cosine_distances(batch.captions, encoding.embeddings)
    hinge = weights * (margins - dl)
    near = (np.abs(hinge) < KINK_GUARD) & ~positive_mask(batch.labels)
    per_class = near.any(axis=0)  # (C,)
    if prompts.mode == MODE_SHARED:
        mask[:] = per_class.any()
        return mask
    mask[per_class, :, :] = True
    return mask


def mean_positive_delta(distances: np.ndarray, labels: np.ndarray) -> float:
    """Mean cosine distance between captions and the prompt embeddings of
    their positive classes, read off a (B, C) cosine_distances matrix; the
    caption-alignment diagnostic."""
    if distances.shape != np.shape(labels):
        raise ConfigError(
            f"class counts disagree: distances {distances.shape}, labels {np.shape(labels)}"
        )
    deltas = distances[positive_mask(labels)]
    if deltas.size == 0:
        raise ConfigError("batch has no positive labels")
    return float(deltas.mean())
