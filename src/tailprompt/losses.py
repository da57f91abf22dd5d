"""Training objectives with analytic value-and-gradient evaluation.

Two parts are blended: a hinge-style class-specific embedding (CSE) loss that
pulls each class prompt toward the captions of samples containing the class
and pushes it beyond a margin from the rest, and a per-class sigmoid
classification loss (distribution-balanced, BCE, or focal). Gradients flow
only into prompt contexts; everything else is frozen.

All class statistics (weights, margins, rebalance factors, logit biases) are
computed from full-training-split counts, never from batch counts, once per
(ClassStats, LossConfig) pair (see LossConstants). Reductions sum over classes
first, then average over samples in index order, so values are bit-stable.
A value-only pass over a whole split does its elementwise work in row blocks
and gives the same bits as one whole-array pass (see _mean_of_terms).

Each part's value is also reachable from a score matrix the caller already
holds (classification_part on class_scores, embedding_part on
cosine_distances, combined by blend), so a training epoch's record can share
each (N, C) product with the ranking and the alignment diagnostic.

objective_core is the one evaluation of the blended objective and its
gradient w.r.t. the prompt embeddings, given an Objective: everything a
call would re-derive from (ClassStats, LossConfig, tau), resolved once.
total_loss is its argument checks around that core, and a training step
calls the same core on the rows it gathers.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class LossReport:
    """Value breakdown plus the gradient of the reported objective.

    total = cls_loss_weight * cls_part + (1 - cls_loss_weight) * cse_part for
    total_loss, whose gradient is the pooled one of encode_backward: one
    token row per context block, which broadcasts against PromptSet.contexts.
    cls_loss_on_logits reports its value as total and cls_part, with cse_part
    zero and the gradient shaped like the logits (for chaining). gradient is
    None when it was not requested.
    """

    total: float
    cls_part: float
    cse_part: float
    gradient: np.ndarray | None


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form is stable for large |x| and vectorizes without branching
    return 0.5 * (1.0 + np.tanh(0.5 * x))


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
    logits, and what metrics.evaluate ranks."""
    return images @ embeddings.T / tau


def cosine_distances(captions: np.ndarray, embeddings: np.ndarray) -> np.ndarray:
    """(B, C) cosine distances 1 - caption . embedding between unit rows: the
    embedding part's deltas, and what mean_positive_delta averages."""
    dl = captions @ embeddings.T
    return np.subtract(1.0, dl, out=dl)


def _cse_parts(dl: np.ndarray, labels: np.ndarray, weights, margins, need_grad: bool):
    """Per-sample sums of the embedding loss's terms on the distances dl, and
    the terms' derivatives w.r.t. dl (not divided by B; see total_loss)."""
    positive = positive_mask(labels)
    hinge = weights * (margins - dl)
    terms = np.where(positive, weights * dl, np.maximum(0.0, hinge))
    if not need_grad:
        return terms.sum(axis=1), None
    # d(term)/d(delta): +w for positives, -w on the active hinge side, 0 at
    # the kink (subgradient convention) and beyond it
    coef = np.where(positive, weights, np.where(hinge > 0, -weights, 0.0))
    return terms.sum(axis=1), coef


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


def _column_major(a: np.ndarray) -> bool:
    """Whether a ufunc result over the 2-d array a (order K) is column-major."""
    rows, cols = a.strides
    return 0 < abs(rows) < abs(cols)


def _per_entry(row: np.ndarray, shape: tuple) -> np.ndarray:
    """row[c] at every (b, c) of shape, as a zero-copy view of the contiguous
    row (LossConstants.focal_form's is). It is what np.broadcast_to(row,
    shape) returns, without that call's iterator set-up, which costs more
    than the gathers from it at small batch sizes."""
    return np.ndarray(shape, row.dtype, row, 0, (0, row.itemsize))


def _by_label(positive: np.ndarray, negative: np.ndarray, z: np.ndarray, pos_values, neg_values):
    """np.where(positive, ., .) over z-shaped arrays, assembled from values
    computed on the positive and the negative entries only (row-major mask
    order, as z[positive] gathers them).

    The result is laid out as np.where lays out its own: column-major only
    when both the label mask and z's ufunc results are. Row and whole-array
    sums add in memory order, so the layout fixes the bits of every value
    reduced from it.
    """
    fortran = _column_major(positive) and _column_major(z)
    out = np.empty(z.shape, order="F" if fortran else "C")
    out[positive] = pos_values
    out[negative] = neg_values
    return out


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
    operation, so it gives focal's own bits."""
    g = gamma
    positive = positive_mask(labels)
    negative = ~positive
    r = _per_entry(rebal, z.shape)
    r_pos, r_neg = r[positive], r[negative]
    x = z - bias
    x_pos, zx = x[positive], x[negative]
    del x  # the (B, C) x is not kept

    # positives: -r (1-q)^g log q, q = sigmoid(x); log q = -softplus(-x)
    sp_neg_x = _softplus(-x_pos)
    q_pos = _sigmoid(x_pos)
    one_minus_q = 1.0 - q_pos
    mod_pos = np.power(one_minus_q, g)
    # negatives: -(r/zeta) q^g log(1-q), q = sigmoid(zeta x); log(1-q) = -softplus(zeta x)
    zx *= zeta
    sp_zx = _softplus(zx)
    q_neg = _sigmoid(zx)
    mod_neg = np.power(q_neg, g)

    terms = _by_label(
        positive, negative, z, r_pos * mod_pos * sp_neg_x, (r_neg / zeta) * mod_neg * sp_zx
    )
    if not need_grad:
        return terms, None
    log_q = -sp_neg_x
    log_1mq = -sp_zx
    grad_pos = r_pos * g * q_pos * mod_pos * log_q - r_pos * np.power(one_minus_q, g + 1.0)
    grad_neg = r_neg * np.power(q_neg, g + 1.0) - r_neg * g * mod_neg * (1.0 - q_neg) * log_1mq
    return terms, _by_label(positive, negative, z, grad_pos, grad_neg)


def _bce_parts(z: np.ndarray, labels: np.ndarray, need_grad: bool):
    """(B, C) binary cross-entropy terms on logits z and their derivatives
    w.r.t. z, neither averaged. Not the focal form at gamma = 0: at +-inf
    logits that form's gradient is NaN, where this one is -1 or +1."""
    positive = positive_mask(labels)
    negative = ~positive
    z_pos, z_neg = z[positive], z[negative]
    terms = _by_label(positive, negative, z, _softplus(-z_pos), _softplus(z_neg))
    if not need_grad:
        return terms, None
    return terms, _by_label(positive, negative, z, _sigmoid(z_pos) - 1.0, _sigmoid(z_neg))


class LossConstants:
    """The per-class terms of the objective for one (ClassStats, LossConfig)
    pair. They depend only on the full-split counts and the config, both
    frozen, so each part is computed (and the counts validated) on first use
    and then reused for the whole run; see loss_constants.
    """

    def __init__(self, counts: np.ndarray, num_samples: int, config: LossConfig):
        self._counts = counts
        self._num_samples = num_samples
        self._config = config

    @cached_property
    def cse(self):
        """(weights, margins) of the embedding loss. When re-weighting or the
        class-aware margin is off, a float stands for the same value in every
        class; it broadcasts to the same numbers a full vector would."""
        cfg, counts = self._config, self._counts
        weights = class_weights(counts, cfg.gamma_rw) if cfg.use_reweighting else 1.0
        margins = class_margins(counts, cfg.eta) if cfg.use_class_aware_margin else cfg.mu_base
        return weights, margins

    @cached_property
    def focal_form(self):
        """(rebalance r, logit bias v, negative tolerance zeta) of the
        focal-form classification loss: db's, from the counts, or focal's
        r = 1, v = 0 and zeta = 1, which read no counts. r is a contiguous
        row, as _per_entry needs."""
        cfg, counts = self._config, self._counts
        if cfg.cls_loss_kind == "focal":
            return np.ones(len(counts)), np.zeros(len(counts)), 1.0
        rebal = db_rebalance(counts, cfg.db_alpha, cfg.db_beta, cfg.db_theta)
        return rebal, db_bias(counts, self._num_samples, cfg.db_kappa), cfg.db_zeta


def loss_constants(stats: ClassStats, config: LossConfig) -> LossConstants:
    """The LossConstants of (stats, config), kept on stats and keyed by config."""
    return stats.derived(config, lambda: LossConstants(stats.counts, stats.num_samples, config))


def _cls_parts(
    z: np.ndarray, labels: np.ndarray, kind: str, focal_form, gamma: float, need_grad: bool
):
    """The classification part of the given kind: the terms it averages and
    the gradient w.r.t. z. db averages per-sample sums over the samples; bce
    and focal average their (B, C) terms over every entry. The kernels
    return both unaveraged, and this is the one place that divides.
    focal_form is LossConstants.focal_form, None for bce."""
    if kind == "bce":
        terms, grad_z = _bce_parts(z, labels, need_grad)
    else:
        terms, grad_z = _focal_form_parts(z, labels, *focal_form, gamma, need_grad)
    if kind == "db":
        terms = terms.sum(axis=1)
    if need_grad:
        grad_z /= terms.size  # in place: the same bits per entry, and the same layout
    return terms, grad_z


def _cls_constants(constants: LossConstants, config: LossConfig) -> tuple:
    """_cls_parts's (kind, focal_form, gamma) for config; bce reads no counts."""
    kind = config.cls_loss_kind
    return kind, None if kind == "bce" else constants.focal_form, config.gamma_focal


def _mean_of_terms(
    part, scores: np.ndarray, labels: np.ndarray, constants: tuple, need_grad: bool
):
    """(value, gradient) of one part of the objective on (B, C) scores.

    part(scores, labels, *constants, need_grad) returns the terms its value
    averages, (B,) per-sample sums or (B, C) entries, and its gradient. A
    value-only call on more rows than fit in one block runs part on each row
    block of the scores (data_model.row_blocks) and keeps only those terms,
    in a buffer laid out as a block lays out its own; a block of two or more
    rows has the whole array's layout. The one sum then adds the same
    numbers in the same order as on the whole array, so the value is
    bit-identical, while every other (B, C) temporary lives for one block.

    The scores themselves come in whole: with some BLAS kernels, a row block
    of a matrix product computed alone has other bits than the same rows of
    the whole product.
    """
    if need_grad or scores.shape[0] <= block_rows(scores.shape[1]):
        terms, gradient = part(scores, labels, *constants, need_grad)
        return float(terms.sum() / terms.size), gradient
    terms = None
    for rows in row_blocks(*scores.shape):
        block, _ = part(scores[rows], labels[rows], *constants, False)
        if terms is None:
            terms = np.empty_like(block, shape=(scores.shape[0], *block.shape[1:]))
        terms[rows] = block
    return float(terms.sum() / terms.size), None


def classification_part(
    scores: np.ndarray,
    labels: np.ndarray,
    constants: LossConstants,
    config: LossConfig,
    need_grad: bool,
):
    """(value, gradient w.r.t. scores) of the configured classification part
    on (B, C) scores; a value-only call on a whole split runs in row blocks.
    constants is loss_constants(stats, config)."""
    return _mean_of_terms(_cls_parts, scores, labels, _cls_constants(constants, config), need_grad)


def embedding_part(
    distances: np.ndarray, labels: np.ndarray, constants: LossConstants, need_grad: bool
):
    """(value, d terms / d distances) of the embedding part on (B, C) cosine
    distances; the derivatives are not divided by B (see total_loss)."""
    return _mean_of_terms(_cse_parts, distances, labels, constants.cse, need_grad)


def active_parts(config: LossConfig) -> tuple[bool, bool]:
    """Whether the blend computes its classification and its embedding part.
    At the endpoints of cls_loss_weight the disabled part is skipped
    entirely, so the total reproduces the pure loss bit-exactly."""
    lam = config.cls_loss_weight
    return lam > 0.0, config.use_embedding_loss and lam < 1.0


def blend(lam: float, cls_value: float, cse_value: float) -> float:
    """lam * cls_value + (1 - lam) * cse_value, lam being cls_loss_weight; a
    part active_parts skips enters as 0.0."""
    return lam * cls_value + (1.0 - lam) * cse_value


def cls_loss_on_logits(
    z: np.ndarray,
    labels: np.ndarray,
    stats: ClassStats,
    config: LossConfig,
    need_grad: bool = True,
) -> LossReport:
    """The configured classification loss applied to raw logits; used by
    heads that are not prompts (e.g. the linear probe)."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or np.shape(labels) != z.shape or z.shape[1] != stats.num_classes:
        raise ConfigError(
            f"logits {z.shape}, labels {np.shape(labels)} and stats of "
            f"{stats.num_classes} classes disagree"
        )
    value, grad_z = classification_part(z, labels, loss_constants(stats, config), config, need_grad)
    return LossReport(total=value, cls_part=value, cse_part=0.0, gradient=grad_z)


def check_classes(batch: Batch, prompts: PromptSet, stats: ClassStats) -> None:
    """Raise ConfigError unless batch, prompts and stats count the same classes."""
    sizes = {"batch": batch.num_classes, "prompts": prompts.num_classes, "stats": stats.num_classes}
    if len(set(sizes.values())) > 1:
        raise ConfigError(f"class counts disagree: {sizes}")


class Objective:
    """The blended objective of one (ClassStats, LossConfig, tau), with what
    every evaluation would re-derive resolved once: the blend weight lam,
    which parts active_parts computes, and each active part's constants as
    the kernels take them. Building it raises what the first evaluation of
    an active part would (an invalid count, an infinite bias), classification
    part first; see loss_objective."""

    def __init__(self, stats: ClassStats, config: LossConfig, tau: float):
        constants = loss_constants(stats, config)
        self.lam = config.cls_loss_weight
        self.tau = tau
        self.compute_cls, self.compute_cse = active_parts(config)
        self.cls_constants = _cls_constants(constants, config) if self.compute_cls else None
        self.cse_constants = constants.cse if self.compute_cse else None


def loss_objective(stats: ClassStats, config: LossConfig, tau: float) -> Objective:
    """The Objective of (stats, config, tau), kept on stats and keyed by (config, tau)."""
    return stats.derived((config, tau), lambda: Objective(stats, config, tau))


def objective_core(
    objective: Objective,
    images: np.ndarray,
    labels: np.ndarray,
    captions: np.ndarray,
    embeddings: np.ndarray,
    need_grad: bool,
):
    """(total, cls value, cse value, gradient w.r.t. embeddings or None) of
    the blended objective on the rows (images, labels, captions), scored
    against the unit prompt embeddings.

    The parts the objective skips are not computed; with neither active the
    gradient is zero. A zero-filled array accumulating the parts' gradients
    a and b would hold (0.0 + a) + b. This returns (a + b) + 0.0 instead,
    the same in every bit: adding +0.0 changes only a -0.0 into +0.0, and
    neither form can end at -0.0.
    """
    cls_value = cse_value = 0.0
    # each (B, C) matrix is passed on unnamed, so it is freed before the next is built
    if objective.compute_cls:
        cls_value, grad_z = _mean_of_terms(
            _cls_parts,
            class_scores(images, embeddings, objective.tau),
            labels,
            objective.cls_constants,
            need_grad,
        )
    if objective.compute_cse:
        cse_value, coef = _mean_of_terms(
            _cse_parts,
            cosine_distances(captions, embeddings),
            labels,
            objective.cse_constants,
            need_grad,
        )
    lam = objective.lam
    total = blend(lam, cls_value, cse_value)
    if not need_grad:
        return total, cls_value, cse_value, None

    gradient = None
    if objective.compute_cls:
        gradient = lam * (grad_z.T @ images) / objective.tau
    if objective.compute_cse:
        cse_gradient = (1.0 - lam) * (-(coef.T @ captions) / images.shape[0])
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
    total, cls_value, cse_value, gradient = objective_core(
        loss_objective(stats, config, tau),
        batch.images,
        batch.labels,
        batch.captions,
        encoding.embeddings,
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
    if not active_parts(config)[1]:
        return mask
    encoding = encode_all(encoder, prompts)
    weights, margins = loss_constants(stats, config).cse
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
