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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data_model import Batch, ClassStats
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
    total_loss, whose gradient is shaped like PromptSet.contexts.
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


def _cse_parts(
    captions: np.ndarray,
    labels: np.ndarray,
    embeddings: np.ndarray,
    weights,
    margins,
    need_grad: bool,
):
    """Value and gradient w.r.t. the unit prompt embeddings."""
    dl = 1.0 - captions @ embeddings.T  # (B, C)
    positive = labels == 1
    hinge = weights * (margins - dl)
    terms = np.where(positive, weights * dl, np.maximum(0.0, hinge))
    value = float(terms.sum(axis=1).sum() / dl.shape[0])
    if not need_grad:
        return value, None
    # d(term)/d(delta): +w for positives, -w on the active hinge side, 0 at
    # the kink (subgradient convention) and beyond it
    coef = np.where(positive, weights, np.where(hinge > 0, -weights, 0.0))
    grad_embeddings = -(coef.T @ captions) / captions.shape[0]
    return value, grad_embeddings


def db_rebalance(counts, alpha: float, beta: float, theta: float) -> np.ndarray:
    """Per-class rebalance factor r = alpha + sigmoid(beta * (share - theta)),
    where share is the class's normalized inverse frequency. r lies in
    (alpha, alpha+1) and never increases with n_i."""
    arr = _checked_counts(counts)
    inv = 1.0 / arr.astype(np.float64)
    share = inv / inv.sum()
    return alpha + _sigmoid(beta * (share - theta))


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
    """row[c] at every (b, c) of shape, as a zero-copy view. It is what
    np.broadcast_to(row, shape) returns, without that call's iterator set-up,
    which costs more than the gathers from it at small batch sizes."""
    row = np.ascontiguousarray(row)
    return np.ndarray(shape, row.dtype, row, 0, (0, row.itemsize))


def _split(a: np.ndarray, positive: np.ndarray, negative: np.ndarray):
    """a's entries at the positive and at the negative labels, row-major."""
    return a[positive], a[negative]


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


def _db_parts(
    z: np.ndarray,
    labels: np.ndarray,
    rebal: np.ndarray,
    bias: np.ndarray,
    config: LossConfig,
    need_grad: bool,
):
    g = config.gamma_focal
    zeta = config.db_zeta
    positive = labels == 1
    negative = ~positive
    r_pos, r_neg = _split(_per_entry(rebal, z.shape), positive, negative)
    # x = z - bias; the (B, C) x itself is not kept
    x_pos, zx = _split(z - bias, positive, negative)

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
    value = float(terms.sum(axis=1).sum() / z.shape[0])
    if not need_grad:
        return value, None
    log_q = -sp_neg_x
    log_1mq = -sp_zx
    grad_pos = r_pos * g * q_pos * mod_pos * log_q - r_pos * np.power(one_minus_q, g + 1.0)
    grad_neg = r_neg * np.power(q_neg, g + 1.0) - r_neg * g * mod_neg * (1.0 - q_neg) * log_1mq
    grad_z = _by_label(positive, negative, z, grad_pos / z.shape[0], grad_neg / z.shape[0])
    return value, grad_z


def _bce_parts(z: np.ndarray, labels: np.ndarray, need_grad: bool):
    positive = labels == 1
    negative = ~positive
    z_pos, z_neg = _split(z, positive, negative)
    terms = _by_label(positive, negative, z, _softplus(-z_pos), _softplus(z_neg))
    value = float(terms.sum() / terms.size)
    if not need_grad:
        return value, None
    grad_z = _by_label(
        positive,
        negative,
        z,
        (_sigmoid(z_pos) - 1.0) / terms.size,
        _sigmoid(z_neg) / terms.size,
    )
    return value, grad_z


def _focal_parts(z: np.ndarray, labels: np.ndarray, gamma_focal: float, need_grad: bool):
    positive = labels == 1
    negative = ~positive
    g = gamma_focal
    z_pos, z_neg = _split(z, positive, negative)
    sp_neg = _softplus(-z_pos)
    q_pos = _sigmoid(z_pos)
    one_minus_q = 1.0 - q_pos
    mod_pos = np.power(one_minus_q, g)
    sp_pos = _softplus(z_neg)
    q_neg = _sigmoid(z_neg)
    mod_neg = np.power(q_neg, g)
    terms = _by_label(positive, negative, z, mod_pos * sp_neg, mod_neg * sp_pos)
    value = float(terms.sum() / terms.size)
    if not need_grad:
        return value, None
    log_q = -sp_neg
    log_1mq = -sp_pos
    grad_pos = g * q_pos * mod_pos * log_q - np.power(one_minus_q, g + 1.0)
    grad_neg = np.power(q_neg, g + 1.0) - g * mod_neg * (1.0 - q_neg) * log_1mq
    grad_z = _by_label(positive, negative, z, grad_pos / terms.size, grad_neg / terms.size)
    return value, grad_z


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
    def db(self):
        """(rebalance, bias) of the distribution-balanced loss."""
        cfg, counts = self._config, self._counts
        rebal = db_rebalance(counts, cfg.db_alpha, cfg.db_beta, cfg.db_theta)
        return rebal, db_bias(counts, self._num_samples, cfg.db_kappa)


def loss_constants(stats: ClassStats, config: LossConfig) -> LossConstants:
    """The LossConstants of (stats, config), kept on stats and keyed by config."""
    return stats.derived(config, lambda: LossConstants(stats.counts, stats.num_samples, config))


def _cls_parts(
    z: np.ndarray,
    labels: np.ndarray,
    constants: LossConstants,
    config: LossConfig,
    need_grad: bool,
):
    if config.cls_loss_kind == "db":
        rebal, bias = constants.db
        return _db_parts(z, labels, rebal, bias, config, need_grad)
    if config.cls_loss_kind == "bce":
        return _bce_parts(z, labels, need_grad)
    return _focal_parts(z, labels, config.gamma_focal, need_grad)


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
    value, grad_z = _cls_parts(z, labels, loss_constants(stats, config), config, need_grad)
    return LossReport(total=value, cls_part=value, cse_part=0.0, gradient=grad_z)


def _check_classes(batch: Batch, prompts: PromptSet, stats: ClassStats | None = None) -> None:
    sizes = {"batch": batch.num_classes, "prompts": prompts.num_classes}
    if stats is not None:
        sizes["stats"] = stats.num_classes
    if len(set(sizes.values())) > 1:
        raise ConfigError(f"class counts disagree: {sizes}")


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

    At the endpoints the disabled part is skipped entirely, so the total
    reproduces the pure loss bit-exactly. The gradient (same convex
    combination) is returned in PromptSet.contexts layout.
    """
    if tau <= 0:
        raise ConfigError("temperature must be > 0")
    _check_classes(batch, prompts, stats)
    lam = config.cls_loss_weight
    compute_cls = lam > 0.0
    compute_cse = config.use_embedding_loss and lam < 1.0

    constants = loss_constants(stats, config)
    encoding = encode_all(encoder, prompts)
    cls_value = 0.0
    cse_value = 0.0
    grad_z = None
    grad_embeddings_cse = None
    if compute_cls:
        z = batch.images @ encoding.embeddings.T / tau
        cls_value, grad_z = _cls_parts(z, batch.labels, constants, config, need_grad)
    if compute_cse:
        weights, margins = constants.cse
        cse_value, grad_embeddings_cse = _cse_parts(
            batch.captions, batch.labels, encoding.embeddings, weights, margins, need_grad
        )

    total = lam * cls_value + (1.0 - lam) * cse_value
    if not need_grad:
        return LossReport(total=total, cls_part=cls_value, cse_part=cse_value, gradient=None)

    grad_embeddings = np.zeros_like(encoding.embeddings)
    if compute_cls:
        grad_embeddings += lam * (grad_z.T @ batch.images) / tau
    if compute_cse:
        grad_embeddings += (1.0 - lam) * grad_embeddings_cse
    gradient = encode_backward(encoder, prompts, encoding, grad_embeddings)
    return LossReport(total=total, cls_part=cls_value, cse_part=cse_value, gradient=gradient)


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
    _check_classes(batch, prompts, stats)
    mask = np.zeros(prompts.contexts.shape, dtype=bool)
    if not config.use_embedding_loss or config.cls_loss_weight >= 1.0:
        return mask
    encoding = encode_all(encoder, prompts)
    weights, margins = loss_constants(stats, config).cse
    dl = 1.0 - batch.captions @ encoding.embeddings.T
    hinge = weights * (margins - dl)
    near = (np.abs(hinge) < KINK_GUARD) & (batch.labels == 0)
    per_class = near.any(axis=0)  # (C,)
    if prompts.mode == MODE_SHARED:
        mask[:] = per_class.any()
        return mask
    mask[per_class, :, :] = True
    return mask


def mean_positive_delta(batch: Batch, prompts: PromptSet, encoder: FrozenTextEncoder) -> float:
    """Mean cosine distance between captions and the prompt embeddings of
    their positive classes; the caption-alignment diagnostic."""
    _check_classes(batch, prompts)
    encoding = encode_all(encoder, prompts)
    dl = 1.0 - batch.captions @ encoding.embeddings.T
    positive = batch.labels == 1
    if not positive.any():
        raise ConfigError("batch has no positive labels")
    return float(dl[positive].mean())
