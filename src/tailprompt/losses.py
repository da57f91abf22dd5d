"""Training objectives with analytic value-and-gradient evaluation.

Two parts are blended: a hinge-style class-specific embedding (CSE) loss that
pulls each class prompt toward the captions of samples containing the class
and pushes it beyond a margin from the rest, and a per-class sigmoid
classification loss (distribution-balanced, BCE, or focal). Gradients flow
only into prompt contexts; everything else is frozen.

All class statistics (weights, margins, rebalance factors, logit biases) are
computed from full-training-split counts, never from batch counts. One
Objective per (ClassStats, LossConfig) pair resolves them, each part's on
first use, and serves the whole run (see loss_objective). Reductions sum
over classes first, then average over samples in index order, so values are
bit-stable. A value-only pass over a whole split does its elementwise work
in row blocks and gives the same bits as one whole-array pass (see
_mean_of_terms).

Each part's value is also reachable from a score matrix the caller already
holds (Objective.classification on class_scores, Objective.embedding on
cosine_distances, combined by Objective.blend), so a training epoch's record
can share each (N, C) product with the ranking and the alignment diagnostic.

objective_core is the one evaluation of the blended objective and its
gradient w.r.t. the prompt embeddings. total_loss is its argument checks
around that core, and a training step calls the same core on the rows it
gathers. Runs that train as one stack (see loss_stack_key) call it once for
all of them, with an ObjectiveStack and a leading run axis on the
embeddings, the scores and the distances; the kernels and the core read
their last two axes, so each run's slice has the bits of its own 2-d call.
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
    cls_loss_on_logits reports the classification part's value as total and
    cls_part, with cse_part zero and the gradient shaped like the logits
    (for chaining); a linear probe's epoch record reports its value the same
    way, with no gradient. gradient is None when it was not requested.
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


def _per_entry(row: np.ndarray, shape: tuple) -> np.ndarray:
    """row[c] at every (b, c) of shape, or a stack's (S, 1, C) rows at every
    (s, b, c), as a zero-copy view of the contiguous row (the rebalance rows
    of Objective.cls_constants and ObjectiveStack.cls_constants are). It is
    what np.broadcast_to(row, shape) returns, without that call's iterator
    set-up, which costs more than the gathers from it at small batch sizes."""
    strides = (0, row.itemsize) if row.ndim == 1 else (row.strides[0], 0, row.itemsize)
    return np.ndarray(shape, row.dtype, row, 0, strides)


def _by_label(positive: np.ndarray, negative: np.ndarray, z: np.ndarray, pos_values, neg_values):
    """np.where(positive, ., .) over z-shaped arrays, assembled from values
    computed on the positive and the negative entries only (row-major mask
    order, as z[positive] gathers them). The result is C-ordered, as
    np.where's is on C-ordered z."""
    out = np.empty(z.shape)
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
    """(value, gradient) of one part of the objective on (B, C) scores.

    part(scores, labels, *constants, need_grad) returns the terms its value
    averages, (B,) per-sample sums or (B, C) entries, and its gradient. A
    value-only call on more rows than fit in one block runs part on each row
    block of the scores (data_model.row_blocks) and keeps only those terms,
    in one row-major buffer. The one sum then adds the same numbers in the
    same order as on the whole array, so the value is bit-identical, while
    every other (B, C) temporary lives for one block.

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
            terms = np.empty((scores.shape[0], *block.shape[1:]))
        terms[rows] = block
    return float(terms.sum() / terms.size), None


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
    value, grad_z = loss_objective(stats, config).classification(z, labels, need_grad)
    return LossReport(total=value, cls_part=value, cse_part=0.0, gradient=grad_z)


def check_classes(batch: Batch, prompts: PromptSet, stats: ClassStats) -> None:
    """Raise ConfigError unless batch, prompts and stats count the same classes."""
    sizes = {"batch": batch.num_classes, "prompts": prompts.num_classes, "stats": stats.num_classes}
    if len(set(sizes.values())) > 1:
        raise ConfigError(f"class counts disagree: {sizes}")


class Objective:
    """The blended objective of one (ClassStats, LossConfig): the blend
    weight lam, whether the blend computes its classification part
    (compute_cls) and its embedding part (compute_cse), and each part's
    per-class constants as the kernels take them. At the endpoints of lam
    the disabled part is skipped entirely, so the total reproduces the pure
    loss bit-exactly.

    The constants depend only on the full-split counts and the config, both
    frozen. A part's are built, and the counts validated, at its first
    evaluation and reused after it: a part that is never evaluated reads no
    counts, and a build that raises keeps nothing and raises again at the
    next evaluation. See loss_objective.
    """

    def __init__(self, counts: np.ndarray, num_samples: int, config: LossConfig):
        self._counts = counts
        self._num_samples = num_samples
        self._config = config
        self.lam = config.cls_loss_weight
        *_, self.compute_cls, self.compute_cse = loss_stack_key(config)

    @cached_property
    def cls_constants(self) -> tuple:
        """_cls_parts's (kind, focal_form, gamma). focal_form is the
        focal-form loss's (rebalance r, logit bias v, negative tolerance
        zeta): db's, from the counts, or focal's r = 1, v = 0 and zeta = 1;
        bce has none. Only db's reads the counts. r is a contiguous row, as
        _per_entry needs."""
        cfg, counts = self._config, self._counts
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
        class; it broadcasts to the same numbers a full vector would."""
        cfg, counts = self._config, self._counts
        weights = class_weights(counts, cfg.gamma_rw) if cfg.use_reweighting else 1.0
        margins = class_margins(counts, cfg.eta) if cfg.use_class_aware_margin else cfg.mu_base
        return weights, margins

    def classification(self, scores: np.ndarray, labels: np.ndarray, need_grad: bool):
        """(value, gradient w.r.t. scores) of the configured classification
        part on (B, C) scores or logits; a value-only call on a whole split
        runs in row blocks."""
        return _mean_of_terms(_cls_parts, scores, labels, self.cls_constants, need_grad)

    def embedding(self, distances: np.ndarray, labels: np.ndarray, need_grad: bool):
        """(value, d terms / d distances) of the embedding part on (B, C)
        cosine distances; the derivatives are not divided by B (see
        objective_core)."""
        return _mean_of_terms(_cse_parts, distances, labels, self.cse_constants, need_grad)

    def blend(self, cls_value: float, cse_value: float) -> float:
        """lam * cls_value + (1 - lam) * cse_value; a part the blend skips
        enters as 0.0."""
        return self.lam * cls_value + (1.0 - self.lam) * cse_value


def loss_objective(stats: ClassStats, config: LossConfig) -> Objective:
    """The Objective of (stats, config), kept on stats and keyed by config."""
    return stats.derived(config, lambda: Objective(stats.counts, stats.num_samples, config))


def loss_stack_key(config: LossConfig) -> tuple:
    """What the LossConfigs of runs trained as one stack share: the
    classification kind, gamma_focal and db_zeta, which the kernels take as
    scalars, and the parts the blend computes, (compute_cls, compute_cse).
    Every other field enters a stack as a per-run row (see ObjectiveStack)."""
    lam = config.cls_loss_weight
    parts = (lam > 0.0, config.use_embedding_loss and lam < 1.0)
    return (config.cls_loss_kind, config.gamma_focal, config.db_zeta, *parts)


def _run_rows(values, num_classes: int) -> np.ndarray:
    """Each run's per-class constant, a (C,) vector or one float for every
    class, as the (S, 1, C) rows of a contiguous array."""
    rows = [np.broadcast_to(np.asarray(v, dtype=np.float64), (num_classes,)) for v in values]
    return np.stack(rows).reshape(len(rows), 1, num_classes)


def _run_means(terms: np.ndarray) -> np.ndarray:
    """Each run's mean of a stack's terms, (S, B) or (S, B, C): one sum per
    run over its contiguous terms, with the bits of that run's own sum."""
    return terms.reshape(len(terms), -1).sum(axis=1) / terms[0].size


class ObjectiveStack:
    """The Objectives of S runs that train as one stack, for objective_core
    on arrays with a leading run axis: (S, C, d) embeddings, (S, B, C)
    scores and distances, and (B, .) or (S, B, .) rows. The runs agree on
    loss_stack_key; lam enters as an (S, 1, 1) scalar and every per-class
    constant as a run's (S, 1, C) row. Each of them multiplies or adds entry
    by entry, so each run's slice keeps the bits of its own Objective. The
    part values and the blend are (S,) arrays.
    """

    def __init__(self, objectives):
        self.objectives = tuple(objectives)
        first = self.objectives[0]
        self.compute_cls, self.compute_cse = first.compute_cls, first.compute_cse
        self._lams = np.array([o.lam for o in self.objectives])
        self.lam = self._lams.reshape(-1, 1, 1)
        self._num_classes = len(first._counts)

    @cached_property
    def cls_constants(self) -> tuple:
        """Objective.cls_constants with each run's rebalance and bias as
        (S, 1, C) rows."""
        constants = [o.cls_constants for o in self.objectives]
        kind, focal_form, gamma = constants[0]
        if focal_form is not None:
            forms = [c[1] for c in constants]
            rebal = _run_rows([form[0] for form in forms], self._num_classes)
            bias = _run_rows([form[1] for form in forms], self._num_classes)
            focal_form = rebal, bias, focal_form[2]
        return kind, focal_form, gamma

    @cached_property
    def cse_constants(self) -> tuple:
        """Objective.cse_constants as (S, 1, C) rows: (weights, margins)."""
        weights, margins = zip(*(o.cse_constants for o in self.objectives))
        return _run_rows(weights, self._num_classes), _run_rows(margins, self._num_classes)

    def classification(self, scores: np.ndarray, labels: np.ndarray, need_grad: bool):
        """(each run's value, gradient w.r.t. scores) of the classification
        part on (S, B, C) scores."""
        if labels.ndim == 2:
            # the kernels gather by a scores-shaped mask: a copy per run of
            # shared labels, which gathers faster than a broadcast view
            shared, labels = labels, np.empty(scores.shape, labels.dtype)
            labels[...] = shared
        terms, gradient = _cls_parts(scores, labels, *self.cls_constants, need_grad)
        return _run_means(terms), gradient

    def embedding(self, distances: np.ndarray, labels: np.ndarray, need_grad: bool):
        """(each run's value, d terms / d distances) of the embedding part
        on (S, B, C) cosine distances."""
        terms, coef = _cse_parts(distances, labels, *self.cse_constants, need_grad)
        return _run_means(terms), coef

    def blend(self, cls_value, cse_value) -> np.ndarray:
        """Each run's lam * cls_value + (1 - lam) * cse_value."""
        return self._lams * cls_value + (1.0 - self._lams) * cse_value


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
    against the unit prompt embeddings at temperature tau. With an
    ObjectiveStack the embeddings are a stack's (S, C, d), the rows are
    shared (B, .) or per-run (S, B, .), and the values are (S,) arrays.

    The parts the objective skips are not computed; with neither active the
    gradient is zero. A zero-filled array accumulating the parts' gradients
    a and b would hold (0.0 + a) + b. This returns (a + b) + 0.0 instead,
    the same in every bit: adding +0.0 changes only a -0.0 into +0.0, and
    neither form can end at -0.0.
    """
    cls_value = cse_value = 0.0
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
    total, cls_value, cse_value, gradient = objective_core(
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
