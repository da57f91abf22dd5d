"""Independent reference implementations used as test oracles.

The scalar references are deliberately written with plain Python loops,
math.*, and math.fsum (exactly rounded sums), sharing no code with the
vectorized package paths they certify. Keep them slow and obvious. The others
are earlier, simpler implementations of package paths that were since made
faster; the tests require the fast paths to match them bit for bit.

cse_loss and db_loss are each part of the objective on its own, as the
acceptance criteria name them. They are built from the package's parts, and
cse_loss deliberately not from total_loss, which the tests compare it with.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import combinations

import numpy as np

from tailprompt.data_model import ClassStats
from tailprompt.encoders import encode_all, encode_backward
from tailprompt.errors import ConfigError, NumericsError
from tailprompt.losses import (
    LossReport,
    _cse_parts,
    active_parts,
    class_scores,
    classification_part,
    cls_loss_on_logits,
    cosine_distances,
    embedding_part,
    loss_constants,
)
from tailprompt.seeding import DOMAIN_TRAIN, substream
from tailprompt.train import (
    _STREAM_SHUFFLE,
    EpochRecord,
    _PromptHead,
    build_training_state,
    cosine_lr,
    sgd_step,
)


def _stats(counts, num_samples: int) -> ClassStats:
    # the group tags play no part in a loss value
    return ClassStats(counts, ("tail",) * len(counts), num_samples)


def cse_loss(batch, prompts, encoder, counts, config, need_grad: bool = True) -> LossReport:
    """The class-specific embedding loss alone, gradient w.r.t. the contexts.
    counts are the full training split's, not the batch's."""
    if batch.num_classes != prompts.num_classes:
        raise ConfigError("batch and prompts disagree on the number of classes")
    encoding = encode_all(encoder, prompts)
    weights, margins = loss_constants(_stats(counts, int(np.sum(counts))), config).cse
    dl = 1.0 - batch.captions @ encoding.embeddings.T
    row_sums, coef = _cse_parts(dl, batch.labels, weights, margins, need_grad)
    value = float(row_sums.sum() / batch.num_samples)
    gradient = None
    if need_grad:
        grad_embeddings = -(coef.T @ batch.captions) / batch.num_samples
        gradient = encode_backward(encoder, prompts, encoding, grad_embeddings)
    return LossReport(total=value, cls_part=0.0, cse_part=value, gradient=gradient)


def db_loss(z, labels, counts, num_samples, config, need_grad: bool = True) -> LossReport:
    """The distribution-balanced classification loss on logits z, whatever
    config.cls_loss_kind says."""
    stats = _stats(counts, num_samples)
    return cls_loss_on_logits(z, labels, stats, replace(config, cls_loss_kind="db"), need_grad)


def dot(a, b) -> float:
    return math.fsum(float(x) * float(y) for x, y in zip(a, b, strict=True))


def norm(a) -> float:
    return math.sqrt(dot(a, a))


def sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    ex = math.exp(x)
    return ex / (1.0 + ex)


def encode_prompt_scalar(contexts, class_tokens, projection, mode: str, class_index: int):
    """Unit prompt embedding for one class, all loops."""
    block = contexts[0] if mode == "shared" else contexts[class_index]
    m = len(block)
    d_token = len(class_tokens[class_index])
    pooled = [
        (math.fsum(block[j][t] for j in range(m)) + class_tokens[class_index][t]) / (m + 1.0)
        for t in range(d_token)
    ]
    d = len(projection[0])
    pre = [math.fsum(pooled[t] * projection[t][a] for t in range(d_token)) for a in range(d)]
    n = norm(pre)
    return [x / n for x in pre]


def cse_loss_scalar(
    captions,
    labels,
    prompt_embeddings,
    counts,
    eta: float,
    gamma_rw: float,
    mu_base: float,
    use_class_aware_margin: bool,
    use_reweighting: bool,
) -> float:
    """Per-sample, per-class loop over the embedding-loss recipe.

    For each sample: signed label +1 pays weight * delta, -1 pays the hinge
    max(0, weight * (margin - delta)); class terms are summed and the batch
    mean returned. Margins are eta/n^(1/4) (or the flat mu_base) and weights
    the normalized inverse frequencies (or 1), both from full-split counts.
    """
    num_classes = len(counts)
    if use_class_aware_margin:
        margins = [eta / float(n) ** 0.25 for n in counts]
    else:
        margins = [mu_base] * num_classes
    if use_reweighting:
        raw = [(1.0 / float(n)) ** gamma_rw for n in counts]
        total = math.fsum(raw)
        weights = [r / total for r in raw]
    else:
        weights = [1.0] * num_classes

    per_sample = []
    for caption, row in zip(captions, labels, strict=True):
        acc = 0.0
        for i in range(num_classes):
            delta = 1.0 - dot(caption, prompt_embeddings[i])
            signed = 2 * int(row[i]) - 1
            if signed == 1:
                acc += weights[i] * delta
            else:
                acc += max(0.0, weights[i] * (margins[i] - delta))
        per_sample.append(acc)
    return math.fsum(per_sample) / len(per_sample)


def db_loss_scalar(
    logits,
    labels,
    counts,
    num_samples: int,
    alpha: float,
    beta: float,
    theta: float,
    kappa: float,
    zeta: float,
    gamma_focal: float,
) -> float:
    """Rebalanced focal sigmoid loss, naive per-element evaluation.

    Positives pay -r (1-q)^g log q with q = sigmoid(z - v); negatives pay
    -(r/zeta) q^g log(1-q) with q = sigmoid(zeta (z - v)). Class terms are
    summed, the batch mean returned.
    """
    num_classes = len(counts)
    inv = [1.0 / float(n) for n in counts]
    inv_total = math.fsum(inv)
    rebalance = [alpha + sigmoid(beta * (inv[i] / inv_total - theta)) for i in range(num_classes)]
    bias = [kappa * math.log(num_samples / float(counts[i]) - 1.0) for i in range(num_classes)]

    per_sample = []
    for z_row, y_row in zip(logits, labels, strict=True):
        acc = 0.0
        for i in range(num_classes):
            x = float(z_row[i]) - bias[i]
            if int(y_row[i]) == 1:
                q = sigmoid(x)
                acc += -rebalance[i] * (1.0 - q) ** gamma_focal * math.log(q)
            else:
                q = sigmoid(zeta * x)
                # 1 - sigmoid(u) == sigmoid(-u) exactly, and the right-hand
                # form keeps full precision when q is close to 1
                acc += -(rebalance[i] / zeta) * q**gamma_focal * math.log(sigmoid(-zeta * x))
        per_sample.append(acc)
    return math.fsum(per_sample) / len(per_sample)


def bce_loss_scalar(logits, labels) -> float:
    terms = []
    for z_row, y_row in zip(logits, labels, strict=True):
        for z, y in zip(z_row, y_row, strict=True):
            zf = float(z)
            terms.append(-math.log(sigmoid(zf)) if int(y) == 1 else -math.log(sigmoid(-zf)))
    return math.fsum(terms) / len(terms)


def average_precision_scalar(scores, labels) -> float:
    """Rank-by-rank AP: descending score, ties by ascending index."""
    n = len(scores)
    order = sorted(range(n), key=lambda j: (-float(scores[j]), j))
    hits = 0
    precisions = []
    for rank, j in enumerate(order, start=1):
        if int(labels[j]) == 1:
            hits += 1
            precisions.append(hits / rank)
    return math.fsum(precisions) / len(precisions)


def brute_force_ap(scores, labels) -> float:
    """Definition-chasing AP for tiny inputs (N <= 8), no sorting library.

    Builds the ranking by repeated argmax with explicit tie handling, then
    walks it accumulating precision at every positive.
    """
    scores = [float(s) for s in scores]
    labels = [int(y) for y in labels]
    n = len(scores)
    if n != len(labels):
        raise ConfigError("scores and labels must be the same length")
    if n > 8:
        raise ConfigError("brute-force path is restricted to N <= 8")
    if sum(labels) == 0:
        raise ConfigError("average precision is undefined without positives")
    remaining = list(range(n))
    ranking = []
    while remaining:
        best = remaining[0]
        for j in remaining[1:]:
            if scores[j] > scores[best] or (scores[j] == scores[best] and j < best):
                best = j
        ranking.append(best)
        remaining.remove(best)
    precisions = []
    true_pos = 0
    for rank, j in enumerate(ranking, start=1):
        if labels[j] == 1:
            true_pos += 1
            precisions.append(true_pos / rank)
    return math.fsum(precisions) / len(precisions)


def all_binary_label_patterns(n: int, require_positive: bool = True):
    """Every length-n binary vector, optionally only those with >= 1 positive."""
    patterns = []
    for k in range(0 if not require_positive else 1, n + 1):
        for pos in combinations(range(n), k):
            row = [0] * n
            for j in pos:
                row[j] = 1
            patterns.append(row)
    return patterns


def average_precision_stable_argsort(scores, labels) -> float:
    """AP by one stable argsort of the negated scores: descending score, ties
    by ascending index. Vectorized, so it serves as the reference at sizes
    where the per-rank loop above is too slow."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    order = np.argsort(-scores, kind="stable")
    hits = (labels[order] == 1).astype(np.float64)
    ranks = np.arange(1, scores.size + 1, dtype=np.float64)
    precisions = np.cumsum(hits) / ranks
    return math.fsum(precisions[hits == 1.0]) / int(hits.sum())


def finite_diff_grad_copying(loss_fn, params, step: float):
    """Central differences that hand loss_fn a fresh copy of params, with one
    coordinate moved, for every evaluation."""
    params = np.asarray(params, dtype=np.float64)
    grad = np.zeros(params.shape)
    for idx in np.ndindex(params.shape):
        up = params.copy()
        up[idx] = params[idx] + step
        down = params.copy()
        down[idx] = params[idx] - step
        grad[idx] = (loss_fn(up) - loss_fn(down)) / (2.0 * step)
    return grad


def sample_label_set(num_classes, probs, cooccur_prob, max_extra_labels, rng):
    """One bool label vector, one Generator call per draw: a primary class
    from rng.choice, then per extra slot a test rng.random() < cooccur_prob
    and, when it hits, one more rng.choice class."""
    labels = np.zeros(num_classes, dtype=bool)
    labels[rng.choice(num_classes, p=probs)] = True
    for _ in range(max_extra_labels):
        if rng.random() < cooccur_prob:
            labels[rng.choice(num_classes, p=probs)] = True
    return labels


# The classification-loss parts as they were before each branch's formula was
# restricted to its own label entries: both formulas on every entry, one kept
# by np.where. Values and gradients must match them bit for bit, including
# the summation order that np.where's output layout sets.


def _softplus(x):
    return np.logaddexp(0.0, x)


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def db_parts_where(z, labels, rebal, bias, gamma_focal, zeta, need_grad):
    g = gamma_focal
    x = z - bias
    positive = labels == 1
    sp_neg_x = _softplus(-x)
    q_pos = _sigmoid(x)
    pos_terms = rebal * np.power(1.0 - q_pos, g) * sp_neg_x
    sp_zx = _softplus(zeta * x)
    q_neg = _sigmoid(zeta * x)
    neg_terms = (rebal / zeta) * np.power(q_neg, g) * sp_zx
    terms = np.where(positive, pos_terms, neg_terms)
    value = float(terms.sum(axis=1).sum() / z.shape[0])
    if not need_grad:
        return value, None
    log_q = -sp_neg_x
    log_1mq = -sp_zx
    grad_pos = rebal * g * q_pos * np.power(1.0 - q_pos, g) * log_q - rebal * np.power(
        1.0 - q_pos, g + 1.0
    )
    grad_neg = rebal * np.power(q_neg, g + 1.0) - rebal * g * np.power(q_neg, g) * (
        1.0 - q_neg
    ) * log_1mq
    return value, np.where(positive, grad_pos, grad_neg) / z.shape[0]


def bce_parts_where(z, labels, need_grad):
    positive = labels == 1
    terms = np.where(positive, _softplus(-z), _softplus(z))
    value = float(terms.sum() / terms.size)
    if not need_grad:
        return value, None
    q = _sigmoid(z)
    return value, np.where(positive, q - 1.0, q) / terms.size


def focal_parts_where(z, labels, gamma_focal, need_grad):
    positive = labels == 1
    g = gamma_focal
    sp_neg = _softplus(-z)
    sp_pos = _softplus(z)
    q = _sigmoid(z)
    terms = np.where(positive, np.power(1.0 - q, g) * sp_neg, np.power(q, g) * sp_pos)
    value = float(terms.sum() / terms.size)
    if not need_grad:
        return value, None
    log_q = -sp_neg
    log_1mq = -sp_pos
    grad_pos = g * q * np.power(1.0 - q, g) * log_q - np.power(1.0 - q, g + 1.0)
    grad_neg = np.power(q, g + 1.0) - g * np.power(q, g) * (1.0 - q) * log_1mq
    return value, np.where(positive, grad_pos, grad_neg) / terms.size


def noisy_unit_whole(signal, std, rng):
    """synth._noisy_unit as one whole-array pass: one noise draw for every
    row, then one normalisation."""
    vecs = signal
    if std > 0:
        vecs = signal + std * rng.standard_normal(signal.shape)
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    if norms.min() < 1e-12:
        raise ValueError("degenerate embedding")
    return vecs / norms


def encode_backward_per_token(encoder, prompts, encoding, grad_embeddings):
    """encoders.encode_backward as it was before the gradient was pooled: the
    same gradient repeated for each of the M context tokens of a block, or
    the shared block's sum tiled over them, shaped like prompts.contexts."""
    e = encoding.embeddings
    radial = (e * grad_embeddings).sum(axis=1, keepdims=True)
    g_pre = (grad_embeddings - e * radial) / encoding.norms[:, None]
    g_pooled = g_pre @ encoder.projection.T
    m = prompts.num_context_tokens
    per_token = g_pooled / (m + 1.0)
    if prompts.mode == "shared":
        block = per_token.sum(axis=0)
        return np.tile(block, (1, m, 1))
    return np.repeat(per_token[:, None, :], m, axis=1)


def total_loss_accumulated(batch, prompts, encoder, stats, config, tau: float = 1.0) -> LossReport:
    """total_loss with its gradient, as the package computed it before
    objective_core: each active part through classification_part and
    embedding_part, and the gradient w.r.t. the embeddings accumulated into a
    zero-filled array."""
    compute_cls, compute_cse = active_parts(config)
    constants = loss_constants(stats, config)
    encoding = encode_all(encoder, prompts)
    cls_value = cse_value = 0.0
    if compute_cls:
        scores = class_scores(batch.images, encoding.embeddings, tau)
        cls_value, grad_z = classification_part(scores, batch.labels, constants, config, True)
    if compute_cse:
        distances = cosine_distances(batch.captions, encoding.embeddings)
        cse_value, coef = embedding_part(distances, batch.labels, constants, True)
    lam = config.cls_loss_weight
    grad_embeddings = np.zeros_like(encoding.embeddings)
    if compute_cls:
        grad_embeddings += lam * (grad_z.T @ batch.images) / tau
    if compute_cse:
        grad_embeddings += (1.0 - lam) * (-(coef.T @ batch.captions) / batch.num_samples)
    gradient = encode_backward(encoder, prompts, encoding, grad_embeddings)
    return LossReport(lam * cls_value + (1.0 - lam) * cse_value, cls_value, cse_value, gradient)


def train_step_by_step(dataset, config):
    """(final contexts, epoch records) of a prompt run trained by the loop
    train() ran before its step was built once a run: per minibatch,
    total_loss_accumulated on dataset.batch(indices), then sgd_step. The
    records' evaluation fields come from the head's epoch pass, which that
    change left as it was."""
    stats, encoder, prompts = build_training_state(dataset, config)
    head = _PromptHead(dataset, prompts, encoder, stats, config)
    report, *measured = head.measure(with_loss=True)
    losses = (report.total, report.cls_part, report.cse_part)
    records = [EpochRecord(0, config.lr0, *losses, *measured)]
    shuffle_rng = substream(config.seed, DOMAIN_TRAIN, _STREAM_SHUFFLE)
    n = dataset.num_samples
    for epoch in range(1, config.epochs + 1):
        lr = cosine_lr(epoch - 1, config.epochs, config.lr0)
        permutation = shuffle_rng.permutation(n)
        sums = [0.0, 0.0, 0.0]
        for start in range(0, n, config.batch_size):
            indices = permutation[start : start + config.batch_size]
            report = total_loss_accumulated(
                dataset.batch(indices), prompts, encoder, stats, config.loss, config.tau
            )
            if not math.isfinite(report.total):
                raise NumericsError(f"abort run: non-finite loss at epoch {epoch}")
            sgd_step(prompts.contexts, report.gradient, lr)
            for i, value in enumerate((report.total, report.cls_part, report.cse_part)):
                sums[i] += value * indices.size
        eval_now = epoch % config.eval_every == 0 or epoch == config.epochs
        measured = head.measure()[1:] if eval_now else (None, None)
        records.append(EpochRecord(epoch, lr, *(value / n for value in sums), *measured))
    return prompts.contexts, records
