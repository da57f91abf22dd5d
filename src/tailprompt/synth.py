"""Long-tailed multi-label dataset generator.

Class prototypes are shared between image and caption embeddings so the
caption channel carries real class signal: both are noisy normalized sums of
the prototypes of a sample's positive classes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import MultiLabelDataset, row_blocks
from .errors import ConfigError, NumericsError
from .seeding import DOMAIN_SYNTH, substream, unit_rows

# PRNG streams within DOMAIN_SYNTH.
_STREAM_PROTOTYPES = 0
_STREAM_LABELS = 1
_STREAM_REPAIR = 2
_STREAM_IMAGE_NOISE = 3
_STREAM_CAPTION_NOISE = 4

_MAX_PROTOTYPE_RETRIES = 100


@dataclass(frozen=True)
class SynthConfig:
    num_classes: int = 20
    num_samples: int = 2000
    dim: int = 128
    powerlaw_exponent: float = 1.5
    cooccur_prob: float = 0.25
    max_extra_labels: int = 2
    noise_std: float = 0.11
    caption_noise_std: float = 0.02
    seed: int = 7

    def __post_init__(self):
        if self.num_classes < 1:
            raise ConfigError("num_classes must be >= 1")
        if self.num_samples < self.num_classes:
            raise ConfigError(
                f"num_samples < num_classes ({self.num_samples} < {self.num_classes})"
            )
        if self.dim < 2:
            raise ConfigError("dim must be >= 2")
        if self.powerlaw_exponent < 0:
            raise ConfigError("powerlaw_exponent must be >= 0")
        if not 0.0 <= self.cooccur_prob <= 1.0:
            raise ConfigError("cooccur_prob must lie in [0, 1]")
        if self.max_extra_labels < 0:
            raise ConfigError("max_extra_labels must be >= 0")
        if self.noise_std < 0 or self.caption_noise_std < 0:
            raise ConfigError("noise standard deviations must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


def class_probs(config: SynthConfig) -> np.ndarray:
    """Target label distribution: p_i proportional to (i+1)^(-s)."""
    raw = np.arange(1, config.num_classes + 1, dtype=np.float64) ** (-config.powerlaw_exponent)
    return raw / raw.sum()


def make_prototypes(config: SynthConfig) -> np.ndarray:
    """Deterministic unit prototypes for each class, as a read-only (C, dim)
    array.

    With d >= 4C, random unit rows are drawn and redrawn until all pairwise
    |cos| < 0.5 (one draw almost always suffices at that aspect ratio). With
    C <= d < 4C random rows would be too correlated, so the draw is
    orthonormalized instead (exactly orthogonal prototypes). C > d cannot be
    near-orthogonal and is allowed only as plain normalized rows.
    """
    c, d = config.num_classes, config.dim
    rng = substream(config.seed, DOMAIN_SYNTH, _STREAM_PROTOTYPES)
    if c == 1 or c > d:
        vecs = unit_rows(rng, c, d)
    elif d >= 4 * c:
        for _ in range(_MAX_PROTOTYPE_RETRIES):
            vecs = unit_rows(rng, c, d)
            gram = np.abs(vecs @ vecs.T)
            np.fill_diagonal(gram, 0.0)
            if gram.max() < 0.5:
                break
        else:
            raise NumericsError("could not draw near-orthogonal prototypes; increase dim")
    else:
        raw = rng.standard_normal((c, d))
        q, r = np.linalg.qr(raw.T)  # columns of q span the rows of raw
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        vecs = (q * signs).T
    vecs.flags.writeable = False
    return vecs


def sample_label_sets(
    config: SynthConfig, probs: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """(num_samples, C) bool labels: per sample, a primary class plus
    optional co-occurring extras.

    Each of the max_extra_labels slots independently adds, with probability
    cooccur_prob, one class drawn from the same distribution; a draw that hits
    an already-positive class is a no-op, keeping the positives distinct.

    The uniforms come from rng in one block, read in sample order: the
    primary class draw, then per slot one test draw and, when the test hits,
    one class draw. A class draw maps u to the class index as
    Generator.choice(C, p=probs) does, so the labels are the ones that
    per-sample choice/random calls on rng would give. The block is sized for
    every slot hitting; its unread tail is never observed, because nothing
    else reads the labels stream.
    """
    n, k = config.num_samples, config.max_extra_labels
    uniforms = rng.random(n * (1 + 2 * k))
    hits = (uniforms < config.cooccur_prob).tolist()
    owners = []  # sample of each class draw
    draws = []  # stream position of each class draw
    at = 0  # stream position of the next draw
    for i in range(n):
        owners.append(i)
        draws.append(at)
        at += 1
        for _ in range(k):
            hit = hits[at]
            at += 1
            if hit:
                owners.append(i)
                draws.append(at)
                at += 1
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    labels = np.zeros((n, config.num_classes), dtype=bool)
    labels[owners, cdf.searchsorted(uniforms[draws], side="right")] = True
    return labels


def _repair_zero_counts(labels: np.ndarray, rng: np.random.Generator) -> None:
    """Give every class at least one positive (documented repair rule).

    While some class has zero positives, one uniformly chosen sample of the
    rarest nonzero class (ties -> lowest class index) is relabeled to include
    the lowest-index missing class.
    """
    while True:
        counts = labels.sum(axis=0)
        missing = np.flatnonzero(counts == 0)
        if missing.size == 0:
            return
        nonzero = np.flatnonzero(counts > 0)
        rarest = nonzero[np.argmin(counts[nonzero])]
        holders = np.flatnonzero(labels[:, rarest])
        pick = holders[rng.integers(holders.size)]
        labels[pick, missing[0]] = True


def generate_with_prototypes(config: SynthConfig) -> tuple[MultiLabelDataset, np.ndarray]:
    """Generate a dataset and the read-only (C, dim) prototypes aligned with
    its class indices.

    Classes are indexed in order of decreasing empirical frequency: after
    sampling and repair, label columns and prototype rows are permuted by a
    stable descending-count sort, so class 0 is always the most frequent.
    """
    c = config.num_classes
    protos = make_prototypes(config)
    probs = class_probs(config)

    label_rng = substream(config.seed, DOMAIN_SYNTH, _STREAM_LABELS)
    labels = sample_label_sets(config, probs, label_rng)
    _repair_zero_counts(labels, substream(config.seed, DOMAIN_SYNTH, _STREAM_REPAIR))

    order = np.argsort(-labels.sum(axis=0), kind="stable")
    labels = np.ascontiguousarray(labels[:, order])
    protos = protos[order]

    # (N, d) sums of positive prototypes, from one block of labels at a time
    signal = np.empty((labels.shape[0], protos.shape[1]))
    for rows in row_blocks(*labels.shape):
        np.matmul(labels[rows].astype(np.float64), protos, out=signal[rows])
    images = _noisy_unit(signal, config.noise_std, substream(config.seed, DOMAIN_SYNTH, _STREAM_IMAGE_NOISE))
    captions = _noisy_unit(
        signal, config.caption_noise_std, substream(config.seed, DOMAIN_SYNTH, _STREAM_CAPTION_NOISE)
    )
    del signal  # not held while the dataset checks its arrays

    names = tuple(f"class_{i:02d}" for i in range(c))
    protos.flags.writeable = False
    return MultiLabelDataset(images, labels, captions, names), protos


def generate(config: SynthConfig) -> MultiLabelDataset:
    return generate_with_prototypes(config)[0]


def _noisy_unit(signal: np.ndarray, std: float, rng: np.random.Generator) -> np.ndarray:
    """The rows of signal plus Gaussian noise of scale std, each scaled to
    unit length, worked out in row blocks. Each block draws its noise from
    rng after the block before it; standard_normal fills its output in
    order, so the draws are those of one whole-array call."""
    out = np.empty_like(signal)
    for rows in row_blocks(*signal.shape):
        vecs = signal[rows]
        if std > 0:
            vecs = vecs + std * rng.standard_normal(vecs.shape)
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        if norms.min() < 1e-12:
            raise NumericsError("degenerate embedding: prototype sum plus noise collapsed to zero")
        np.divide(vecs, norms, out=out[rows])
    return out
