"""Core dataset and label representations.

Images exist only as frozen unit-norm embeddings (the image encoder is applied
at generation time and never trained), each paired with a binary label vector
and one pooled unit-norm caption embedding. A dataset is the batch of all its
samples: a MultiLabelDataset is a Batch, so full-split passes take it as is.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, read_json

NORM_TOL = 1e-9

GROUPS = ("head", "medium", "tail")

HEAD_MIN_DEFAULT = 100
TAIL_MAX_DEFAULT = 20


@dataclass(frozen=True)
class Batch:
    """A slice of a dataset, stacked for vectorized loss evaluation.

    Unlike MultiLabelDataset, a Batch does not require every class to appear;
    it is how mini-batches travel through the losses.
    """

    images: np.ndarray  # (B, d)
    labels: np.ndarray  # (B, C)
    captions: np.ndarray  # (B, d)

    def __post_init__(self):
        if not (self.images.ndim == self.labels.ndim == self.captions.ndim == 2):
            raise ConfigError("batch arrays must be 2-d")
        if not (self.images.shape[0] == self.labels.shape[0] == self.captions.shape[0] > 0):
            raise ConfigError("batch arrays must share a nonzero sample count")
        if self.images.shape[1] != self.captions.shape[1]:
            raise ConfigError("image and caption embeddings must share dimension d")

    @property
    def num_samples(self) -> int:
        return self.images.shape[0]

    @property
    def num_classes(self) -> int:
        return self.labels.shape[1]


@dataclass(frozen=True)
class MultiLabelDataset(Batch):
    """A full training split: the batch of all its samples. Immutable after
    construction.

    Invariants checked here (in place of Batch's shape checks, which they
    include): all rows unit-norm, labels binary with >= 1 positive per
    sample, and every class positive in >= 1 sample.
    """

    class_names: tuple[str, ...]

    def __post_init__(self):
        images = np.asarray(self.images, dtype=np.float64)
        captions = np.asarray(self.captions, dtype=np.float64)
        labels = np.asarray(self.labels)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "captions", captions)
        object.__setattr__(self, "class_names", tuple(str(n) for n in self.class_names))

        if images.ndim != 2 or images.shape[0] == 0:
            raise ConfigError("empty dataset: need at least one sample")
        if labels.shape != (images.shape[0], len(self.class_names)):
            raise ConfigError(
                f"labels shape {labels.shape} does not match "
                f"{images.shape[0]} samples x {len(self.class_names)} classes"
            )
        if captions.shape != images.shape:
            raise ConfigError("caption embeddings must match image embeddings in shape")
        if not ((labels == 0) | (labels == 1)).all():
            raise ConfigError("invalid label: entries must be 0 or 1")
        object.__setattr__(self, "labels", labels.astype(np.int64))

        # written so that a NaN norm fails the check instead of passing it
        norms = np.linalg.norm(images, axis=1)
        if not (np.abs(norms - 1.0) <= NORM_TOL).all():
            raise ConfigError("image embeddings must have unit L2 norm")
        norms = np.linalg.norm(captions, axis=1)
        if not (np.abs(norms - 1.0) <= NORM_TOL).all():
            raise ConfigError("caption embeddings must have unit L2 norm")
        if (self.labels.sum(axis=1) < 1).any():
            raise ConfigError("invalid label: every sample must have at least one positive class")
        if (self.labels.sum(axis=0) < 1).any():
            missing = int(np.argmin(self.labels.sum(axis=0)))
            raise ConfigError(f"every class needs n_i >= 1 positives; class {missing} has none")

        for arr in (self.images, self.labels, self.captions):
            arr.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.images.shape[1]

    def batch(self, indices) -> Batch:
        idx = np.asarray(indices, dtype=np.int64)
        return Batch(self.images[idx], self.labels[idx], self.captions[idx])


def class_counts(dataset: MultiLabelDataset) -> np.ndarray:
    """n_i = number of samples whose label vector includes class i."""
    return dataset.labels.sum(axis=0)


def group_classes(counts, head_min: int = HEAD_MIN_DEFAULT, tail_max: int = TAIL_MAX_DEFAULT):
    """Tag each class head/medium/tail by its positive count.

    count > head_min -> head; count < tail_max -> tail; the boundary values
    head_min and tail_max themselves are medium.
    """
    counts = np.asarray(counts)
    if (counts < 1).any():
        raise ConfigError("invalid count: every class needs n_i >= 1")
    if tail_max > head_min:
        raise ConfigError(f"tail_max ({tail_max}) must not exceed head_min ({head_min})")
    tags = []
    for n in counts:
        if n > head_min:
            tags.append("head")
        elif n < tail_max:
            tags.append("tail")
        else:
            tags.append("medium")
    return tuple(tags)


@dataclass(frozen=True)
class ClassStats:
    """Per-class positive counts and frequency-group tags for one split.

    num_samples records the size of the split the counts came from; the
    classifier bias term needs it alongside the counts.
    """

    counts: np.ndarray
    group: tuple[str, ...]
    num_samples: int
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        if len(self.group) != counts.shape[0]:
            raise ConfigError("group tags must match counts length")

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    def derived(self, key, build):
        """build(), computed on the first call for a hashable key and kept
        on this object. Every field is frozen, so anything derived from the
        stats and the key alone stays valid for the object's lifetime. A
        build that raises stores nothing and raises again on the next call.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build()
            return value

    @staticmethod
    def from_dataset(
        dataset: MultiLabelDataset,
        head_min: int = HEAD_MIN_DEFAULT,
        tail_max: int = TAIL_MAX_DEFAULT,
    ) -> "ClassStats":
        counts = class_counts(dataset)
        return ClassStats(counts, group_classes(counts, head_min, tail_max), dataset.num_samples)


def dataset_to_dict(dataset: MultiLabelDataset) -> dict:
    return {
        "dim": dataset.dim,
        "num_classes": dataset.num_classes,
        "class_names": list(dataset.class_names),
        "samples": [
            {
                "image_embedding": dataset.images[k].tolist(),
                "labels": dataset.labels[k].tolist(),
                "caption_embedding": dataset.captions[k].tolist(),
            }
            for k in range(dataset.num_samples)
        ],
    }


def _stack_field(rows, key: str, dtype=None) -> np.ndarray:
    try:
        column = [row[key] for row in rows]
    except (KeyError, TypeError) as exc:
        raise ConfigError(
            f"dataset snapshot samples must be objects with {key!r}: {exc!r}"
        ) from exc
    try:
        return np.asarray(column, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"dataset snapshot field {key!r} is ragged or not numeric: {exc}"
        ) from exc


def dataset_from_dict(doc: dict) -> MultiLabelDataset:
    """Rebuild a dataset from its snapshot. Rows are stacked into arrays
    once; MultiLabelDataset validates every row invariant on the arrays."""
    try:
        names = doc["class_names"]
        rows = doc["samples"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"dataset snapshot missing field: {exc}") from exc
    if not isinstance(names, list):
        raise ConfigError("dataset snapshot class_names must be a list")
    dataset = MultiLabelDataset(
        _stack_field(rows, "image_embedding", np.float64),
        _stack_field(rows, "labels"),
        _stack_field(rows, "caption_embedding", np.float64),
        names,
    )
    if dataset.dim != doc.get("dim") or dataset.num_classes != doc.get("num_classes"):
        raise ConfigError("dataset snapshot header disagrees with its samples")
    return dataset


def save_dataset(dataset: MultiLabelDataset, path) -> None:
    """Write the JSON snapshot. Floats are serialized with repr, which
    round-trips every double exactly."""
    text = json.dumps(dataset_to_dict(dataset), separators=(",", ":"))
    Path(path).write_text(text + "\n")


def load_dataset(path) -> MultiLabelDataset:
    return dataset_from_dict(read_json(path, "dataset snapshot"))
