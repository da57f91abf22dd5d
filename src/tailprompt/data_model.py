"""Core dataset and label representations.

Images exist only as frozen unit-norm embeddings (the image encoder is applied
at generation time and never trained), each paired with a binary label vector
and one pooled unit-norm caption embedding. A dataset is the batch of all its
samples: a MultiLabelDataset is a Batch, so full-split passes take it as is.

A dataset holds C-contiguous arrays, whatever the layout it was given. A
Batch keeps the arrays it is given, so the loss code orders what it reads:
cls_loss_on_logits reads its logits in C order, and the classification
kernels make their label mask C-contiguous. Row blocks and the rest of the
code have no layout rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

NORM_TOL = 1e-9

GROUPS = ("head", "medium", "tail")

HEAD_MIN_DEFAULT = 100
TAIL_MAX_DEFAULT = 20

# A value-only pass over a whole split works through its rows in blocks of
# about this many entries of its widest (rows, width) temporary, so that its
# temporaries stay cache-sized whatever the split's size.
BLOCK_ENTRIES = 2**16


def block_rows(width: int) -> int:
    """Rows in one block of a pass over width-wide rows (see BLOCK_ENTRIES),
    at least one."""
    return max(1, BLOCK_ENTRIES // width)


def row_blocks(num_rows: int, width: int) -> list[slice]:
    """Consecutive row slices of block_rows(width) rows that cover num_rows
    rows; the last may be shorter. A row of a row-major array sums in the
    same order in a block of any height, so a blocked pass keeps the bits
    of a whole-array one."""
    step = block_rows(width)
    return [slice(start, min(start + step, num_rows)) for start in range(0, num_rows, step)]


def positive_mask(labels: np.ndarray) -> np.ndarray:
    """The bool mask of labels' positive entries: bool labels are their own
    mask, others are compared with 1. Comparing bool labels with 1 would
    cast every entry to an integer first."""
    return labels if labels.dtype == bool else labels == 1


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
    sample, and every class positive in >= 1 sample. Every array is stored
    C-contiguous, whatever its input layout; labels given as 0/1 numbers of
    any dtype are stored as bool.
    """

    class_names: tuple[str, ...]

    def __post_init__(self):
        images = np.asarray(self.images, dtype=np.float64, order="C")
        captions = np.asarray(self.captions, dtype=np.float64, order="C")
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
        # a copy, one byte per entry
        object.__setattr__(self, "labels", labels.astype(bool, order="C"))

        for name, vecs in (("image", images), ("caption", captions)):
            for rows in row_blocks(*vecs.shape):
                norms = np.linalg.norm(vecs[rows], axis=1)
                # written so that a NaN norm fails the check instead of passing it
                if not (np.abs(norms - 1.0) <= NORM_TOL).all():
                    raise ConfigError(f"{name} embeddings must have unit L2 norm")
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


# The snapshot's arrays, in file order: (dtype kinds accepted, ndim, kind name). The
# kinds are checked before MultiLabelDataset casts, so no string reaches a float.
SNAPSHOT_ARRAYS = {
    "images": ("f", 2, "real floating"),
    "labels": ("iub", 2, "integer or bool"),
    "captions": ("f", 2, "real floating"),
    "class_names": ("U", 1, "unicode"),
}


def save_dataset(dataset: MultiLabelDataset, path) -> None:
    """Write the snapshot: one uncompressed .npz archive of the arrays in
    SNAPSHOT_ARRAYS. np.savez gets an open file, because it appends .npz to a
    path that lacks it. Its zip entries carry a fixed date, so equal datasets
    give equal bytes."""
    arrays = dict(images=dataset.images, labels=dataset.labels, captions=dataset.captions)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays, class_names=np.array(dataset.class_names, dtype=str))


def load_dataset(path) -> MultiLabelDataset:
    """Read a snapshot written by save_dataset, every array eagerly and with
    pickles refused. A file that is not such an archive, a missing or extra
    array, or an array of the wrong kind or ndim raises ConfigError;
    MultiLabelDataset then checks every invariant."""
    import tokenize  # for the errors np.load raises on a malformed archive
    import zipfile

    what = f"dataset snapshot {path}"
    try:
        with open(path, "rb") as fh:
            magic = fh.read(2)
            fh.seek(0)
            if magic == b"PK":  # every zip archive starts so; a bare .npy does not
                with np.load(fh, allow_pickle=False) as archive:
                    arrays = {key: archive[key] for key in archive.files}
    except OSError as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read {what}: {reason}") from exc
    except (EOFError, ValueError, zipfile.BadZipFile, tokenize.TokenError) as exc:
        raise ConfigError(f"{what} is not a readable .npz archive: {exc}") from exc
    if magic.startswith(b"{"):
        raise ConfigError(f"{what} is JSON, no longer read; regenerate it with `tailprompt synth`")
    if magic != b"PK":
        raise ConfigError(f"{what} is not an .npz archive")
    if arrays.keys() != SNAPSHOT_ARRAYS.keys():
        raise ConfigError(f"{what} holds arrays {sorted(arrays)}; expected {list(SNAPSHOT_ARRAYS)}")
    for key, (kinds, ndim, kind_name) in SNAPSHOT_ARRAYS.items():
        array = np.asarray(arrays[key])  # a member that is not a .npy file reads as bytes
        if array.dtype.kind not in kinds or array.ndim != ndim:
            got = f"{array.ndim}-d {array.dtype}"
            raise ConfigError(f"{what}: {key} must be a {ndim}-d {kind_name} array, got {got}")
    return MultiLabelDataset(**arrays)
