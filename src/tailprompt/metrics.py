"""Ranking metrics: per-class average precision and grouped mAP.

AP here is the plain mean of precision-at-rank over the positive ranks, no
interpolation. Ranking is by descending score with ties broken by ascending
sample index, so results are reproducible across runs and platforms.

No sample is ordered by a stable sort. The scores are sorted by value with
numpy's default (unstable) sort, and each positive's rank is counted from that
sorted copy: 1 + the number of larger scores + the number of equal scores at a
lower index. The second count is only taken when a positive's score is tied,
and only over the samples holding a tied value. Each precision is an exact
integer over an exact integer rank, and the sum uses math.fsum (exactly
rounded), so the value is independent of sort algorithm and summation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_model import ClassStats, GROUPS, positive_mask

# Not called here, since evaluate ranks scores its callers compute:
# perfbench/test_perfbench.py checks that instrumentation wraps encode_all in
# every module that imports it, this one included.
from .encoders import encode_all  # noqa: F401
from .errors import ConfigError

# the grouped mAP fields of EvalResult, in the order every output lists them
MAP_KEYS = ("map_total", "map_head", "map_medium", "map_tail")


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """AP of one class: mean over positives of precision at each positive rank.

    scores: (N,) real; labels: (N,) in {0, 1} (bool accepted). Raises
    ConfigError when the class has no positives (callers exclude such classes
    instead).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ConfigError("scores and labels must be 1-d and the same length")
    n = scores.size
    ascending = np.sort(scores)
    # the sort puts -inf first and +inf, then NaN, last
    if n and not np.isfinite(ascending[[0, -1]]).all():
        raise ConfigError("scores must be finite")
    # one read of a strided column, then contiguous passes
    labels = np.ascontiguousarray(labels)
    positive = positive_mask(labels)
    npos = int(np.count_nonzero(positive))
    if npos + int(np.count_nonzero(labels == 0)) != n:
        raise ConfigError("labels must be 0 or 1")
    if npos == 0:
        raise ConfigError("average precision is undefined without positives")
    # positives in score order, so the searches walk the sorted copy in order
    pos = np.flatnonzero(positive)
    pos = pos[np.argsort(scores[pos])]
    pos_scores = scores[pos]
    # rank = 1 + count of larger scores + count of equal scores at a lower index
    at_most = np.searchsorted(ascending, pos_scores, side="right")
    ranks = n + 1 - at_most
    tied = at_most - np.searchsorted(ascending, pos_scores, side="left") > 1
    if tied.any():
        # key every sample holding a tied value by (value, index); the keys are
        # distinct, so the unstable sort orders them exactly
        values = np.unique(pos_scores[tied])
        members = np.flatnonzero(np.isin(scores, values))
        member_keys = np.sort(np.searchsorted(values, scores[members]) * n + members)
        group = np.searchsorted(values, pos_scores[tied]) * n
        ranks[tied] += np.searchsorted(member_keys, group + pos[tied]) - np.searchsorted(
            member_keys, group
        )
    ranks.sort()
    # the k-th best-ranked positive has precision k / rank
    precisions = np.arange(1, npos + 1) / ranks
    return math.fsum(precisions.tolist()) / npos


@dataclass(frozen=True)
class EvalResult:
    """Grouped mAP summary.

    per_class_ap holds NaN for excluded (zero-positive) classes; group means
    are None when a group has no scoreable class. map_total averages over
    every scoreable class regardless of group.
    """

    per_class_ap: np.ndarray
    map_total: float
    map_head: float | None
    map_medium: float | None
    map_tail: float | None
    excluded: tuple[int, ...]

    def maps(self) -> dict:
        """The grouped mAP fields by name, in MAP_KEYS order."""
        return {key: getattr(self, key) for key in MAP_KEYS}


def evaluate(scores: np.ndarray, labels: np.ndarray, stats: ClassStats) -> EvalResult:
    """Per-class AP of an (N, C) score matrix, ranked one class column at a
    time, plus head/medium/tail means."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 2 or scores.shape != labels.shape:
        raise ConfigError("scores and labels must be matching (N, C) matrices")
    num_classes = scores.shape[1]
    if num_classes != len(stats.counts):
        raise ConfigError("stats cover a different number of classes")
    per_class = np.full(num_classes, np.nan)
    excluded = []
    has_positive = positive_mask(labels).any(axis=0)
    by_class = np.ascontiguousarray(labels.T)  # one read of every label column
    for i in range(num_classes):
        if has_positive[i]:
            per_class[i] = average_precision(scores[:, i], by_class[i])
        else:
            excluded.append(i)
    scoreable = ~np.isnan(per_class)
    if not scoreable.any():
        raise ConfigError("no class has positives; nothing to evaluate")
    map_total = math.fsum(per_class[scoreable]) / int(scoreable.sum())
    group_tags = np.asarray(stats.group)
    group_means = {}
    for group in GROUPS:
        members = scoreable & (group_tags == group)
        if members.any():
            group_means[group] = math.fsum(per_class[members]) / int(members.sum())
        else:
            group_means[group] = None
    return EvalResult(
        per_class_ap=per_class,
        map_total=map_total,
        map_head=group_means["head"],
        map_medium=group_means["medium"],
        map_tail=group_means["tail"],
        excluded=tuple(excluded),
    )

