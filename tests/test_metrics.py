import math

import numpy as np
import pytest

from tailprompt.data_model import ClassStats, group_classes
from tailprompt.encoders import FrozenTextEncoder, init_prompt_set
from tailprompt.errors import ConfigError
from tailprompt.metrics import average_precision, evaluate, evaluate_scores

from oracles import (
    all_binary_label_patterns,
    average_precision_scalar,
    average_precision_stable_argsort,
    brute_force_ap,
)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([0.9, 0.1], [1, 0]) == 1.0

    def test_worst_single_positive(self):
        assert average_precision([0.1, 0.9], [1, 0]) == 0.5

    def test_mixed_example(self):
        got = average_precision([0.9, 0.2, 0.5], [1, 1, 0])
        assert got == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)

    def test_all_positive_is_one(self):
        assert average_precision([0.3, 0.9, 0.5], [1, 1, 1]) == 1.0

    def test_ties_broken_by_ascending_index(self):
        # equal scores: the earlier index is ranked first, so the positive at
        # index 0 wins and the one at index 2 sits behind a negative
        assert average_precision([0.5, 0.5, 0.5], [1, 0, 0]) == 1.0
        assert average_precision([0.5, 0.5, 0.5], [0, 0, 1]) == pytest.approx(1.0 / 3.0)

    def test_reversed_ranking_closed_form(self):
        # k positives all ranked below n-k negatives:
        # AP = (1/k) * sum_j j / (n - k + j)
        n, k = 12, 4
        scores = np.arange(n, dtype=np.float64)  # ascending: last ranked first
        labels = np.zeros(n, dtype=np.int64)
        labels[:k] = 1  # positives hold the lowest scores
        want = math.fsum(j / (n - k + j) for j in range(1, k + 1)) / k
        assert average_precision(scores, labels) == pytest.approx(want, abs=1e-12)

    def test_zero_positives_rejected(self):
        with pytest.raises(ConfigError, match="without positives"):
            average_precision([0.4, 0.2], [0, 0])

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            average_precision([0.4, np.nan], [1, 0])

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            average_precision([0.4, 0.2], [1])

    @pytest.mark.parametrize("label", [2, -1, 0.5])
    def test_non_binary_label_rejected(self, label):
        with pytest.raises(ConfigError, match="0 or 1"):
            average_precision([0.9, 0.1], [label, 1])

    def test_boolean_labels_accepted(self):
        assert average_precision([0.9, 0.1], [False, True]) == 0.5

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            scores = rng.standard_normal(n)
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                labels[0] = 1
            base = average_precision(scores, labels)
            assert average_precision(3.0 * scores + 7.0, labels) == base
            assert average_precision(np.tanh(scores), labels) == base

    def test_matches_scalar_oracle_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 20))
            scores = np.round(rng.standard_normal(n), 2)  # force some ties
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                labels[rng.integers(0, n)] = 1
            got = average_precision(scores, labels)
            want = average_precision_scalar(scores.tolist(), labels.tolist())
            assert got == want


def _some_positive(rng, n, rate):
    labels = (rng.random(n) < rate).astype(np.int64)
    labels[rng.integers(0, n)] = 1
    return labels


class TestMatchesStableArgsort:
    """Bit-exact agreement with the stable-argsort reference, at sizes that
    cross the sort's internal size thresholds, with and without ties."""

    @pytest.mark.parametrize("n", [10_000, 50_000])
    def test_random_scores(self, n):
        rng = np.random.default_rng(n)
        for rate in (0.001, 0.05, 0.5):
            scores = rng.standard_normal(n)
            labels = _some_positive(rng, n, rate)
            assert average_precision(scores, labels) == average_precision_stable_argsort(
                scores, labels
            )

    @pytest.mark.parametrize("decimals", [1, 2])
    @pytest.mark.parametrize("n", [17, 257, 1025, 10_000])
    def test_rounded_scores(self, n, decimals):
        rng = np.random.default_rng(10 * n + decimals)
        for rate in (0.05, 0.3, 0.9):
            scores = np.round(rng.standard_normal(n), decimals)
            labels = _some_positive(rng, n, rate)
            assert average_precision(scores, labels) == average_precision_stable_argsort(
                scores, labels
            )

    def test_all_tied_every_sample_positive(self):
        scores = np.full(50_000, 0.25)
        labels = np.ones(50_000, dtype=np.int64)
        assert average_precision(scores, labels) == average_precision_stable_argsort(
            scores, labels
        )

    def test_all_tied_mixed_labels(self):
        rng = np.random.default_rng(13)
        scores = np.full(50_000, -1.5)
        labels = _some_positive(rng, 50_000, 0.3)
        assert average_precision(scores, labels) == average_precision_stable_argsort(
            scores, labels
        )

    @pytest.mark.parametrize("n", [10, 1000, 50_000])
    def test_signed_zeros_tie(self, n):
        # +0.0 == -0.0, so they form one tied group ordered by index
        rng = np.random.default_rng(n + 1)
        scores = np.where(rng.random(n) < 0.5, 0.0, -0.0)
        scores[rng.random(n) < 0.2] = 1.0
        labels = _some_positive(rng, n, 0.3)
        assert average_precision(scores, labels) == average_precision_stable_argsort(
            scores, labels
        )

    def test_strided_column_views(self):
        # evaluate_scores passes column views of a row-major score matrix
        rng = np.random.default_rng(14)
        scores = np.round(rng.standard_normal((3000, 7)), 1)
        labels = (rng.random((3000, 7)) < 0.2).astype(np.int64)
        labels[0] = 1
        for i in range(7):
            column, column_labels = scores[:, i], labels[:, i]
            assert not column.flags.c_contiguous
            assert average_precision(column, column_labels) == average_precision_stable_argsort(
                column, column_labels
            )


class TestBruteForce:
    def test_exhaustive_agreement_small_n(self):
        # every label pattern x a grid of scores with deliberate ties
        rng = np.random.default_rng(2)
        for n in (1, 2, 3, 4):
            score_sets = [rng.standard_normal(n) for _ in range(3)]
            score_sets.append(np.round(rng.standard_normal(n), 1))
            score_sets.append(np.zeros(n))  # fully tied
            for labels in all_binary_label_patterns(n):
                for scores in score_sets:
                    assert average_precision(scores, labels) == brute_force_ap(scores, labels)

    def test_restricted_to_small_inputs(self):
        with pytest.raises(ConfigError):
            brute_force_ap(np.zeros(9), np.ones(9))

    def test_label_patterns_exclude_all_negative(self):
        pats = list(all_binary_label_patterns(3))
        assert len(pats) == 7
        assert all(sum(p) >= 1 for p in pats)
        pats = list(all_binary_label_patterns(2, require_positive=False))
        assert len(pats) == 4


def _stats(counts, head_min=10, tail_max=3):
    counts = np.asarray(counts)
    return ClassStats(counts, group_classes(counts, head_min, tail_max), int(counts.sum()))


class TestEvaluateScores:
    def test_perfect_scores_give_unit_map(self):
        labels = np.array([[1, 0], [0, 1], [1, 0]])
        scores = labels.astype(np.float64)
        result = evaluate_scores(scores, labels, _stats([12, 2]))
        assert result.map_total == 1.0
        assert result.map_head == 1.0
        assert result.map_tail == 1.0
        assert result.map_medium is None
        assert result.excluded == ()

    def test_zero_positive_class_excluded(self):
        labels = np.array([[1, 0], [1, 0]])
        scores = np.array([[0.9, 0.1], [0.8, 0.3]])
        result = evaluate_scores(scores, labels, _stats([5, 4]))
        assert result.excluded == (1,)
        assert np.isnan(result.per_class_ap[1])
        assert result.map_total == result.per_class_ap[0]

    def test_all_excluded_rejected(self):
        labels = np.zeros((3, 2), dtype=np.int64)
        with pytest.raises(ConfigError, match="nothing to evaluate"):
            evaluate_scores(np.zeros((3, 2)), labels, _stats([5, 4]))

    def test_group_means_and_weighted_total(self):
        rng = np.random.default_rng(3)
        n, c = 40, 6
        labels = (rng.random((n, c)) < 0.3).astype(np.int64)
        labels[0] = 1  # ensure every class has a positive
        scores = rng.standard_normal((n, c))
        counts = np.array([50, 30, 8, 7, 2, 1])
        stats = _stats(counts)
        result = evaluate_scores(scores, labels, stats)
        # total equals the group-size-weighted mean of the group means
        sizes = {g: sum(1 for t in stats.group if t == g) for g in ("head", "medium", "tail")}
        acc = 0.0
        total = 0
        for g in ("head", "medium", "tail"):
            mean = getattr(result, f"map_{g}")
            if mean is not None:
                acc += sizes[g] * mean
                total += sizes[g]
        assert result.map_total == pytest.approx(acc / total, abs=1e-12)

    def test_shape_checks(self):
        with pytest.raises(ConfigError):
            evaluate_scores(np.zeros((3, 2)), np.zeros((3, 3), dtype=np.int64), _stats([5, 4]))
        with pytest.raises(ConfigError):
            evaluate_scores(np.zeros((3, 2)), np.zeros((3, 2), dtype=np.int64), _stats([5, 4, 3]))

    def test_large_matrix_matches_per_class_oracle(self):
        rng = np.random.default_rng(15)
        n, c = 10_000, 200
        scores = rng.standard_normal((n, c))
        scores[:, ::2] = np.round(scores[:, ::2], 2)  # ties in every other class
        labels = (rng.random((n, c)) < 0.3 / np.arange(1, c + 1)).astype(np.int64)
        labels[rng.integers(0, n, size=c), np.arange(c)] = 1
        labels[:, 7] = 0
        result = evaluate_scores(scores, labels, _stats(np.maximum(labels.sum(axis=0), 1)))
        want = [
            average_precision_stable_argsort(scores[:, i], labels[:, i]) if i != 7 else np.nan
            for i in range(c)
        ]
        assert np.array_equal(result.per_class_ap, want, equal_nan=True)
        assert result.excluded == (7,)

    def test_chance_level_tracks_prevalence(self):
        # random scores: AP concentrates near the positive rate
        rng = np.random.default_rng(4)
        prevalence = 0.3
        aps = []
        for _ in range(60):
            labels = (rng.random(400) < prevalence).astype(np.int64)
            if labels.sum() == 0:
                continue
            aps.append(average_precision(rng.standard_normal(400), labels))
        assert abs(np.mean(aps) - prevalence) < 0.05


class TestEvaluateEndToEnd:
    def test_separable_dataset_perfect_map(self):
        # images equal to their class prompt embedding: scores are cosine
        # similarities, every class is perfectly ranked
        from tailprompt.data_model import MultiLabelDataset
        from tailprompt.encoders import encode_all

        d = 16
        enc = FrozenTextEncoder(np.eye(d))
        prompts = init_prompt_set(3, d, num_context_tokens=1, init_std=0.5, init_seed=14)
        emb = encode_all(enc, prompts).embeddings
        reps = 4
        images = np.tile(emb, (reps, 1))
        labels = np.tile(np.eye(3, dtype=np.int64), (reps, 1))
        ds = MultiLabelDataset(images, labels, images.copy(), tuple(f"c{i}" for i in range(3)))
        stats = ClassStats.from_dataset(ds, head_min=3, tail_max=1)
        result = evaluate(ds, prompts, enc, 1.0, stats)
        assert result.map_total == 1.0

    def test_temperature_only_scales_scores(self):
        from tailprompt.data_model import MultiLabelDataset

        rng = np.random.default_rng(5)
        d = 8
        enc = FrozenTextEncoder.create(3, 5, d)
        prompts = init_prompt_set(2, 5, init_std=0.4, init_seed=15, encoder_seed=3)
        images = rng.standard_normal((10, d))
        images /= np.linalg.norm(images, axis=1, keepdims=True)
        labels = rng.integers(0, 2, size=(10, 2))
        labels[:, 0] |= labels.sum(axis=1) == 0
        labels[0] = 1
        labels[1] = [1, 0]
        labels[2] = [0, 1]
        ds = MultiLabelDataset(images, labels, images.copy(), ("a", "b"))
        stats = ClassStats.from_dataset(ds, head_min=6, tail_max=2)
        a = evaluate(ds, prompts, enc, 1.0, stats)
        b = evaluate(ds, prompts, enc, 0.07, stats)
        assert np.allclose(a.per_class_ap, b.per_class_ap, equal_nan=True)
        with pytest.raises(ConfigError):
            evaluate(ds, prompts, enc, 0.0, stats)
