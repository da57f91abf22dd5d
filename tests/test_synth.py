import numpy as np
import pytest

from tailprompt.data_model import class_counts, group_classes
from tailprompt.errors import ConfigError
from tailprompt.synth import (
    SynthConfig,
    class_probs,
    generate,
    generate_with_prototypes,
    make_prototypes,
    sample_label_sets,
)
from tailprompt import synth
from tailprompt.seeding import DOMAIN_SYNTH, substream

from oracles import sample_label_set


def _spearman(a, b) -> float:
    """Rank correlation via Pearson on average ranks (tie-aware, numpy only)."""

    def avg_ranks(x):
        x = np.asarray(x, dtype=np.float64)
        order = np.argsort(x, kind="stable")
        ranks = np.empty(x.size)
        ranks[order] = np.arange(1, x.size + 1, dtype=np.float64)
        for value in np.unique(x):
            mask = x == value
            ranks[mask] = ranks[mask].mean()
        return ranks

    ra, rb = avg_ranks(a), avg_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    return float((ra * rb).sum() / np.sqrt((ra**2).sum() * (rb**2).sum()))


class TestConfig:
    def test_defaults_valid(self):
        SynthConfig()

    def test_too_few_samples(self):
        with pytest.raises(ConfigError, match="num_samples < num_classes"):
            SynthConfig(num_classes=20, num_samples=5)

    def test_negative_noise(self):
        with pytest.raises(ConfigError):
            SynthConfig(noise_std=-0.1)


class TestClassProbs:
    def test_powerlaw_shape(self):
        cfg = SynthConfig(num_classes=4, num_samples=50, powerlaw_exponent=1.0)
        probs = class_probs(cfg)
        assert probs[0] / probs[3] == pytest.approx(4.0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_flat_at_zero_exponent(self):
        cfg = SynthConfig(num_classes=5, num_samples=50, powerlaw_exponent=0.0)
        assert np.allclose(class_probs(cfg), 0.2)


class TestPrototypes:
    def test_single_class_unit(self):
        cfg = SynthConfig(num_classes=1, num_samples=10, dim=16)
        vecs = make_prototypes(cfg)
        assert vecs.shape == (1, 16)
        assert np.linalg.norm(vecs[0]) == pytest.approx(1.0, abs=1e-12)

    def test_two_in_two_dims_orthogonal(self):
        # C <= d < 4C path: exact orthonormalization
        cfg = SynthConfig(num_classes=2, num_samples=10, dim=2)
        vecs = make_prototypes(cfg)
        assert abs(np.dot(vecs[0], vecs[1])) < 1e-12

    def test_default_scale_separation(self):
        # C=20, d=128, seed 7: all 190 pairs below the redraw threshold
        cfg = SynthConfig()
        vecs = make_prototypes(cfg)
        gram = np.abs(vecs @ vecs.T)
        np.fill_diagonal(gram, 0.0)
        assert gram.max() < 0.5

    def test_qr_branch_orthonormal(self):
        cfg = SynthConfig(num_classes=8, num_samples=50, dim=16)
        vecs = make_prototypes(cfg)
        assert np.allclose(vecs @ vecs.T, np.eye(8), atol=1e-10)

    def test_overfull_branch_unit_rows(self):
        cfg = SynthConfig(num_classes=10, num_samples=50, dim=4)
        vecs = make_prototypes(cfg)
        assert np.allclose(np.linalg.norm(vecs, axis=1), 1.0, atol=1e-12)

    def test_deterministic(self):
        cfg = SynthConfig(num_classes=6, num_samples=30, dim=32, seed=9)
        assert np.array_equal(make_prototypes(cfg), make_prototypes(cfg))


def _reference_label_sets(config, probs, rng):
    return np.stack(
        [
            sample_label_set(
                config.num_classes, probs, config.cooccur_prob, config.max_extra_labels, rng
            )
            for _ in range(config.num_samples)
        ]
    )


class TestLabelSampling:
    def test_cooccur_off_single_label(self):
        cfg = SynthConfig(num_classes=5, num_samples=200, cooccur_prob=0.0)
        labels = sample_label_sets(cfg, class_probs(cfg), substream(3, DOMAIN_SYNTH, 1))
        assert (labels.sum(axis=1) == 1).all()

    def test_label_budget(self):
        cfg = SynthConfig(num_classes=6, num_samples=200, cooccur_prob=1.0, max_extra_labels=2)
        labels = sample_label_sets(cfg, class_probs(cfg), substream(4, DOMAIN_SYNTH, 1))
        assert ((labels.sum(axis=1) >= 1) & (labels.sum(axis=1) <= 3)).all()

    @pytest.mark.parametrize("cooccur_prob", [0.0, 0.25, 1.0])
    @pytest.mark.parametrize("max_extra_labels", [0, 2, 5])
    @pytest.mark.parametrize(
        "num_classes, num_samples", [(1, 50), (7, 400)], ids=["C1", "C7"]
    )
    def test_block_draw_matches_per_sample_draws(
        self, cooccur_prob, max_extra_labels, num_classes, num_samples
    ):
        cfg = SynthConfig(
            num_classes=num_classes,
            num_samples=num_samples,
            cooccur_prob=cooccur_prob,
            max_extra_labels=max_extra_labels,
            seed=12,
        )
        probs = class_probs(cfg)
        got = sample_label_sets(cfg, probs, substream(cfg.seed, DOMAIN_SYNTH, 1))
        want = _reference_label_sets(cfg, probs, substream(cfg.seed, DOMAIN_SYNTH, 1))
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_block_draw_matches_per_sample_draws_at_stress_shape(self):
        cfg = SynthConfig(num_classes=200, num_samples=10_000, dim=256, seed=901)
        probs = class_probs(cfg)
        got = sample_label_sets(cfg, probs, substream(cfg.seed, DOMAIN_SYNTH, 1))
        want = _reference_label_sets(cfg, probs, substream(cfg.seed, DOMAIN_SYNTH, 1))
        assert np.array_equal(got, want)

    def test_generate_matches_per_sample_reference(self, monkeypatch):
        cfg = SynthConfig()
        got = generate(cfg)
        monkeypatch.setattr(synth, "sample_label_sets", _reference_label_sets)
        want = generate(cfg)
        assert got.class_names == want.class_names
        for name in ("images", "labels", "captions"):
            assert getattr(got, name).dtype == getattr(want, name).dtype
            assert np.array_equal(getattr(got, name), getattr(want, name))


class TestGenerate:
    def test_deterministic_bitwise(self):
        cfg = SynthConfig(num_classes=8, num_samples=120, dim=32, seed=11)
        a = generate(cfg)
        b = generate(cfg)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.captions, b.captions)

    def test_labels_are_bool_and_c_contiguous(self):
        # generate draws them column-major (labels[:, order]); the dataset
        # stores every array C-ordered
        labels = generate(SynthConfig(num_classes=8, num_samples=120, dim=32, seed=11)).labels
        assert labels.dtype == bool
        assert labels.flags.c_contiguous and not labels.flags.f_contiguous

    def test_counts_sorted_non_increasing(self):
        ds = generate(SynthConfig(num_classes=10, num_samples=300, dim=64, seed=2))
        counts = class_counts(ds)
        assert (np.diff(counts) <= 0).all()

    def test_every_class_covered_even_with_steep_tail(self):
        # steep exponent forces the zero-count repair path to matter
        ds = generate(
            SynthConfig(
                num_classes=10, num_samples=30, dim=64, powerlaw_exponent=4.0, seed=1
            )
        )
        assert (class_counts(ds) >= 1).all()

    def test_unit_embeddings(self):
        ds = generate(SynthConfig(num_classes=5, num_samples=40, dim=16, seed=3))
        assert np.allclose(np.linalg.norm(ds.images, axis=1), 1.0, atol=1e-9)
        assert np.allclose(np.linalg.norm(ds.captions, axis=1), 1.0, atol=1e-9)

    def test_noiseless_single_label_hits_prototype(self):
        cfg = SynthConfig(
            num_classes=4,
            num_samples=40,
            dim=32,
            cooccur_prob=0.0,
            noise_std=0.0,
            caption_noise_std=0.0,
            seed=5,
        )
        ds, protos = generate_with_prototypes(cfg)
        if ds.labels.sum() != ds.num_samples:
            pytest.skip("repair added a label; pick a different seed")
        owners = ds.labels.argmax(axis=1)
        cos_true = np.einsum("nd,nd->n", ds.images, protos[owners])
        assert np.allclose(cos_true, 1.0, atol=1e-9)
        # and separation from every other prototype
        gram = ds.images @ protos.T
        gram[np.arange(ds.num_samples), owners] = 0.0
        assert np.abs(gram).max() < 0.5

    def test_caption_and_image_noise_independent(self):
        ds = generate(SynthConfig(num_classes=4, num_samples=30, dim=16, seed=6))
        assert not np.array_equal(ds.images, ds.captions)

    def test_default_config_longtail_facts(self):
        ds = generate(SynthConfig())
        counts = class_counts(ds)
        ratio = counts[0] / counts[-1]
        # analytic primary-draw ratio 20^1.5 ~ 89.4, asserted within x2
        assert 89.4 / 2 < ratio < 89.4 * 2
        groups = group_classes(counts, head_min=100, tail_max=20)
        assert {"head", "medium", "tail"} <= set(groups)
        probs = class_probs(SynthConfig())
        assert _spearman(probs, counts) >= 0.9

    def test_prototypes_shared_between_channels(self):
        cfg = SynthConfig(num_classes=4, num_samples=40, dim=32, seed=8)
        ds, protos = generate_with_prototypes(cfg)
        # captions carry class signal: mean cosine against the positive
        # class prototypes beats cosine against a shuffled assignment
        pos_cos = []
        for k in range(ds.num_samples):
            members = np.flatnonzero(ds.labels[k])
            pos_cos.append((ds.captions[k] @ protos[members].T).mean())
        assert np.mean(pos_cos) > 0.7

    def test_prototype_vectors_immutable(self):
        cfg = SynthConfig(num_classes=3, num_samples=12, dim=16, seed=2)
        for protos in (make_prototypes(cfg), generate_with_prototypes(cfg)[1]):
            with pytest.raises(ValueError):
                protos[0, 0] = 2.0
