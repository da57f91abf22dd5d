import json

import numpy as np
import pytest

from tailprompt.data_model import (
    Batch,
    ClassStats,
    MultiLabelDataset,
    class_counts,
    dataset_from_dict,
    dataset_to_dict,
    group_classes,
    load_dataset,
    save_dataset,
)
from tailprompt.encoders import FrozenTextEncoder, init_prompt_set
from tailprompt.errors import ConfigError
from tailprompt.losses import LossConfig, total_loss
from tailprompt.seeding import unit_rows


def _tiny_dataset(n=6, c=3, d=8, seed=0):
    rng = np.random.default_rng(seed)
    images = unit_rows(rng, n, d)
    captions = unit_rows(rng, n, d)
    labels = np.zeros((n, c), dtype=np.int64)
    for k in range(n):
        labels[k, k % c] = 1
    labels[0, 1] = 1  # one multi-label sample
    names = [f"class_{i:02d}" for i in range(c)]
    return MultiLabelDataset(images, labels, captions, tuple(names))


class TestSample:
    """Per-sample row invariants, which MultiLabelDataset checks on every row."""

    def _rows(self, images=None, labels=None, captions=None):
        ds = _tiny_dataset()
        return (
            ds.images if images is None else images,
            ds.labels if labels is None else labels,
            ds.captions if captions is None else captions,
            ds.class_names,
        )

    def test_valid_sample(self):
        ds = MultiLabelDataset(*self._rows())
        assert ds.labels[0].tolist() == [1, 1, 0]
        assert ds.labels.dtype == np.int64

    def test_rejects_non_unit_image(self):
        images = _tiny_dataset().images.copy()
        images[2] *= 1.5
        with pytest.raises(ConfigError, match="image embeddings must have unit"):
            MultiLabelDataset(*self._rows(images=images))

    def test_rejects_non_unit_caption(self):
        captions = _tiny_dataset().captions.copy()
        captions[4] *= 0.5
        with pytest.raises(ConfigError, match="caption embeddings must have unit"):
            MultiLabelDataset(*self._rows(captions=captions))

    def test_rejects_no_positive(self):
        labels = _tiny_dataset().labels.copy()
        labels[3] = 0  # every class keeps a positive elsewhere
        with pytest.raises(ConfigError, match="at least one positive"):
            MultiLabelDataset(*self._rows(labels=labels))

    @pytest.mark.parametrize("value", [2, 0.5, np.nan, -1])
    def test_rejects_nonbinary_labels(self, value):
        labels = _tiny_dataset().labels.astype(np.float64)
        # row 0 and column 2 keep a positive sum with -1 here, so only the
        # entry check can raise this message
        labels[0, 2] = value
        with pytest.raises(ConfigError, match="invalid label: entries must be 0 or 1"):
            MultiLabelDataset(*self._rows(labels=labels))

    def test_arrays_read_only(self):
        ds = MultiLabelDataset(*self._rows())
        for arr in (ds.images, ds.labels, ds.captions):
            with pytest.raises(ValueError):
                arr[0, 0] = 0


class TestDataset:
    def test_roundtrip_counts(self):
        ds = _tiny_dataset()
        counts = class_counts(ds)
        assert counts.tolist() == ds.labels.sum(axis=0).tolist()

    def test_every_class_needs_a_positive(self):
        ds = _tiny_dataset()
        labels = ds.labels.copy()
        labels[:, 2] = 0
        with pytest.raises(ConfigError):
            MultiLabelDataset(ds.images, labels, ds.captions, ds.class_names)

    def test_every_sample_needs_a_positive(self):
        ds = _tiny_dataset()
        labels = ds.labels.copy()
        labels[0, :] = 0
        with pytest.raises(ConfigError):
            MultiLabelDataset(ds.images, labels, ds.captions, ds.class_names)

    def test_shape_mismatch_rejected(self):
        ds = _tiny_dataset()
        with pytest.raises(ConfigError):
            MultiLabelDataset(ds.images, ds.labels[:, :2], ds.captions, ds.class_names)

    def test_batch_selection(self):
        ds = _tiny_dataset()
        batch = ds.batch([0, 2])
        assert batch.num_samples == 2
        assert np.array_equal(batch.images, ds.images[[0, 2]])

    def test_full_batch_covers_everything(self):
        # a dataset is the batch of all its samples: its own arrays, no copy
        ds = _tiny_dataset()
        assert isinstance(ds, Batch)
        assert (ds.num_samples, ds.num_classes) == (6, 3)
        full = Batch(ds.images, ds.labels, ds.captions)
        encoder = FrozenTextEncoder.create(seed=5, token_dim=4, dim=8)
        prompts = init_prompt_set(3, 4, init_std=0.3, encoder_seed=5, init_seed=2)
        stats = ClassStats.from_dataset(ds)
        config = LossConfig()
        a = total_loss(ds, prompts, encoder, stats, config)
        b = total_loss(full, prompts, encoder, stats, config)
        assert (a.total, a.cls_part, a.cse_part) == (b.total, b.cls_part, b.cse_part)
        assert np.array_equal(a.gradient, b.gradient)


class TestGroups:
    def test_boundaries_are_medium(self):
        # the threshold values themselves belong to the middle group
        assert group_classes([100, 20], head_min=100, tail_max=20) == ("medium", "medium")

    def test_head_and_tail(self):
        assert group_classes([101, 50, 19], head_min=100, tail_max=20) == (
            "head",
            "medium",
            "tail",
        )

    def test_invalid_thresholds(self):
        with pytest.raises(ConfigError):
            group_classes([5], head_min=10, tail_max=20)

    def test_zero_count_rejected(self):
        with pytest.raises(ConfigError):
            group_classes([0, 5])

    def test_stats_from_dataset(self):
        ds = _tiny_dataset()
        stats = ClassStats.from_dataset(ds, head_min=3, tail_max=2)
        assert stats.num_samples == ds.num_samples
        assert stats.counts.tolist() == class_counts(ds).tolist()
        assert len(stats.group) == ds.num_classes


class TestSerialization:
    def test_dict_roundtrip(self):
        ds = _tiny_dataset()
        back = dataset_from_dict(dataset_to_dict(ds))
        assert np.array_equal(back.images, ds.images)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.captions, ds.captions)
        assert back.class_names == ds.class_names

    def test_file_roundtrip_byte_identical(self, tmp_path):
        ds = _tiny_dataset()
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_dataset(ds, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda rows: rows[2].pop("labels"),  # missing key
            lambda rows: rows[1]["image_embedding"].pop(),  # ragged row
            lambda rows: rows[3]["labels"].append(0),  # ragged labels
            lambda rows: rows[0]["caption_embedding"].__setitem__(4, "x"),  # not a number
            lambda rows: rows[0]["image_embedding"].__setitem__(1, None),  # a null
            lambda rows: rows[4]["labels"].__setitem__(0, "1"),
            lambda rows: rows.__setitem__(5, [0.1, 0.2]),  # a row that is not an object
        ],
        ids=[
            "missing-key",
            "ragged-image",
            "ragged-labels",
            "non-numeric-entry",
            "null-entry",
            "string-label",
            "row-not-object",
        ],
    )
    def test_malformed_rows_raise_config_error(self, tmp_path, corrupt):
        doc = dataset_to_dict(_tiny_dataset())
        corrupt(doc["samples"])
        with pytest.raises(ConfigError):
            dataset_from_dict(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            load_dataset(path)

    @pytest.mark.parametrize("names", [5, None, "abc"], ids=["int", "null", "string"])
    def test_class_names_must_be_a_list(self, names):
        doc = dataset_to_dict(_tiny_dataset())
        doc["class_names"] = names
        with pytest.raises(ConfigError, match="class_names"):
            dataset_from_dict(doc)

    def test_corrupt_header_rejected(self, tmp_path):
        ds = _tiny_dataset()
        doc = dataset_to_dict(ds)
        doc["num_classes"] = 99
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            load_dataset(path)
