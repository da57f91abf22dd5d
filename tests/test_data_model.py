import io
import json
import pickle
import time
import zipfile

import numpy as np
import pytest

from tailprompt.data_model import (
    Batch,
    ClassStats,
    MultiLabelDataset,
    class_counts,
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
        assert ds.labels.dtype == bool

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


def _snapshot_arrays(ds):
    """The arrays save_dataset writes for ds, by archive key."""
    return {
        "images": ds.images,
        "labels": ds.labels,
        "captions": ds.captions,
        "class_names": np.array(ds.class_names, dtype=str),
    }


def _npy_bytes(array):
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def _npz_bytes(arrays):
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def _write_npz(path, arrays):
    path.write_bytes(_npz_bytes(arrays))
    return path


def _object_images(arrays):
    images = arrays["images"].astype(object)
    images[0, 1] = None
    return {**arrays, "images": images}


class TestSerialization:
    def test_array_roundtrip(self, tmp_path):
        ds = _tiny_dataset()
        path = tmp_path / "ds.npz"
        save_dataset(ds, path)
        with np.load(path, allow_pickle=False) as archive:
            stored = {key: archive[key] for key in archive.files}
        assert list(stored) == ["images", "labels", "captions", "class_names"]
        assert [stored[k].dtype.str for k in stored] == ["<f8", "|b1", "<f8", "<U8"]
        with zipfile.ZipFile(path) as archive:
            assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_STORED}
        back = load_dataset(path)
        for key in ("images", "labels", "captions"):
            assert getattr(back, key).dtype == getattr(ds, key).dtype
            assert getattr(back, key).tobytes() == getattr(ds, key).tobytes()
        assert back.class_names == ds.class_names
        assert all(type(name) is str for name in back.class_names)

    def test_file_roundtrip_byte_identical(self, tmp_path):
        ds = _tiny_dataset()
        p1 = tmp_path / "a.npz"
        p2 = tmp_path / "b.npz"
        save_dataset(ds, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_two_saves_give_identical_bytes(self, tmp_path, monkeypatch):
        ds = _tiny_dataset()
        save_dataset(ds, tmp_path / "a.npz")
        # a zip entry stamped with the current time would differ a day later
        monkeypatch.setattr(time, "time", lambda: time.mktime((2031, 5, 6, 7, 8, 9, 0, 0, -1)))
        save_dataset(ds, tmp_path / "b.npz")
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    def test_writes_exactly_the_given_path(self, tmp_path):
        save_dataset(_tiny_dataset(), tmp_path / "ds.json")
        assert [p.name for p in tmp_path.iterdir()] == ["ds.json"]
        assert load_dataset(tmp_path / "ds.json").num_samples == 6

    def test_integer_labels_load_as_bool(self, tmp_path):
        # older snapshots hold labels as int64, in Fortran order
        arrays = _snapshot_arrays(_tiny_dataset())
        for dtype in (np.int64, np.uint8):
            labels = np.asfortranarray(arrays["labels"].astype(dtype))
            assert not labels.flags.c_contiguous
            path = _write_npz(tmp_path / f"{dtype.__name__}.npz", {**arrays, "labels": labels})
            back = load_dataset(path)
            assert back.labels.dtype == bool
            assert back.labels.flags.c_contiguous
            assert np.array_equal(back.labels, arrays["labels"])

    # each sample is one row of images, labels and captions
    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda a: {k: v for k, v in a.items() if k != "labels"},
            lambda a: {**a, "images": a["images"][:, :-1]},
            lambda a: {**a, "labels": np.hstack([a["labels"], a["labels"][:, :1]])},
            lambda a: {**a, "captions": a["captions"].astype(str)},
            _object_images,
            lambda a: {**a, "labels": a["labels"].astype(str)},
            lambda a: {**a, "images": a["images"][0]},  # one row where the matrix goes
            lambda a: {**a, "images": a["images"][None]},
            lambda a: {**a, "labels": a["labels"].astype(np.float64)},
            lambda a: {**a, "captions": a["captions"].astype(complex)},
        ],
        ids=[
            "missing-key",
            "ragged-image",
            "ragged-labels",
            "non-numeric-entry",
            "null-entry",
            "string-label",
            "row-not-object",
            "images-3d",
            "float-labels",
            "complex-captions",
        ],
    )
    def test_malformed_rows_raise_config_error(self, tmp_path, corrupt):
        path = _write_npz(tmp_path / "bad.npz", corrupt(_snapshot_arrays(_tiny_dataset())))
        with pytest.raises(ConfigError, match="dataset snapshot|labels shape|caption embeddings"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "names, message",
        [
            (np.arange(3), "class_names must be a 1-d unicode array, got 1-d int64"),
            (np.array([None] * 3, dtype=object), "Object arrays cannot be loaded"),
            (np.array("abc"), "class_names must be a 1-d unicode array, got 0-d <U3"),
        ],
        ids=["int", "null", "string"],
    )
    def test_class_names_must_be_a_list(self, tmp_path, names, message):
        arrays = {**_snapshot_arrays(_tiny_dataset()), "class_names": names}
        with pytest.raises(ConfigError, match=message):
            load_dataset(_write_npz(tmp_path / "bad.npz", arrays))

    def test_labels_must_match_the_class_names(self, tmp_path):
        arrays = _snapshot_arrays(_tiny_dataset())
        arrays["class_names"] = arrays["class_names"][:2]
        with pytest.raises(ConfigError, match=r"labels shape \(6, 3\) does not match 6 samples x 2"):
            load_dataset(_write_npz(tmp_path / "bad.npz", arrays))

    def test_corrupt_header_rejected(self, tmp_path):
        # a member whose .npy header does not parse
        good = _write_npz(tmp_path / "good.npz", _snapshot_arrays(_tiny_dataset()))
        path = tmp_path / "bad.npz"
        with zipfile.ZipFile(good) as src, zipfile.ZipFile(path, "w") as dst:
            for name in src.namelist():
                data = src.read(name)
                if name == "labels.npy":
                    data = data.replace(b"'shape': (6, 3)", b"'shape': (6, 3 ")
                dst.writestr(name, data)
        with pytest.raises(ConfigError, match="not a readable .npz archive"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"", "is not an .npz archive"),
            (b"images,labels\n", "is not an .npz archive"),
            (pickle.dumps(_snapshot_arrays(_tiny_dataset())), "is not an .npz archive"),
            (b"PK\x03\x04 cut short", "File is not a zip file"),
            (_npy_bytes(np.zeros((6, 8))), "is not an .npz archive"),
            (
                _npz_bytes({**_snapshot_arrays(_tiny_dataset()), "extra": np.ones(2)}),
                r"holds arrays \['captions', 'class_names', 'extra', 'images', 'labels'\]",
            ),
            (
                _npz_bytes({"images": np.zeros(2), "labels": np.zeros(2), "captions": np.zeros(2)}),
                r"expected \['images', 'labels', 'captions', 'class_names'\]",
            ),
            (None, "cannot read dataset snapshot .*: No such file or directory"),
        ],
        ids=[
            "empty",
            "text",
            "pickle",
            "truncated-zip",
            "bare-npy",
            "extra-key",
            "missing-class-names",
            "missing-file",
        ],
    )
    def test_unreadable_file_raises_config_error(self, tmp_path, content, message):
        path = tmp_path / "bad.npz"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ConfigError, match=message):
            load_dataset(path)

    def test_member_that_is_not_an_array(self, tmp_path):
        good = _write_npz(tmp_path / "good.npz", _snapshot_arrays(_tiny_dataset()))
        path = tmp_path / "bad.npz"
        with zipfile.ZipFile(good) as src, zipfile.ZipFile(path, "w") as dst:
            for name in src.namelist():
                if name == "class_names.npy":
                    dst.writestr("class_names", b"class_00,class_01,class_02")
                else:
                    dst.writestr(name, src.read(name))
        with pytest.raises(ConfigError, match="class_names must be a 1-d unicode array, got 0-d \\|S26"):
            load_dataset(path)

    def test_json_snapshot_names_the_fix(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(json.dumps({"dim": 8, "num_classes": 3, "class_names": [], "samples": []}))
        with pytest.raises(ConfigError) as info:
            load_dataset(path)
        assert str(path) in str(info.value)
        assert "JSON" in str(info.value) and "tailprompt synth" in str(info.value)
