"""Value-only passes over a whole split run in row blocks (data_model.row_blocks).

Every blocked value must equal, with ==, what one whole-array pass gives:
the reference runs the same call with BLOCK_ENTRIES raised so far that every
input fits in one block, and for generation the earlier whole-array noise
draw in tests/oracles.py.
"""

from __future__ import annotations

import importlib
import tracemalloc

import numpy as np
import pytest

import tailprompt.synth as synth
from tailprompt import data_model, losses
from tailprompt.data_model import Batch, ClassStats, MultiLabelDataset, block_rows, row_blocks
from tailprompt.encoders import encode_all
from tailprompt.errors import ConfigError
from tailprompt.losses import (
    LossConfig,
    cls_loss_on_logits,
    cosine_distances,
    mean_positive_delta,
    total_loss,
)
from tailprompt.synth import SynthConfig
from tailprompt.train import PromptSpec, TrainConfig, build_training_state, train, write_run_dir

from oracles import noisy_unit_whole

# the package re-exports train() under the submodule's name
train_mod = importlib.import_module("tailprompt.train")

# 1000 rows of 200 classes: blocks of 327 rows and a ragged last block of 19
N, C, D = 1000, 200, 32
# 3 * 327 + 1 rows: the last block is one row
N_ONE_ROW_TAIL = 982


@pytest.fixture
def whole(monkeypatch):
    """Run a call as one whole-array pass, whatever its size."""

    def run(fn, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(data_model, "BLOCK_ENTRIES", 2**62)
            return fn(*args, **kwargs)

    return run


@pytest.fixture(scope="module")
def dataset():
    return synth.generate(SynthConfig(num_samples=N, num_classes=C, dim=D, seed=4))


def _fortran(ds: MultiLabelDataset, labels_dtype=bool) -> MultiLabelDataset:
    """ds rebuilt from Fortran-order copies of its arrays."""
    labels = np.asfortranarray(ds.labels.astype(labels_dtype))
    images, captions = np.asfortranarray(ds.images), np.asfortranarray(ds.captions)
    return MultiLabelDataset(images, labels, captions, ds.class_names)


def _values(report):
    return report.total, report.cls_part, report.cse_part


class TestRowBlocks:
    @pytest.mark.parametrize("num_rows", [1, 2, 326, 327, 328, 653, 654, 655, 982, 1000])
    def test_blocks_cover_the_rows_in_order(self, num_rows):
        blocks = row_blocks(num_rows, C)
        assert blocks[0].start == 0 and blocks[-1].stop == num_rows
        for before, after in zip(blocks, blocks[1:]):
            assert before.stop == after.start
        sizes = [block.stop - block.start for block in blocks]
        assert all(size == block_rows(C) for size in sizes[:-1])
        assert 1 <= sizes[-1] <= block_rows(C)

    def test_block_size_follows_the_width(self):
        assert block_rows(200) == 327
        assert block_rows(256) == 256
        assert block_rows(20) == 3276
        assert block_rows(2**20) == 1
        assert [b.stop for b in row_blocks(N, C)] == [327, 654, 981, 1000]
        assert [b.stop for b in row_blocks(N_ONE_ROW_TAIL, C)] == [327, 654, 981, 982]
        assert row_blocks(3, 2**20) == [slice(0, 1), slice(1, 2), slice(2, 3)]
        assert row_blocks(2000, 20) == [slice(0, 2000)]


class TestTotalLossInBlocks:
    """total_loss(need_grad=False) at 1000 x 200, in four blocks."""

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("kind", ["db", "bce", "focal"])
    def test_equals_whole_array_pass(self, dataset, whole, kind, lam):
        stats, enc, prompts = build_training_state(dataset, TrainConfig())
        cfg = LossConfig(cls_loss_kind=kind, cls_loss_weight=lam)
        got = total_loss(dataset, prompts, enc, stats, cfg, tau=0.7, need_grad=False)
        want = whole(total_loss, dataset, prompts, enc, stats, cfg, tau=0.7, need_grad=False)
        assert _values(got) == _values(want)
        # the gradient path never runs in blocks, and reports the same values
        graded = total_loss(dataset, prompts, enc, stats, cfg, tau=0.7, need_grad=True)
        assert _values(graded) == _values(want)

    def test_blocks_are_rows_of_one_whole_product(self, monkeypatch):
        """With some BLAS kernels (OpenBLAS on AVX-512, for one), a row block
        of images multiplied alone by 201 prompt embeddings gives other bits
        than the same rows of the whole product. So each part's scores are
        one whole product, and only the elementwise work runs in blocks."""
        ds = synth.generate(SynthConfig(num_samples=N, num_classes=201, dim=D, seed=5))
        stats, enc, prompts = build_training_state(ds, TrainConfig())
        seen = {"_cls_parts": [], "_cse_parts": []}

        def spy(part, blocks):
            def record(scores, *rest):
                blocks.append(scores.copy())
                return part(scores, *rest)

            return record

        for name, blocks in seen.items():
            monkeypatch.setattr(losses, name, spy(getattr(losses, name), blocks))
        total_loss(ds, prompts, enc, stats, LossConfig(), tau=0.7, need_grad=False)
        embeddings = encode_all(enc, prompts).embeddings
        assert [len(blocks) for blocks in seen.values()] == [4, 4]
        assert np.array_equal(np.concatenate(seen["_cls_parts"]), ds.images @ embeddings.T / 0.7)
        assert np.array_equal(np.concatenate(seen["_cse_parts"]), 1.0 - ds.captions @ embeddings.T)

    @pytest.mark.parametrize("bool_labels", [False, True], ids=["int-labels", "bool-labels"])
    @pytest.mark.parametrize("kind", ["db", "bce"])
    def test_fortran_images_and_labels(self, dataset, whole, kind, bool_labels):
        """A dataset built from Fortran-order arrays holds them C-ordered, so
        its blocked values are those of the C-order dataset's whole pass."""
        ds = _fortran(dataset, bool if bool_labels else np.int64)
        assert ds.images.flags.c_contiguous and ds.labels.flags.c_contiguous
        stats, enc, prompts = build_training_state(ds, TrainConfig())
        cfg = LossConfig(cls_loss_kind=kind)
        got = total_loss(ds, prompts, enc, stats, cfg, tau=0.7, need_grad=False)
        want = whole(total_loss, dataset, prompts, enc, stats, cfg, tau=0.7, need_grad=False)
        assert _values(got) == _values(want)

    @pytest.mark.parametrize(
        "labels_dtype, order",
        [(np.int64, "C"), (np.uint8, "C"), (bool, "C"), (np.int64, "F")],
        ids=["int64", "uint8", "bool", "int64-F"],
    )
    @pytest.mark.parametrize("kind", ["db", "bce", "focal"])
    def test_labels_in_a_batch(self, dataset, whole, monkeypatch, kind, labels_dtype, order):
        """A Batch keeps the labels it is given, so its blocked values come
        from integer labels as well as bool, and from Fortran-order labels:
        each equals the dataset's whole pass. The classification gradient
        w.r.t. the scores is C-ordered whatever the labels' layout, and the
        gradient equals the dataset's."""
        stats, enc, prompts = build_training_state(dataset, TrainConfig())
        labels = np.asarray(dataset.labels.astype(labels_dtype), order=order)
        batch = Batch(dataset.images, labels, dataset.captions)
        assert batch.labels.dtype == labels_dtype
        assert batch.labels.flags.f_contiguous == (order == "F")
        cfg = LossConfig(cls_loss_kind=kind)
        got = total_loss(batch, prompts, enc, stats, cfg, tau=0.7, need_grad=False)
        want = whole(total_loss, dataset, prompts, enc, stats, cfg, tau=0.7, need_grad=False)
        assert _values(got) == _values(want)

        cls_parts, grads_z = losses._cls_parts, []

        def spy(*args):
            terms, grad_z = cls_parts(*args)
            grads_z.append(grad_z)
            return terms, grad_z

        monkeypatch.setattr(losses, "_cls_parts", spy)
        graded = total_loss(batch, prompts, enc, stats, cfg, tau=0.7)
        assert [g.flags.c_contiguous for g in grads_z] == [True]
        want = total_loss(dataset, prompts, enc, stats, cfg, tau=0.7)
        assert _values(graded) == _values(want)
        assert graded.gradient.tobytes() == want.gradient.tobytes()


class TestLogitsInBlocks:
    """cls_loss_on_logits on a whole split's logits, as the linear probe's
    epoch-0 pass calls it."""

    @pytest.mark.parametrize("rows", [N, N_ONE_ROW_TAIL], ids=["ragged-tail", "one-row-tail"])
    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("kind", ["db", "bce", "focal"])
    def test_equals_whole_array_pass(self, dataset, whole, kind, layout, rows):
        rng = np.random.default_rng(5)
        z = np.asarray(rng.uniform(-4.0, 4.0, size=(rows, C)), order=layout)
        labels = np.asarray(dataset.labels[:rows], order=layout)
        if layout == "C":
            labels = labels.astype(np.int64)
        stats = ClassStats.from_dataset(dataset)
        cfg = LossConfig(cls_loss_kind=kind)
        got = cls_loss_on_logits(z, labels, stats, cfg, need_grad=False)
        want = whole(cls_loss_on_logits, z, labels, stats, cfg, need_grad=False)
        assert got.total == want.total == cls_loss_on_logits(z, labels, stats, cfg).total

    @pytest.mark.parametrize("kind", ["db", "bce"])
    def test_tail_row_keeps_its_summation_order(self, dataset, whole, kind):
        """The last block is one row. The kernels' terms are C-ordered
        whatever the layout of the logits and labels, so that row is summed
        in the order the whole array sums it. Every row but the last scores
        its labels confidently here, so the last row's terms decide the
        value's bits."""
        labels = np.asfortranarray(dataset.labels[:N_ONE_ROW_TAIL])
        z = np.asfortranarray(np.where(labels == 1, 40.0, -40.0))
        z[-1] = np.random.default_rng(6).uniform(-4.0, 4.0, size=C)
        stats = ClassStats.from_dataset(dataset)
        cfg = LossConfig(cls_loss_kind=kind)
        got = cls_loss_on_logits(z, labels, stats, cfg, need_grad=False)
        assert got.total == whole(cls_loss_on_logits, z, labels, stats, cfg, need_grad=False).total

    @pytest.mark.parametrize("kind", ["db", "focal"])
    def test_linear_probe_epoch_zero(self, dataset, whole, kind):
        config = TrainConfig(epochs=1, baseline="linear_probe", loss=LossConfig(cls_loss_kind=kind))
        got = train(dataset, config).initial
        want = whole(train, dataset, config).initial
        assert (got.loss_total, got.loss_cls) == (want.loss_total, want.loss_cls)


class TestMeanPositiveDeltaInBlocks:
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_equals_whole_array_pass(self, dataset, layout):
        # mean_positive_delta runs in no row blocks: its one gather must give
        # the plain whole-array mean of the positive distances, whatever the
        # labels' layout (a Batch may hold Fortran-order labels)
        stats, enc, prompts = build_training_state(dataset, TrainConfig())
        distances = cosine_distances(dataset.captions, encode_all(enc, prompts).embeddings)
        labels = np.asarray(dataset.labels, order=layout)
        assert labels.flags.f_contiguous == (layout == "F")
        got = mean_positive_delta(distances, labels)
        assert got == float(distances[dataset.labels == 1].mean())

    def test_no_positives_rejected(self, dataset):
        stats, enc, prompts = build_training_state(dataset, TrainConfig())
        distances = cosine_distances(dataset.captions, encode_all(enc, prompts).embeddings)
        with pytest.raises(ConfigError, match="no positive labels"):
            mean_positive_delta(distances, np.zeros_like(dataset.labels))


class TestGenerateInBlocks:
    # 1500 x 60 x 128: noise in blocks of 512 rows, the last of 476
    @pytest.mark.parametrize("caption_noise", [0.02, 0.0])
    def test_equals_whole_array_noise(self, monkeypatch, caption_noise):
        config = SynthConfig(
            num_samples=1500, num_classes=60, dim=128, seed=8, caption_noise_std=caption_noise
        )
        assert len(row_blocks(config.num_samples, config.dim)) == 3
        got = synth.generate(config)
        monkeypatch.setattr(synth, "_noisy_unit", noisy_unit_whole)
        want = synth.generate(config)
        for name in ("images", "labels", "captions"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.images.flags.c_contiguous and got.captions.flags.c_contiguous

    def test_unit_norm_checked_in_every_block(self):
        dataset = synth.generate(SynthConfig(num_samples=1500, num_classes=60, dim=128, seed=8))
        for name in ("images", "captions"):
            arrays = {key: getattr(dataset, key) for key in ("images", "labels", "captions")}
            bad = arrays[name].copy()
            bad[-1] *= 1.5  # in the last of three blocks
            arrays[name] = bad
            with pytest.raises(ConfigError, match=f"{name[:-1]} embeddings must have unit L2 norm"):
                MultiLabelDataset(**arrays, class_names=dataset.class_names)


def test_value_passes_hold_one_score_matrix_at_most():
    """At 20,000 x 200, the full-data loss, the alignment diagnostic and the
    epoch record's one pass (both, plus the ranking), for the prompts and for
    the linear probe, hold one (N, C) score matrix and less than 8 MB of
    other temporaries above their inputs. A whole-array pass holds about ten
    such matrices."""
    n, c, d = 20_000, 200, 16
    rng = np.random.default_rng(9)
    images = rng.standard_normal((n, d))
    captions = rng.standard_normal((n, d))
    images /= np.linalg.norm(images, axis=1, keepdims=True)
    captions /= np.linalg.norm(captions, axis=1, keepdims=True)
    labels = (rng.random((n, c)) < 0.05).astype(np.int64)
    labels[np.arange(n), rng.integers(c, size=n)] = 1  # every sample has a positive
    ds = MultiLabelDataset(images, labels, captions, tuple(f"c{i}" for i in range(c)))
    stats, enc, prompts = build_training_state(ds, TrainConfig())
    score_matrix = n * c * 8
    embeddings = encode_all(enc, prompts).embeddings
    head = train_mod._PromptHead(prompts, enc, stats, TrainConfig())
    probe_config = TrainConfig(baseline="linear_probe")
    probe = train_mod._ProbeHead(rng.standard_normal((c, d)), np.zeros(c), stats, probe_config)
    passes = {
        "total_loss": lambda: total_loss(ds, prompts, enc, stats, LossConfig(), need_grad=False),
        "mean_positive_delta": lambda: mean_positive_delta(
            cosine_distances(ds.captions, embeddings), ds.labels
        ),
        "epoch record": lambda: head.measure(ds, with_loss=True),
        "probe epoch record": lambda: probe.measure(ds, with_loss=True),
    }
    tracemalloc.start()
    try:
        for name, run in passes.items():
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            run()
            extra = tracemalloc.get_traced_memory()[1] - before
            assert extra < score_matrix + 8 * 2**20, f"{name}: {extra / 2**20:.1f} MB"
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "overrides",
    [{}, {"prompt": PromptSpec(mode="shared")}, {"baseline": "linear_probe"}],
    ids=["class-specific", "shared", "linear-probe"],
)
def test_run_dir_write_holds_less_than_its_largest_array(tmp_path, overrides):
    """write_run_dir lists the checkpoint's arrays one leading-axis row at a
    time. At the stress shape's 200 classes and dim 256 its traced peak
    above the record stays below the float64 bytes of the record's largest
    parameter array; a list copy of a whole array costs about four times
    those bytes."""
    ds = synth.generate(SynthConfig(num_classes=200, num_samples=400, dim=256, seed=5))
    record = train(ds, TrainConfig(epochs=1, batch_size=64, **overrides))
    if record.prompts is not None:
        params = record.prompts.contexts, record.prompts.class_tokens
    else:
        params = record.probe_weights, record.probe_bias
    largest = max(array.nbytes for array in params)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_run_dir(tmp_path / "run", record, {})
        extra = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert extra < largest, f"{extra / 2**10:.0f} KiB of {largest / 2**10:.0f} KiB"
