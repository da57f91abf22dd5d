"""An epoch record is computed in one pass: one encoding of the prompts, and
each (N, C) matrix built once for both of its readers (the scores for the
classification part's value and the ranking, the distances for the
embedding part's value and mean_positive_delta).

Every logged value must equal, with ==, what separate calls give: the
epoch-0 loss total_loss(need_grad=False), the alignment diagnostic one
whole-array gather of the positive distances, and each AP a ranking of its
own product of the scores. The split has 201 classes, a width at which a
row block of a product computed alone can give other bits than the same
rows of the whole product (OpenBLAS on AVX-512), over rows enough for the
value passes to run in three row blocks.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

import tailprompt.synth as synth
from tailprompt.data_model import ClassStats, MultiLabelDataset, row_blocks
from tailprompt.encoders import encode_all
from tailprompt.losses import LossConfig, Objective, cls_loss_on_logits, total_loss
from tailprompt.metrics import average_precision
from tailprompt.synth import SynthConfig
from tailprompt.train import PromptSpec, TrainConfig, build_training_state, train

# the package re-exports train() under the submodule's name
train_mod = importlib.import_module("tailprompt.train")

N, C, D = 700, 201, 24
TAU = 0.7


@pytest.fixture(scope="module")
def dataset():
    ds = synth.generate(SynthConfig(num_samples=N, num_classes=C, dim=D, seed=12))
    assert len(row_blocks(N, C)) == 3
    return ds


def _layout(ds: MultiLabelDataset, layout: str) -> MultiLabelDataset:
    """ds rebuilt from copies of its arrays in the given layout; the dataset
    stores them C-ordered either way."""
    names = ("images", "labels", "captions")
    arrays = [np.asarray(getattr(ds, name), order=layout) for name in names]
    built = MultiLabelDataset(*arrays, ds.class_names)
    assert all(getattr(built, name).flags.c_contiguous for name in names)
    return built


def _assert_ranked_separately(result, scores, labels):
    """Every AP of result equals one ranking of its column of scores."""
    want = [average_precision(scores[:, i], labels[:, i]) for i in range(labels.shape[1])]
    assert np.array_equal(result.per_class_ap, want)
    assert result.excluded == ()


def _assert_prompt_record(record, ds, embeddings, tau):
    scores = ds.images @ embeddings.T / tau
    distances = 1.0 - ds.captions @ embeddings.T
    assert record.mean_pos_delta == float(distances[ds.labels].mean())
    _assert_ranked_separately(record.eval, scores, ds.labels)


def _check_prompt_run(ds: MultiLabelDataset, config: TrainConfig):
    stats, encoder, prompts = build_training_state(ds, config)
    want = total_loss(ds, prompts, encoder, stats, config.loss, config.tau, need_grad=False)
    initial_embeddings = encode_all(encoder, prompts).embeddings

    record = train(ds, config)
    assert not record.failed
    first = record.initial
    assert (first.loss_total, first.loss_cls, first.loss_cse) == (
        want.total,
        want.cls_part,
        want.cse_part,
    )
    _assert_prompt_record(first, ds, initial_embeddings, config.tau)
    # the last epoch is measured on the trained prompts the record holds
    final_embeddings = encode_all(record.encoder, record.prompts).embeddings
    _assert_prompt_record(record.history[-1], ds, final_embeddings, config.tau)
    return record


class TestPromptEpochPass:
    @pytest.mark.parametrize("use_cse", [True, False], ids=["cse", "no-cse"])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("kind", ["db", "bce", "focal"])
    def test_equals_separate_calls(self, dataset, kind, lam, use_cse):
        loss = LossConfig(cls_loss_kind=kind, cls_loss_weight=lam, use_embedding_loss=use_cse)
        record = _check_prompt_run(dataset, TrainConfig(epochs=1, tau=TAU, loss=loss))
        # a part the blend skips is logged as 0.0, the diagnostic still read
        if lam == 0.0:
            assert record.initial.loss_cls == 0.0
        if lam == 1.0 or not use_cse:
            assert record.initial.loss_cse == 0.0
        assert record.initial.mean_pos_delta > 0.0

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("mode", ["class_specific", "shared"])
    def test_prompt_modes_and_layouts(self, dataset, mode, layout):
        ds = _layout(dataset, layout)
        config = TrainConfig(epochs=2, tau=TAU, prompt=PromptSpec(mode=mode, num_context_tokens=3))
        _check_prompt_run(ds, config)


    def test_each_matrix_is_one_whole_product_read_twice(self, dataset, monkeypatch):
        """The ranking gets the very scores the classification part got, and
        mean_positive_delta the distances of the embedding part, each equal
        to the whole product. Here a row-block product differs in a few
        entries, too few to move any logged value."""
        seen = {}

        def spy(owner, name, at):
            """Record the argument at position at of each owner.name call."""
            real = getattr(owner, name)

            def record(*args, **kwargs):
                seen[name] = args[at]
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, record)

        for name in ("evaluate", "mean_positive_delta"):
            spy(train_mod, name, 0)
        for name in ("classification", "embedding"):
            spy(Objective, name, 1)  # args[0] is the Objective
        config = TrainConfig(tau=TAU)
        stats, encoder, prompts = build_training_state(dataset, config)
        train_mod._PromptHead(prompts, encoder, stats, config).measure(dataset, with_loss=True)

        embeddings = encode_all(encoder, prompts).embeddings
        assert seen["evaluate"] is seen["classification"]
        assert np.array_equal(seen["evaluate"], dataset.images @ embeddings.T / TAU)
        assert seen["mean_positive_delta"] is seen["embedding"]
        assert np.array_equal(seen["mean_positive_delta"], 1.0 - dataset.captions @ embeddings.T)


class TestProbeEpochPass:
    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("kind", ["db", "bce", "focal"])
    def test_equals_separate_calls(self, dataset, kind, layout):
        ds = _layout(dataset, layout)
        loss = LossConfig(cls_loss_kind=kind)
        config = TrainConfig(epochs=1, tau=TAU, baseline="linear_probe", loss=loss)
        stats = ClassStats.from_dataset(ds, config.head_min, config.tail_max)

        record = train(ds, config)
        assert not record.failed
        initial = ds.images @ np.zeros((C, D)).T / TAU + np.zeros(C)
        want = cls_loss_on_logits(initial, ds.labels, stats, loss, need_grad=False)
        first = record.initial
        assert (first.loss_total, first.loss_cls, first.loss_cse) == (want.total, want.total, 0.0)
        assert first.mean_pos_delta is None
        _assert_ranked_separately(first.eval, initial, ds.labels)

        final = ds.images @ record.probe_weights.T / TAU + record.probe_bias
        _assert_ranked_separately(record.history[-1].eval, final, ds.labels)
