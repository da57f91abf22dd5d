import csv
import dataclasses
import functools
import hashlib
import importlib
import inspect
import json
import multiprocessing
import os
import struct
import warnings

import numpy as np
import pytest

# the package re-exports the train() function under the same name as the
# submodule, so fetch the module object explicitly for monkeypatching
train_mod = importlib.import_module("tailprompt.train")
from oracles import train_step_by_step
from tailprompt.data_model import ClassStats, MultiLabelDataset
from tailprompt.encoders import (
    MODE_CLASS_SPECIFIC,
    MODE_SHARED,
    FrozenTextEncoder,
    encode_all,
    init_prompt_set,
)
from tailprompt.errors import ConfigError, NumericsError, read_json
from tailprompt.losses import LossConfig, LossReport, Objective, class_scores, total_loss
from tailprompt.metrics import evaluate
from tailprompt.synth import SynthConfig, generate, make_prototypes
from tailprompt.train import (
    BASELINES,
    METRICS_COLUMNS,
    PromptSpec,
    RunRecord,
    TrainConfig,
    build_training_state,
    checkpoint_from_dict,
    checkpoint_to_dict,
    cosine_lr,
    run_record_to_dict,
    sgd_step,
    train,
    write_run_dir,
)


def _dataset(**overrides):
    base = dict(num_classes=4, num_samples=60, dim=16, seed=3)
    base.update(overrides)
    return generate(SynthConfig(**base))


def _config(**overrides):
    base = dict(epochs=3, lr0=0.05, batch_size=16, seed=1, head_min=15, tail_max=8)
    base.update(overrides)
    return TrainConfig(**base)


def _patch_head_loss(monkeypatch, baseline, corrupt):
    """Pass every loss the head's training evaluates through
    corrupt(report, need_grad), at the seam its step calls: the train
    module's objective_core for prompts (the one run's total, parts and
    gradient w.r.t. the prompt embeddings, as a LossReport),
    Objective.classification for the linear probe (its value as total and
    cls part, and its gradient w.r.t. the logits)."""
    if baseline != "none":
        real = Objective.classification

        def classification(objective, scores, labels, need_grad):
            (value,), gradient = real(objective, scores, labels, need_grad)
            report = corrupt(LossReport(value, value, 0.0, gradient), need_grad)
            return [report.total], report.gradient

        monkeypatch.setattr(Objective, "classification", classification)
        return
    real = train_mod.objective_core
    signature = inspect.signature(real)

    def wrapped(*args, **kwargs):
        need_grad = signature.bind(*args, **kwargs).arguments["need_grad"]
        (total,), (cls_value,), (cse_value,), gradient = real(*args, **kwargs)
        report = corrupt(LossReport(total, cls_value, cse_value, gradient), need_grad)
        return [report.total], [report.cls_part], [report.cse_part], report.gradient

    monkeypatch.setattr(train_mod, "objective_core", wrapped)


def _record_updates(monkeypatch) -> list:
    """(id, copy) of the parameter array after every update the train
    module's sgd_step completes, in order."""
    updates = []
    real = train_mod.sgd_step

    def recording(params, gradient, lr):
        out = real(params, gradient, lr)
        updates.append((id(params), params.copy()))
        return out

    monkeypatch.setattr(train_mod, "sgd_step", recording)
    return updates


def _assert_abort_wrote_nothing(record, ds, config, updates, done):
    """done updates had completed when the aborting step evaluated its loss.
    None completed after that, and each of the record's parameter arrays is
    bit-identical to its copy after its last update, or to its initial
    value if it had none."""
    assert len(updates) == done
    if config.baseline == "none":
        initial = {"contexts": build_training_state(ds, config)[2].contexts}
        final = {"contexts": record.prompts.contexts}
    else:
        final = {"weights": record.probe_weights, "bias": record.probe_bias}
        initial = {name: np.zeros_like(params) for name, params in final.items()}
    for name, params in final.items():
        copies = [copy for key, copy in updates if key == id(params)]
        assert np.array_equal(params, copies[-1] if copies else initial[name]), name


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


class TestSchedule:
    def test_endpoints(self):
        assert cosine_lr(0, 10, 0.4) == 0.4
        assert cosine_lr(5, 10, 0.4) == pytest.approx(0.2, abs=1e-15)

    def test_monotone_decreasing(self):
        values = [cosine_lr(t, 30, 1.0) for t in range(30)]
        assert (np.diff(values) < 0).all()
        assert values[-1] > 0.0

    def test_out_of_range_step(self):
        with pytest.raises(ConfigError, match="invalid step"):
            cosine_lr(10, 10, 0.4)
        with pytest.raises(ConfigError, match="invalid step"):
            cosine_lr(-1, 10, 0.4)

    def test_bad_lr0(self):
        with pytest.raises(ConfigError):
            cosine_lr(0, 10, 0.0)


class TestSgdStep:
    def test_quadratic_contraction(self):
        # p <- p - 0.4 * 2p contracts by 0.2 per step
        p = np.array([1.0])
        for _ in range(10):
            sgd_step(p, 2.0 * p, 0.4)
        assert p[0] == pytest.approx(1.024e-7, rel=1e-12)

    def test_in_place(self):
        p = np.ones(3)
        out = sgd_step(p, np.ones(3), 0.25)
        assert out is p
        assert np.allclose(p, 0.75)

    def test_zero_lr_and_zero_grad(self):
        p = np.array([2.0, -1.0])
        sgd_step(p, np.array([5.0, 5.0]), 0.0)
        assert np.array_equal(p, [2.0, -1.0])
        sgd_step(p, np.zeros(2), 3.0)
        assert np.array_equal(p, [2.0, -1.0])

    def test_non_finite_gradient_rejected(self):
        with pytest.raises(NumericsError, match="non-finite gradient"):
            sgd_step(np.ones(2), np.array([1.0, np.nan]), 0.1)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            sgd_step(np.ones(2), np.ones(3), 0.1)

    @pytest.mark.parametrize("mode", ["class_specific", "shared"])
    def test_pooled_gradient_steps_like_the_repeated_one(self, mode):
        # 50 steps from one start, one run applying the pooled (C or 1, 1, d)
        # gradient and one its full-shape copy: every context keeps equal bits
        ds = _dataset()
        config = _config(prompt=PromptSpec(mode=mode, num_context_tokens=3, init_std=0.3))
        stats, encoder, pooled = build_training_state(ds, config)
        _, _, repeated = build_training_state(ds, config)
        rng = np.random.default_rng(8)
        for step in range(50):
            batch = ds.batch(rng.choice(ds.num_samples, size=16, replace=False))
            lr = cosine_lr(step, 50, 0.5)
            g = total_loss(batch, pooled, encoder, stats, config.loss).gradient
            assert g.shape == (pooled.contexts.shape[0], 1, pooled.token_dim)
            sgd_step(pooled.contexts, g, lr)
            g = total_loss(batch, repeated, encoder, stats, config.loss).gradient
            sgd_step(repeated.contexts, np.broadcast_to(g, repeated.contexts.shape).copy(), lr)
        assert np.array_equal(pooled.contexts, repeated.contexts)
        assert not np.array_equal(pooled.contexts[:, 0], pooled.contexts[:, 1])

    @pytest.mark.parametrize(
        "shape", [(4, 4, 16), (3, 1, 16), (4, 1, 17), (1, 1)], ids=["M+1", "C-1", "d+1", "2-d"]
    )
    def test_gradient_must_broadcast_along_unit_axes(self, shape):
        params = np.zeros((4, 3, 16))
        with pytest.raises(ConfigError, match="does not match parameters"):
            sgd_step(params, np.ones(shape), 0.1)
        assert not params.any()

    def test_non_finite_pooled_gradient_rejected(self):
        params = np.zeros((4, 3, 16))
        gradient = np.ones((4, 1, 16))
        gradient[2, 0, 5] = np.nan
        with pytest.raises(NumericsError, match="non-finite gradient"):
            sgd_step(params, gradient, 0.1)
        assert not params.any()


class TestConfigValidation:
    def test_defaults_valid(self):
        TrainConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(epochs=0),
            dict(lr0=0.0),
            dict(batch_size=0),
            dict(eval_every=0),
            dict(tau=0.0),
            dict(baseline="mlp"),
            dict(head_min=5, tail_max=9),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_prompt_spec_rejects(self):
        with pytest.raises(ConfigError):
            PromptSpec(mode="global")
        with pytest.raises(ConfigError):
            PromptSpec(num_context_tokens=0)
        with pytest.raises(ConfigError):
            PromptSpec(init="zeros")


class TestOptimizerAtMinimum:
    def test_exact_minimum_is_stationary(self):
        # captions on their positive prompts, negatives strictly inside the
        # satisfied hinge: repeated full-batch steps must not move the
        # contexts by more than float noise
        d = 8
        enc = FrozenTextEncoder(np.eye(d))
        prompts = init_prompt_set(2, d, num_context_tokens=1, init_std=0.4, init_seed=21)
        emb = encode_all(enc, prompts).embeddings
        assert abs(float(emb[0] @ emb[1])) < 0.9  # prompts are distinct
        from tailprompt.data_model import Batch, ClassStats, group_classes

        batch = Batch(emb.copy(), np.eye(2, dtype=np.int64), emb.copy())
        counts = np.array([400, 400])
        stats = ClassStats(counts, group_classes(counts, 100, 20), 800)
        cfg = LossConfig(cls_loss_weight=0.0)
        start = prompts.contexts.copy()
        for _ in range(5):
            report = total_loss(batch, prompts, enc, stats, cfg)
            sgd_step(prompts.contexts, report.gradient, 0.1)
        assert np.abs(prompts.contexts - start).max() < 1e-12


class TestTrainLoop:
    def test_record_shape_and_cadence(self):
        ds = _dataset()
        record = train(ds, _config(epochs=7, eval_every=3))
        assert not record.failed
        assert record.epochs_completed == 7
        assert record.initial.epoch == 0
        assert record.initial.eval is not None
        assert record.initial.mean_pos_delta is not None
        evaluated = [r.epoch for r in record.history if r.eval is not None]
        assert evaluated == [3, 6, 7]
        for r in record.history:
            assert (r.mean_pos_delta is not None) == (r.eval is not None)
        assert record.final_eval is record.history[-1].eval
        assert record.abort_reason is None

    def test_lr_follows_schedule(self):
        record = train(_dataset(), _config(epochs=4, lr0=0.2))
        for r in record.history:
            assert r.lr == cosine_lr(r.epoch - 1, 4, 0.2)
        assert record.initial.lr == 0.2

    def test_deterministic_rerun(self):
        ds = _dataset()
        cfg = _config(epochs=3)
        a = train(ds, cfg)
        b = train(ds, cfg)
        assert np.array_equal(a.prompts.contexts, b.prompts.contexts)
        da = run_record_to_dict(a)
        db = run_record_to_dict(b)
        da.pop("wall_seconds")
        db.pop("wall_seconds")
        assert da == db

    def test_seed_changes_run(self):
        ds = _dataset()
        a = train(ds, _config(seed=1))
        b = train(ds, _config(seed=2))
        assert not np.array_equal(a.prompts.contexts, b.prompts.contexts)

    def test_loss_descends_smooth_objective(self):
        # pure classification loss is smooth; for a small enough step the
        # first update must reduce the full-batch loss
        ds = _dataset()
        lr = 1e-2
        for _ in range(20):
            cfg = _config(
                epochs=2,
                lr0=lr,
                batch_size=ds.num_samples,
                loss=LossConfig(cls_loss_weight=1.0),
            )
            record = train(ds, cfg)
            # epoch 2's logged loss is evaluated after exactly one update
            if record.history[-1].loss_total < record.initial.loss_total:
                return
            lr *= 0.5
        pytest.fail("no halved step length reduced the smooth loss")

    def test_embedding_objective_pulls_captions_in(self):
        ds = _dataset()
        cfg = _config(epochs=5, lr0=0.5, loss=LossConfig(cls_loss_weight=0.0))
        record = train(ds, cfg)
        assert record.history[-1].mean_pos_delta < record.initial.mean_pos_delta

    def test_frozen_parameters_untouched(self):
        ds = _dataset()
        before = {
            "images": _sha(ds.images),
            "labels": _sha(ds.labels),
            "captions": _sha(ds.captions),
        }
        stats, encoder, prompts = build_training_state(ds, _config())
        proj_before = _sha(encoder.projection)
        tokens_before = _sha(prompts.class_tokens)
        record = train(ds, _config())
        assert _sha(ds.images) == before["images"]
        assert _sha(ds.labels) == before["labels"]
        assert _sha(ds.captions) == before["captions"]
        # the run builds identical state from the same seeds
        assert _sha(record.encoder.projection) == proj_before
        assert _sha(record.prompts.class_tokens) == tokens_before

    @pytest.mark.parametrize("baseline", BASELINES)
    def test_abort_on_non_finite_loss(self, monkeypatch, baseline):
        """Four steps an epoch: the loss of epoch 3's second step is NaN.
        The run keeps epochs 1 and 2, and its final evaluation is epoch 2's,
        the last one it made; failed follows abort_reason."""
        ds = _dataset()
        updates = _record_updates(monkeypatch)
        calls = {"n": 0}

        def corrupt(report, need_grad):
            calls["n"] += need_grad
            if calls["n"] == 10 and need_grad:
                calls["done"] = len(updates)
                return LossReport(float("nan"), report.cls_part, report.cse_part, report.gradient)
            return report

        _patch_head_loss(monkeypatch, baseline, corrupt)
        config = _config(epochs=4, eval_every=2, baseline=baseline)
        record = train(ds, config)
        assert record.failed
        assert record.abort_reason == "abort run: non-finite loss at epoch 3"
        assert record.epochs_completed == 2
        assert record.history[0].eval is None
        assert record.final_eval is record.history[1].eval is not None
        assert not dataclasses.replace(record, abort_reason=None).failed
        assert calls["done"] > 0  # the steps before it updated
        _assert_abort_wrote_nothing(record, ds, config, updates, calls["done"])

    # the prompt head's corrupted gradient is w.r.t. the embeddings, and its
    # inf meets an -inf in encode_backward's tangent projection
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("baseline", BASELINES)
    def test_abort_on_non_finite_gradient(self, monkeypatch, baseline):
        ds = _dataset()
        updates = _record_updates(monkeypatch)

        def corrupt(report, need_grad):
            if need_grad:
                bad = report.gradient.copy()
                bad[0] = np.inf
                return LossReport(report.total, report.cls_part, report.cse_part, bad)
            return report

        _patch_head_loss(monkeypatch, baseline, corrupt)
        config = _config(epochs=2, baseline=baseline)
        record = train(ds, config)
        assert record.failed
        assert "non-finite gradient" in record.abort_reason
        assert record.epochs_completed == 0
        _assert_abort_wrote_nothing(record, ds, config, updates, 0)

    @pytest.mark.parametrize("baseline", BASELINES)
    def test_abort_on_non_finite_epoch_record(self, baseline):
        """At this step size an epoch's one step writes parameters that score
        as NaN, and the epoch record is the first to read them: the run
        aborts at that epoch, as it does on a non-finite loss."""
        ds = _dataset(num_samples=40)
        config = _config(epochs=2, lr0=1e308, batch_size=64, baseline=baseline)
        with pytest.warns(RuntimeWarning, match="invalid value encountered"):
            record = train(ds, config)
        assert record.failed
        assert record.abort_reason == "abort run: non-finite scores in the epoch record"
        assert record.epochs_completed == 0
        assert record.final_eval is record.initial.eval  # epoch-0 eval survives


def _fortran(ds: MultiLabelDataset, labels_dtype=bool) -> MultiLabelDataset:
    labels = ds.labels.astype(labels_dtype)
    arrays = [np.asfortranarray(a) for a in (ds.images, labels, ds.captions)]
    assert not any(a.flags.c_contiguous for a in arrays)
    return MultiLabelDataset(*arrays, ds.class_names)


_STEP_CASES = [
    *(
        pytest.param("class_specific", kind, lam, emb, id=f"{kind}-lam{lam}-emb{int(emb)}")
        for kind in ("db", "bce", "focal")
        for lam in (0.0, 0.5, 1.0)
        for emb in (True, False)
    ),
    *(
        pytest.param("shared", kind, 0.5, True, id=f"shared-{kind}")
        for kind in ("db", "bce", "focal")
    ),
]


class TestStepBitIdentity:
    """train()'s step, built once a run, trains to the bits of the loop it
    replaced: total_loss with a zero-filled gradient on dataset.batch, then
    sgd_step (oracles.train_step_by_step). 60 samples in batches of 16 end
    each epoch on a ragged batch."""

    @staticmethod
    def _assert_same_run(ds, config):
        record = train(ds, config)
        assert not record.failed
        contexts, records = train_step_by_step(ds, config)
        # bytes, not ==, so that a -0.0 where the reference has +0.0 fails
        assert np.array_equal(record.prompts.contexts, contexts)
        assert record.prompts.contexts.tobytes() == contexts.tobytes()
        got = [train_mod._epoch_to_dict(r) for r in (record.initial, *record.history)]
        assert got == [train_mod._epoch_to_dict(r) for r in records]
        assert len(got) == config.epochs + 1

    @pytest.mark.parametrize("mode, kind, lam, emb", _STEP_CASES)
    def test_three_epochs(self, mode, kind, lam, emb):
        loss = LossConfig(cls_loss_kind=kind, cls_loss_weight=lam, use_embedding_loss=emb)
        prompt = PromptSpec(mode=mode, num_context_tokens=3)
        self._assert_same_run(_dataset(), _config(lr0=2.0, tau=0.5, loss=loss, prompt=prompt))

    def test_no_active_part_leaves_the_contexts_as_they_were(self):
        # lam = 0 with the embedding loss off skips both parts: the gradient
        # is zero, and contexts drawn at init_std 0 hold -0.0 entries that a
        # -0.0 in the gradient would turn into +0.0
        loss = LossConfig(cls_loss_weight=0.0, use_embedding_loss=False)
        config = _config(lr0=2.0, loss=loss, prompt=PromptSpec(init_std=0.0))
        ds = _dataset()
        self._assert_same_run(ds, config)
        initial = build_training_state(ds, config)[2].contexts
        assert np.signbit(initial).any()
        assert train(ds, config).prompts.contexts.tobytes() == initial.tobytes()

    @pytest.mark.parametrize("kind", ["db", "bce", "focal", "linear-probe"])
    def test_fortran_order_dataset(self, kind):
        """A dataset built from Fortran-order arrays, with bool or integer
        labels, holds the C-order dataset's arrays, C-ordered, so it trains
        to every bit of the C-order dataset: epoch records and final
        parameters."""
        c_order = _dataset()
        fortran = _fortran(c_order)
        for built in (fortran, _fortran(c_order, np.int64)):
            for name in ("images", "labels", "captions"):
                got, want = getattr(built, name), getattr(c_order, name)
                assert got.flags.c_contiguous, name
                assert got.dtype == want.dtype and np.array_equal(got, want), name
        probe = kind == "linear-probe"
        loss = LossConfig(cls_loss_kind="db" if probe else kind)
        config = _config(lr0=2.0, loss=loss, baseline="linear_probe" if probe else "none")
        got, want = train(fortran, config), train(c_order, config)
        assert not got.failed and not want.failed
        records = [
            [train_mod._epoch_to_dict(r) for r in (run.initial, *run.history)] for run in (got, want)
        ]
        assert records[0] == records[1]
        if probe:
            params = [(run.probe_weights, run.probe_bias) for run in (got, want)]
        else:
            params = [(run.prompts.contexts,) for run in (got, want)]
        for mine, theirs in zip(*params):
            assert mine.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("kind", ["db", "bce"])
    def test_201_classes(self, kind):
        ds = _dataset(num_classes=201, num_samples=300, dim=16)
        config = _config(lr0=2.0, batch_size=64, loss=LossConfig(cls_loss_kind=kind))
        self._assert_same_run(ds, config)

    @pytest.mark.parametrize("baseline", BASELINES)
    def test_each_head_builds_its_objective_once(self, monkeypatch, baseline):
        """The epoch-0 record and every step of a run share one Objective,
        looked up before the first step: by the head, and for a prompt run
        once more by its stack of one."""
        calls, objectives = [], []
        real = train_mod.loss_objective

        def counting(stats, *configs):
            calls.append(configs)
            objectives.append(real(stats, *configs))
            return objectives[-1]

        monkeypatch.setattr(train_mod, "loss_objective", counting)
        config = _config(baseline=baseline)
        record = train(_dataset(), config)
        assert not record.failed and record.epochs_completed == config.epochs
        assert calls == [(config.loss,)] * (2 if baseline == "none" else 1)
        assert all(objective is objectives[0] for objective in objectives)


def _ablations(**loss):
    """LossConfigs of full, plain-cse, no-margin and no-reweight: one stack."""
    return [
        LossConfig(**loss),
        LossConfig(**loss, use_class_aware_margin=False, use_reweighting=False),
        LossConfig(**loss, use_class_aware_margin=False),
        LossConfig(**loss, use_reweighting=False),
    ]


class TestTrainStack:
    """Runs that share a stack_key train in lockstep, and each run keeps the
    bits of the same run trained alone: its epoch records and contexts."""

    @staticmethod
    def _assert_each_run_as_alone(ds, configs):
        records = train_mod.train_stack(ds, configs)
        assert len(records) == len(configs)
        for config, record in zip(configs, records):
            alone = train(ds, config)
            assert not record.failed and not alone.failed
            got = [train_mod._epoch_to_dict(r) for r in (record.initial, *record.history)]
            assert got == [train_mod._epoch_to_dict(r) for r in (alone.initial, *alone.history)]
            assert record.prompts.contexts.tobytes() == alone.prompts.contexts.tobytes()
        assert len({record.wall_seconds for record in records}) == 1

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("kind", ["db", "bce", "focal"])
    def test_ablations_and_seeds_in_one_stack(self, kind, lam):
        # full and plain-cse at two seeds each, no-margin and no-reweight at one
        losses = _ablations(cls_loss_kind=kind, cls_loss_weight=lam) * 2
        configs = [
            _config(lr0=2.0, tau=0.5, seed=seed, loss=loss)
            for seed, loss in zip((1, 1, 2, 3, 2, 3), losses)
        ]
        assert len({train_mod.stack_key(c) for c in configs}) == 1
        self._assert_each_run_as_alone(_dataset(), configs)

    def test_runs_of_one_seed_share_their_rows(self):
        """Runs that share a seed gather one batch of rows for the stack, as
        the ablation switches of one sweep seed do. The classification
        kernels broadcast that batch's (B, C) labels against the stack's
        (S, B, C) scores, with no copy per run."""
        configs = [_config(lr0=2.0, seed=4, loss=loss) for loss in _ablations()]
        self._assert_each_run_as_alone(_dataset(), configs)

    def test_shared_mode(self):
        prompt = PromptSpec(mode="shared", num_context_tokens=3)
        configs = [
            _config(lr0=2.0, seed=seed, loss=loss, prompt=prompt)
            for seed, loss in zip((1, 2, 2), _ablations())
        ]
        self._assert_each_run_as_alone(_dataset(), configs)

    def test_201_classes(self):
        ds = _dataset(num_classes=201, num_samples=300, dim=16)
        configs = [
            _config(lr0=2.0, batch_size=64, seed=seed, loss=loss)
            for seed, loss in zip((1, 2, 1, 3), _ablations())
        ]
        self._assert_each_run_as_alone(ds, configs)

    def test_one_diverging_run_aborts_the_stack(self):
        """plain-cse's flat margin mu_base overflows its embedding loss; the
        stack ends every run at that epoch, failed, with no step taken, and
        full alone trains as usual."""
        ds = _dataset()
        loss = LossConfig(mu_base=1e308)
        configs = [_config(loss=loss), _config(loss=_ablations(mu_base=1e308)[1])]
        with np.errstate(over="ignore"):
            records = train_mod.train_stack(ds, configs)
            alone = [train(ds, config) for config in configs]
        assert [r.failed for r in records] == [True, True]
        assert [r.failed for r in alone] == [False, True]
        for record in (*records, alone[1]):
            assert record.abort_reason == "abort run: non-finite loss at epoch 1"
            assert record.epochs_completed == 0
        initial = [build_training_state(ds, config)[2].contexts for config in configs]
        for record, contexts in zip(records, initial):
            assert record.prompts.contexts.tobytes() == contexts.tobytes()

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 4, "lr0": 0.1},
            {"seed": 4, "baseline": "linear_probe"},
            {"loss": LossConfig(cls_loss_kind="bce")},
            {"loss": LossConfig(cls_loss_weight=1.0)},
            {"loss": LossConfig(cls_loss_weight=0.2)},
            {"loss": LossConfig(gamma_focal=1.0)},
            {"loss": LossConfig(eta=2.0)},
            {"loss": LossConfig(db_kappa=0.2)},
            {"loss": LossConfig(db_alpha=0.3)},
            {"loss": LossConfig(mu_base=0.4, use_class_aware_margin=False)},
            {"prompt": PromptSpec(num_context_tokens=2)},
        ],
        ids=[
            "lr0",
            "probe",
            "kind",
            "parts",
            "blend",
            "gamma",
            "eta",
            "db_kappa",
            "db_alpha",
            "mu_base",
            "prompt",
        ],
    )
    def test_configs_that_do_not_stack_are_refused(self, change):
        configs = [_config(), dataclasses.replace(_config(), **change)]
        assert train_mod.stack_key(configs[0]) != train_mod.stack_key(configs[1])
        with pytest.raises(ConfigError, match="stack_key"):
            train_mod.train_stack(_dataset(), configs)

    @pytest.mark.parametrize("name", [field.name for field in dataclasses.fields(LossConfig)])
    def test_every_loss_field_but_the_two_switches_splits_a_stack(self, name):
        """Runs stack when their LossConfigs differ at most in
        use_class_aware_margin and use_reweighting, whatever their seeds."""
        default = getattr(LossConfig(), name)
        if isinstance(default, bool):
            other = not default
        elif name == "cls_loss_kind":
            other = "bce"
        else:
            other = default / 2
        config = _config()
        changed = _config(seed=7, loss=LossConfig(**{name: other}))
        same = name in ("use_class_aware_margin", "use_reweighting")
        assert (train_mod.stack_key(changed) == train_mod.stack_key(config)) == same

    def test_a_probe_trains_alone(self):
        assert train_mod.stack_key(_config(baseline="linear_probe")) is None
        with pytest.raises(ConfigError, match="stack_key"):
            train_mod.train_stack(_dataset(), [_config(baseline="linear_probe")] * 2)


def _bits(value):
    """value with every float as its bit pattern and every array as its
    dtype, shape and bytes, recursing into dataclasses, tuples and lists."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return struct.pack("<d", value)
    if dataclasses.is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return tuple(_bits(item) for item in value)
    return value


class _Interrupt(BaseException):
    """An exception that is not an Exception, as KeyboardInterrupt is not."""


# the DeprecationWarning Python 3.12 and later issue on forking a process
# that runs more than one thread
_FORK_WARNING = r"This process .* is multi-threaded"


class _RefusedWorker:
    """A _RecordWorker double that fails the test when one is started."""

    def __init__(self, *args):
        raise AssertionError("a record worker was started")


def _record_bits(record: RunRecord):
    """_bits of all a RunRecord holds but its wall_seconds and the cache of
    its ClassStats."""
    fields = (record.initial, record.history, record.abort_reason, record.prompts, record.encoder)
    stats = (record.stats.counts, record.stats.group, record.stats.num_samples)
    return _bits((*fields, *stats, record.probe_weights, record.probe_bias))


class TestRecordWorker:
    """On two usable cores train_stack scores every epoch record but the
    last in a forked worker while it takes the next epoch's steps; on one it
    scores them inline. Both give bit-identical records, and neither leaves
    a child process behind, whether it returns or raises.

    The process is taken to run one thread, as it does with one BLAS thread;
    it may run more here, so Python 3.12's warning on forking a threaded
    process is ignored."""

    @staticmethod
    def _assert_no_child():
        assert multiprocessing.active_children() == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def _records(self, monkeypatch, ds, configs, cores, setup=None):
        """train_stack's records at the given core count (after setup(), if
        given), each warning issued as (category, message), and whether
        each record sent to a worker was kept (False: it and the next epoch
        ran again here)."""
        kept = []
        real_overlap = train_mod._overlap

        def overlap(*args):
            measured, ahead = real_overlap(*args)
            kept.append(measured is not None)
            return measured, ahead

        with monkeypatch.context() as m:
            m.setattr(train_mod, "usable_cores", lambda: cores)
            m.setattr(train_mod, "_threads", lambda: 1)
            m.setattr(train_mod, "_overlap", overlap)
            if setup is not None:
                setup(m)
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
                    records = train_mod.train_stack(ds, configs)
            finally:
                self._assert_no_child()
        return records, [(w.category, str(w.message)) for w in caught], kept

    def _assert_same(self, monkeypatch, ds, configs, setup=None):
        """The records at 2 and 1 cores, bit for bit but wall_seconds, and
        their warnings, in order; the records and the warnings, and whether
        each record sent to the worker was kept."""
        (worked, warned, kept), (inline, issued, none) = [
            self._records(monkeypatch, ds, configs, cores, setup) for cores in (2, 1)
        ]
        assert none == []
        assert warned == issued
        assert len(worked) == len(inline) == len(configs)
        for a, b in zip(worked, inline):
            assert _record_bits(a) == _record_bits(b)
        return inline, issued, kept

    @pytest.mark.parametrize("baseline", BASELINES)
    def test_lone_run(self, monkeypatch, baseline):
        config = _config(epochs=3, baseline=baseline)
        (record,), issued, kept = self._assert_same(monkeypatch, _dataset(), [config])
        assert not record.failed and issued == []
        assert kept == [True] * 3  # epochs 0, 1 and 2; epoch 3's is the last

    @pytest.mark.parametrize("mode", [MODE_CLASS_SPECIFIC, MODE_SHARED])
    def test_stack_of_four(self, monkeypatch, mode):
        prompt = PromptSpec(mode=mode, num_context_tokens=3)
        configs = [
            _config(lr0=2.0, seed=seed, loss=loss, prompt=prompt)
            for seed, loss in zip((1, 2, 2, 3), _ablations())
        ]
        records, issued, kept = self._assert_same(monkeypatch, _dataset(), configs)
        assert not any(record.failed for record in records) and kept == [True] * 3

    def test_one_epoch(self, monkeypatch):
        (record,), issued, kept = self._assert_same(monkeypatch, _dataset(), [_config(epochs=1)])
        assert record.epochs_completed == 1 and kept == [True]

    def test_records_every_other_epoch(self, monkeypatch):
        config = _config(epochs=5, eval_every=2)
        (record,), issued, kept = self._assert_same(monkeypatch, _dataset(), [config])
        assert [r.epoch for r in record.history if r.eval is not None] == [2, 4, 5]
        assert kept == [True] * 3  # epochs 0, 2 and 4

    def test_abort_on_a_record_that_is_not_the_last(self, monkeypatch):
        """One step an epoch overflows the contexts, and epoch 1's record,
        not the last of two epochs, is the first to read them: the worker
        fails to score it, and the record and epoch 2 run again here."""
        config = _config(epochs=2, lr0=1e308, batch_size=64)
        (record,), issued, kept = self._assert_same(monkeypatch, _dataset(), [config])
        assert record.abort_reason == "abort run: non-finite scores in the epoch record"
        assert record.epochs_completed == 0 and kept == [True, False]
        assert issued and {category for category, _ in issued} == {RuntimeWarning}

    def test_abort_in_a_step_that_warns(self, monkeypatch):
        """Epoch 1's first step overflows the contexts and its second step's
        loss is not finite, with warnings on the way: that epoch, taken
        while the worker scored epoch 0, runs again here."""
        config = _config(epochs=3, lr0=1e308)
        (record,), issued, kept = self._assert_same(monkeypatch, _dataset(), [config])
        assert record.abort_reason == "abort run: non-finite loss at epoch 1"
        assert record.epochs_completed == 0 and kept == [False]
        assert issued and {category for category, _ in issued} == {RuntimeWarning}

    @pytest.mark.parametrize("baseline", BASELINES)
    def test_abort_in_a_step_is_kept(self, monkeypatch, baseline):
        """The loss of epoch 3's second step is NaN, with no warning, while
        the worker scores epoch 2: the record and the abort are kept."""

        def setup(m):
            calls = {"n": 0}

            def corrupt(report, need_grad):
                calls["n"] += need_grad
                if calls["n"] == 10 and need_grad:
                    return LossReport(np.nan, report.cls_part, report.cse_part, report.gradient)
                return report

            _patch_head_loss(m, baseline, corrupt)

        config = _config(epochs=4, eval_every=2, baseline=baseline)
        (record,), issued, kept = self._assert_same(monkeypatch, _dataset(), [config], setup)
        assert record.abort_reason == "abort run: non-finite loss at epoch 3"
        assert record.final_eval is record.history[1].eval is not None
        assert kept == [True, True] and issued == []

    @pytest.mark.parametrize("threads", [2, None])
    def test_no_worker_in_a_threaded_process(self, monkeypatch, threads):
        """A process that runs a second thread (a BLAS library's, say), or
        whose thread count cannot be read, forks no worker: every record
        runs here."""

        def setup(m):
            m.setattr(train_mod, "_threads", lambda: threads)
            m.setattr(train_mod, "_RecordWorker", _RefusedWorker)

        (record,), issued, kept = self._records(monkeypatch, _dataset(), [_config()], 2, setup)
        assert kept == [] and not record.failed

    @pytest.mark.parametrize("name", ["encode_all", "evaluate", "mean_positive_delta"])
    def test_no_worker_while_a_record_function_is_wrapped(self, monkeypatch, name):
        """A wrapper of a function the records call, as a tracer or a
        profiler installs, sees every record: they all run here."""
        calls = []

        def setup(m):
            wrapped = getattr(train_mod, name)

            @functools.wraps(wrapped)
            def wrapper(*args, **kwargs):
                calls.append(name)
                return wrapped(*args, **kwargs)

            m.setattr(train_mod, name, wrapper)
            m.setattr(train_mod, "_RecordWorker", _RefusedWorker)

        (record,), issued, kept = self._records(monkeypatch, _dataset(), [_config()], 2, setup)
        assert kept == [] and not record.failed
        if name != "encode_all":  # which the steps call too
            assert len(calls) == 1 + record.epochs_completed

    @pytest.mark.parametrize("error", [KeyError, _Interrupt])
    def test_an_error_leaves_no_child(self, monkeypatch, error):
        """A step that raises: an Exception is raised again when the epoch
        runs again here, after the worker has ended; any other exception
        leaves train_stack at once, while the worker may still be scoring
        epoch 0."""

        def setup(m):
            def broken(*args, **kwargs):
                raise error("broken step")

            m.setattr(train_mod, "objective_core", broken)

        for cores in (2, 1):
            with pytest.raises(error, match="broken step"):
                self._records(monkeypatch, _dataset(), [_config()], cores, setup)


class TestLinearProbe:
    def _separable(self):
        cfg = SynthConfig(num_classes=3, num_samples=19, dim=8, seed=4)
        protos = make_prototypes(cfg)
        owners = np.array([0] * 10 + [1] * 6 + [2] * 3)
        images = protos[owners]
        labels = np.zeros((19, 3), dtype=np.int64)
        labels[np.arange(19), owners] = 1
        return MultiLabelDataset(images, labels, images.copy(), ("a", "b", "c"))

    def test_perfect_separation_reaches_unit_map(self):
        ds = self._separable()
        cfg = _config(
            baseline="linear_probe",
            epochs=25,
            lr0=4.0,
            batch_size=19,
            head_min=8,
            tail_max=4,
            loss=LossConfig(cls_loss_kind="bce", cls_loss_weight=1.0),
        )
        record = train(ds, cfg)
        assert not record.failed
        assert record.final_eval.map_total >= 0.999
        assert record.prompts is None
        assert record.probe_weights.shape == (3, 8)
        assert record.probe_bias.shape == (3,)

    def test_probe_deterministic(self):
        ds = self._separable()
        cfg = _config(baseline="linear_probe", epochs=3, head_min=8, tail_max=4)
        a = train(ds, cfg)
        b = train(ds, cfg)
        assert np.array_equal(a.probe_weights, b.probe_weights)
        assert np.array_equal(a.probe_bias, b.probe_bias)

    def test_probe_ignores_embedding_loss(self):
        ds = self._separable()
        record = train(
            ds,
            _config(
                baseline="linear_probe",
                epochs=2,
                head_min=8,
                tail_max=4,
                loss=LossConfig(cls_loss_weight=0.5),
            ),
        )
        assert all(r.loss_cse == 0.0 for r in record.history)
        assert all(r.mean_pos_delta is None for r in record.history)

    @pytest.mark.parametrize(
        "loss",
        [LossConfig(cls_loss_weight=0.0, use_embedding_loss=False), LossConfig(cls_loss_weight=1.0)],
        ids=["lam0-no-cse", "lam1"],
    )
    def test_probe_ignores_the_blend(self, loss):
        """The probe trains on the classification part at weight 1 whatever
        the blend, even at a weight of 0 with the embedding loss off, where
        the blend computes neither part: its records and parameters are the
        default run's, bit for bit."""
        ds = _dataset()
        runs = [
            train(ds, _config(lr0=2.0, baseline="linear_probe", loss=cfg))
            for cfg in (loss, LossConfig())
        ]
        assert not any(run.failed for run in runs)
        got, want = (
            [train_mod._epoch_to_dict(r) for r in (run.initial, *run.history)] for run in runs
        )
        assert got == want
        assert runs[0].initial.loss_cls > 0.0 and runs[0].probe_weights.any()
        for name in ("probe_weights", "probe_bias"):
            assert getattr(runs[0], name).tobytes() == getattr(runs[1], name).tobytes()


class TestScoreAnotherSplit:
    """A trained head scores any split with its classes, grouped into head,
    medium and tail by the counts of the split it trained on, as the
    VOC-LT and COCO-LT protocol groups a test split."""

    @pytest.mark.parametrize("baseline", BASELINES)
    def test_groups_come_from_the_training_split(self, baseline):
        ds, other = _dataset(), _dataset(seed=4)
        config = _config(baseline=baseline)
        record = train(ds, config)
        own_stats = ClassStats.from_dataset(other, config.head_min, config.tail_max)
        assert record.stats.group != own_stats.group  # other's counts regroup some classes
        if baseline == "none":
            embeddings = encode_all(record.encoder, record.prompts).embeddings
            scores = class_scores(other.images, embeddings, config.tau)
        else:
            scores = other.images @ record.probe_weights.T / config.tau + record.probe_bias
        head = checkpoint_from_dict(checkpoint_to_dict(record), ds, config)
        got = train_mod._eval_to_dict(head.evaluate(other))
        assert got == train_mod._eval_to_dict(evaluate(scores, other.labels, record.stats))
        assert got != train_mod._eval_to_dict(evaluate(scores, other.labels, own_stats))

    @pytest.mark.parametrize("baseline", BASELINES)
    def test_a_split_with_other_classes_is_refused(self, baseline):
        ds, config = _dataset(), _config(baseline=baseline, epochs=1)
        head = checkpoint_from_dict(checkpoint_to_dict(train(ds, config)), ds, config)
        with pytest.raises(ConfigError):
            head.evaluate(_dataset(num_classes=5))


class TestCheckpointRoundTrip:
    """checkpoint_to_dict names the prompt checkpoint's fields, and
    checkpoint_from_dict reads them back from the document or its file."""

    @pytest.mark.parametrize("mode", [MODE_CLASS_SPECIFIC, MODE_SHARED])
    def test_dict_roundtrip_bitwise(self, mode):
        ds, config = _dataset(), _config(epochs=1, prompt=PromptSpec(mode=mode))
        record = train(ds, config)
        prompts = record.prompts
        back = checkpoint_from_dict(checkpoint_to_dict(record), ds, config).prompts
        assert np.array_equal(back.contexts, prompts.contexts)
        assert np.array_equal(back.class_tokens, prompts.class_tokens)
        assert back.mode == prompts.mode
        assert back.encoder_seed == prompts.encoder_seed

    def test_file_roundtrip_bitwise(self, tmp_path):
        ds, config = _dataset(), _config(epochs=1)
        record = train(ds, config)
        out = write_run_dir(tmp_path / "run", record, {})
        doc = read_json(out / "prompts.ckpt.json", "prompt checkpoint")
        back = checkpoint_from_dict(doc, ds, config).prompts
        assert np.array_equal(back.contexts, record.prompts.contexts)
        assert np.array_equal(back.class_tokens, record.prompts.class_tokens)


class TestRunDir:
    def test_layout_and_roundtrip(self, tmp_path):
        ds = _dataset()
        record = train(ds, _config(epochs=3, eval_every=2))
        out = tmp_path / "run"
        config_doc = {"train": {"epochs": 3}}
        write_run_dir(out, record, config_doc)
        names = sorted(p.name for p in out.iterdir())
        assert names == ["config.json", "metrics.csv", "prompts.ckpt.json", "run.json"]

        assert json.loads((out / "config.json").read_text()) == config_doc

        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == ",".join(METRICS_COLUMNS)
        assert len(lines) == 1 + 1 + 3  # header, epoch 0, three epochs
        first = lines[1].split(",")
        assert first[0] == "0"
        # repr round-trip: parsing the cell recovers the float bit-for-bit
        assert float(first[5]) == record.initial.loss_total

        run_doc = json.loads((out / "run.json").read_text())
        assert run_doc["failed"] is False
        assert "wall_seconds" in run_doc
        assert len(run_doc["history"]) == 3

        ckpt = json.loads((out / "prompts.ckpt.json").read_text())
        assert ckpt["kind"] == "prompts"
        got = np.asarray(ckpt["contexts"])
        assert np.array_equal(got, record.prompts.contexts)

    def test_metrics_rows_are_the_run_json_epochs(self, tmp_path):
        # no class is above head_min, so the head group is empty in every row
        record = train(_dataset(), _config(epochs=3, eval_every=2, head_min=1000))
        out = write_run_dir(tmp_path / "run", record, {})
        run_doc = json.loads((out / "run.json").read_text())
        epochs = [run_doc["initial"], *run_doc["history"]]
        with (out / "metrics.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(epochs) == 4
        for row, epoch in zip(rows, epochs, strict=True):
            for column in METRICS_COLUMNS:
                if column.startswith("map_"):
                    value = epoch["eval"] and epoch["eval"][column]
                else:
                    value = epoch[column]
                assert row[column] == ("" if value is None else repr(value)), column
        # epoch 1 is off-cadence; epochs 0, 2 and the last are evaluated
        assert [row["map_total"] == "" for row in rows] == [False, True, False, False]
        assert {row["map_head"] for row in rows} == {""}

    def test_off_cadence_rows_have_empty_eval_cells(self, tmp_path):
        ds = _dataset()
        record = train(ds, _config(epochs=3, eval_every=3))
        out = tmp_path / "run"
        write_run_dir(out, record, {})
        lines = (out / "metrics.csv").read_text().splitlines()
        epoch1 = lines[2].split(",")
        assert epoch1[1] == ""  # map_total not evaluated at epoch 1
        epoch3 = lines[4].split(",")
        assert epoch3[1] != ""

    def test_probe_checkpoint_kind(self, tmp_path):
        ds = _dataset()
        record = train(ds, _config(baseline="linear_probe", epochs=2))
        write_run_dir(tmp_path / "probe", record, {})
        ckpt = json.loads((tmp_path / "probe" / "prompts.ckpt.json").read_text())
        assert ckpt["kind"] == "linear_probe"
        assert np.asarray(ckpt["weights"]).shape == (4, 16)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"prompt": PromptSpec(mode="class_specific", num_context_tokens=3)},
            {"prompt": PromptSpec(mode="shared", num_context_tokens=2)},
            {"baseline": "linear_probe"},
        ],
        ids=["class-specific", "shared", "linear-probe"],
    )
    def test_checkpoint_bytes_are_one_json_dumps(self, tmp_path, overrides):
        # the file is written a value or array row at a time; its bytes are
        # those of one json.dumps of the record's arrays listed whole
        record = train(_dataset(), _config(epochs=1, **overrides))
        out = write_run_dir(tmp_path / "run", record, {})
        prompts = record.prompts
        if prompts is not None:
            doc = {
                "kind": "prompts",
                "mode": prompts.mode,
                "num_context_tokens": prompts.num_context_tokens,
                "token_dim": prompts.token_dim,
                "contexts": prompts.contexts.tolist(),
                "class_tokens": prompts.class_tokens.tolist(),
                "encoder_seed": prompts.encoder_seed,
            }
        else:
            doc = {
                "kind": "linear_probe",
                "weights": record.probe_weights.tolist(),
                "bias": record.probe_bias.tolist(),
            }
        want = json.dumps(doc) + "\n"
        assert (out / "prompts.ckpt.json").read_bytes() == want.encode()

    def test_collision_refused_until_forced(self, tmp_path):
        ds = _dataset()
        record = train(ds, _config(epochs=1))
        out = tmp_path / "run"
        write_run_dir(out, record, {})
        with pytest.raises(ConfigError, match="not empty"):
            write_run_dir(out, record, {})
        write_run_dir(out, record, {}, force=True)

    def test_failed_run_serializes(self, tmp_path, monkeypatch):
        ds = _dataset()

        def always_nan(report, need_grad):
            if need_grad:
                return LossReport(float("nan"), 0.0, 0.0, report.gradient)
            return report

        _patch_head_loss(monkeypatch, "none", always_nan)
        record = train(ds, _config(epochs=2))
        assert record.failed
        out = tmp_path / "failed"
        write_run_dir(out, record, {})
        run_doc = json.loads((out / "run.json").read_text())
        assert run_doc["failed"] is True
        assert "non-finite" in run_doc["abort_reason"]


class TestSerializationPrecision:
    def test_float_cells_round_trip(self):
        ds = _dataset()
        record = train(ds, _config(epochs=2))
        doc = run_record_to_dict(record)
        assert doc["initial"]["loss_total"] == record.initial.loss_total
        text = json.dumps(doc)
        back = json.loads(text)
        assert back["initial"]["loss_total"] == record.initial.loss_total
        assert back["history"][0]["lr"] == record.history[0].lr
