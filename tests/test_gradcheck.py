import json

import numpy as np
import pytest

from tailprompt.cli import EXIT_OK, main
from tailprompt.data_model import Batch
from tailprompt.encoders import (
    MODE_SHARED,
    PROMPT_MODES,
    FrozenTextEncoder,
    PromptSet,
    encode_all,
    init_prompt_set,
)
from tailprompt.errors import ConfigError
from tailprompt.gradcheck import (
    REL_ERROR_FLOOR,
    GradCheckReport,
    check,
    check_total_loss,
    check_training_state,
    finite_diff_grad,
    pooled_prompt_set,
    run_sweep,
    sweep_cases,
)
from tailprompt.losses import LossConfig, total_loss

from oracles import finite_diff_grad_copying


class TestFiniteDiff:
    def test_quadratic_exact(self):
        p = np.array([1.0, 2.0, -3.0])
        fd = finite_diff_grad(lambda x: float((x**2).sum()), p, step=1e-5)
        assert np.allclose(fd, 2 * p, atol=1e-8)

    def test_constant_zero(self):
        fd = finite_diff_grad(lambda x: 4.25, np.ones((2, 3)), step=1e-5)
        assert np.array_equal(fd, np.zeros((2, 3)))

    def test_preserves_shape(self):
        p = np.zeros((2, 2, 2))
        fd = finite_diff_grad(lambda x: float(x.sum()), p, step=1e-4)
        assert fd.shape == p.shape
        assert np.allclose(fd, 1.0, atol=1e-10)

    def test_bad_step(self):
        with pytest.raises(ConfigError):
            finite_diff_grad(lambda x: 0.0, np.ones(2), step=0.0)

    def test_matches_copying_oracle_bit_for_bit_and_leaves_params_alone(self):
        case = sweep_cases(4)[3]

        def loss_fn(p):
            prompts = PromptSet(p, case.prompts.class_tokens, case.prompts.mode)
            return total_loss(
                case.batch, prompts, case.encoder, case.stats, case.config, case.tau,
                need_grad=False,
            ).total

        params = case.prompts.contexts.copy()
        params.flags.writeable = False  # any write into params raises
        before = params.copy()
        fd = finite_diff_grad(loss_fn, params, step=1e-5)
        assert np.array_equal(params, before)
        assert np.array_equal(fd, finite_diff_grad_copying(loss_fn, params, 1e-5))

    def test_non_contiguous_params(self):
        params = np.asfortranarray(np.linspace(-1.0, 1.0, 12).reshape(3, 4))
        weights = np.arange(1.0, 13.0).reshape(3, 4)

        def loss_fn(x):
            return float((np.sin(x) * weights).sum())

        fd = finite_diff_grad(loss_fn, params, step=1e-4)
        assert np.array_equal(fd, finite_diff_grad_copying(loss_fn, params, 1e-4))


class TestCheck:
    def test_exact_gradient_passes(self):
        p = np.array([0.3, -1.2, 2.0])
        report = check(lambda x: float((x**2).sum()), p, 2 * p)
        assert report.passed
        assert report.max_rel_error < 1e-8
        assert report.num_skipped_kinks == 0

    def test_corrupted_coordinate_caught(self):
        p = np.array([0.3, -1.2, 2.0])
        bad = 2 * p
        bad[1] += 0.1
        report = check(lambda x: float((x**2).sum()), p, bad)
        assert not report.passed
        assert report.worst_index == 1

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            check(lambda x: 0.0, np.ones(3), np.ones(4))

    def test_broadcast_gradient_compared_at_every_coordinate(self):
        # one gradient row per block, as the pooled prompt gradient has
        p = np.array([[0.5, -1.0, 2.0], [1.5, 0.25, 0.5]])
        rows = np.array([[3.0], [-2.0]])
        assert check(lambda x: float((rows * x).sum()), p, rows).passed
        # sum(x**2) has a gradient that differs within a row, so the
        # broadcast row is wrong off column 0; the worst coordinate is named
        report = check(lambda x: float((x**2).sum()), p, 2 * p[:, :1])
        assert not report.passed
        assert report.worst_index == 1
        with pytest.raises(ConfigError):
            check(lambda x: 0.0, p, np.ones((2, 2)))
        with pytest.raises(ConfigError):
            check(lambda x: 0.0, p, np.ones(1))  # would broadcast, but has too few axes

    def test_non_finite_loss_fails_cleanly(self):
        report = check(lambda x: float("nan"), np.ones(2), np.zeros(2))
        assert not report.passed
        assert report.max_rel_error == float("inf")

    def test_all_coordinates_skipped(self):
        p = np.ones(4)
        report = check(
            lambda x: float((x**2).sum()),
            p,
            np.zeros(4),  # wrong on purpose: must not matter when all skipped
            skip=np.ones(4, dtype=bool),
        )
        assert report == GradCheckReport(0.0, -1, 4, True)

    def test_partial_skip_ignores_masked_error(self):
        p = np.array([1.0, 1.0])
        bad = 2 * p
        bad[0] += 5.0  # huge error, but masked out
        report = check(lambda x: float((x**2).sum()), p, bad, skip=np.array([True, False]))
        assert report.passed
        assert report.num_skipped_kinks == 1
        assert report.worst_index == 1

    def test_mask_shape_mismatch(self):
        with pytest.raises(ConfigError):
            check(
                lambda x: 0.0,
                np.ones(3),
                np.zeros(3),
                skip=np.ones(2, dtype=bool),
            )

    def test_tiny_gradients_sit_below_floor(self):
        # both sides ~1e-12: the floor keeps 'zero vs zero' from exploding
        p = np.zeros(3)
        report = check(lambda x: 1e-12 * float(x.sum()), p, np.full(3, 1e-12))
        assert report.passed
        assert report.max_rel_error <= 1e-12 / REL_ERROR_FLOOR


def _orthogonal_caption(emb: np.ndarray) -> np.ndarray:
    vt = np.linalg.svd(emb)[2]
    cap = vt[-1]
    return cap / np.linalg.norm(cap)


class TestCheckTotalLoss:
    def test_smooth_pure_cls_passes(self):
        for case in sweep_cases(24, base_seed=7):
            if case.config.cls_loss_weight == 1.0:
                report = check_total_loss(
                    case.batch, case.prompts, case.encoder, case.stats, case.config, case.tau
                )
                assert report.passed, case.description
                return
        pytest.fail("no pure-classification cell in the first 24 cases")

    def test_blended_with_toggles_passes(self):
        case = sweep_cases(8, base_seed=11)[4]
        report = check_total_loss(
            case.batch, case.prompts, case.encoder, case.stats, case.config, case.tau
        )
        assert report.passed

    def test_flat_region_minimum_exact(self):
        # one all-negative sample whose caption is orthogonal to every prompt
        # embedding: every hinge is strictly satisfied, the loss is exactly 0
        # on a neighborhood, and analytic and numeric gradients are both 0
        d = 6
        enc = FrozenTextEncoder(np.eye(d))
        prompts = init_prompt_set(2, d, num_context_tokens=1, init_std=0.3, init_seed=12)
        emb = encode_all(enc, prompts).embeddings
        cap = _orthogonal_caption(emb)
        batch = Batch(cap[None, :], np.array([[0, 0]]), cap[None, :])
        from tailprompt.data_model import ClassStats, group_classes

        stats = ClassStats(np.array([4, 4]), group_classes([4, 4], 3, 1), 9)
        cfg = LossConfig(cls_loss_weight=0.0)
        report = check_total_loss(batch, prompts, enc, stats, cfg)
        assert report.passed
        assert report.max_rel_error == 0.0
        assert report.num_skipped_kinks == 0

    def test_aligned_positive_minimum_absolute(self):
        # a caption sitting exactly on its positive prompt embedding is a
        # curved minimum: relative error is meaningless there, so assert both
        # gradients are absolutely tiny instead
        d = 6
        enc = FrozenTextEncoder(np.eye(d))
        prompts = init_prompt_set(1, d, num_context_tokens=1, init_std=0.3, init_seed=13)
        emb = encode_all(enc, prompts).embeddings
        batch = Batch(emb.copy(), np.array([[1]]), emb.copy())
        from tailprompt.data_model import ClassStats

        stats = ClassStats(np.array([5]), ("medium",), 9)
        cfg = LossConfig(cls_loss_weight=0.0, use_reweighting=False)
        analytic = total_loss(batch, prompts, enc, stats, cfg).gradient
        assert np.abs(analytic).max() < 1e-12

        work = PromptSet(prompts.contexts.copy(), prompts.class_tokens)

        def loss_fn(p):
            work.contexts[...] = p
            return total_loss(batch, work, enc, stats, cfg, need_grad=False).total

        fd = finite_diff_grad(loss_fn, prompts.contexts, step=1e-5)
        assert np.abs(fd).max() < 1e-6


class TestCheckTrainingState:
    @pytest.mark.parametrize("mode", PROMPT_MODES)
    @pytest.mark.parametrize("num_context", [1, 2, 4, 7])
    def test_pooled_set_pools_to_the_training_state(self, mode, num_context):
        enc = FrozenTextEncoder.create(seed=5, token_dim=12, dim=10)
        prompts = init_prompt_set(
            6, 12, num_context_tokens=num_context, mode=mode, init_std=0.5,
            encoder_seed=5, init_seed=9,
        )
        pooled = pooled_prompt_set(prompts)
        assert pooled.contexts.shape == (prompts.contexts.shape[0], 1, 12)
        assert pooled.mode == mode
        expected = encode_all(enc, prompts).embeddings
        got = encode_all(enc, pooled).embeddings
        assert np.abs(got - expected).max() <= 1e-15
        if num_context == 1:
            assert np.array_equal(pooled.contexts, prompts.contexts)
            assert np.array_equal(pooled.class_tokens, prompts.class_tokens)
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("mode", PROMPT_MODES)
    def test_finite_differences_only_pooled_coordinates(self, monkeypatch, mode):
        import tailprompt.gradcheck as gradcheck

        case = next(
            c for c in sweep_cases(24)
            if c.prompts.mode == mode and c.prompts.num_context_tokens > 1
        )
        calls = {True: 0, False: 0, "kinks": 0, "checks": 0}
        real = gradcheck.total_loss

        def counting(*args, need_grad=True, **kwargs):
            calls[need_grad] += 1
            return real(*args, need_grad=need_grad, **kwargs)

        def count(key, fn):
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return counted

        monkeypatch.setattr(gradcheck, "total_loss", counting)
        monkeypatch.setattr(gradcheck, "hinge_kink_mask", count("kinks", gradcheck.hinge_kink_mask))
        monkeypatch.setattr(
            gradcheck, "check_total_loss", count("checks", gradcheck.check_total_loss)
        )
        report = check_training_state(
            case.batch, case.prompts, case.encoder, case.stats, case.config, case.tau
        )
        assert report.passed, case.description
        blocks, _, token_dim = case.prompts.contexts.shape
        assert blocks == (1 if mode == MODE_SHARED else case.prompts.num_classes)
        assert calls[False] == 2 * blocks * token_dim
        # one gradient of the pooled set and one of the training state, one
        # pooled kink mask, all shared with the one check_total_loss call
        assert (calls[True], calls["kinks"], calls["checks"]) == (2, 1, 1)

    def test_shared_mode_train_passes_the_gate(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "synth": {"num_classes": 4, "num_samples": 60, "dim": 16, "seed": 3},
            "train": {"epochs": 1, "batch_size": 16, "head_min": 15, "tail_max": 8},
            "prompt": {"mode": "shared"},
        }))
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "gradcheck passed on a 8-sample batch" in stdout
        assert "16 pooled coordinates finite-differenced" in stdout


class TestSweep:
    def test_deterministic(self):
        a = sweep_cases(5, base_seed=3)
        b = sweep_cases(5, base_seed=3)
        for ca, cb in zip(a, b):
            assert ca.description == cb.description
            assert np.array_equal(ca.batch.images, cb.batch.images)
            assert np.array_equal(ca.prompts.contexts, cb.prompts.contexts)
            assert ca.config == cb.config

    def test_covers_all_cells_and_kinds(self):
        cases = sweep_cases(24)
        cells = {
            (
                c.config.cls_loss_weight,
                c.prompts.mode,
                c.config.use_class_aware_margin,
                c.config.use_reweighting,
            )
            for c in cases
        }
        assert len(cells) == 24
        assert {c.config.cls_loss_kind for c in cases} == {"db", "bce", "focal"}

    def test_num_cases_validated(self):
        with pytest.raises(ConfigError):
            sweep_cases(0)

    def test_run_sweep_all_pass(self):
        results = run_sweep(num_cases=12, base_seed=2026)
        assert len(results) == 12
        for case, report in results:
            assert report.passed, f"{case.description}: {report.max_rel_error}"
