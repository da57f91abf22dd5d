import math
from dataclasses import replace

import numpy as np
import pytest

from tailprompt.data_model import Batch, ClassStats, group_classes
from tailprompt.encoders import FrozenTextEncoder, encode_all, init_prompt_set
from tailprompt.errors import ConfigError, NumericsError
from tailprompt.losses import (
    LossConfig,
    class_margins,
    class_scores,
    class_weights,
    classification_part,
    cls_loss_on_logits,
    cosine_distances,
    db_bias,
    db_rebalance,
    embedding_part,
    hinge_kink_mask,
    loss_constants,
    loss_objective,
    mean_positive_delta,
    objective_core,
    total_loss,
)

from oracles import (
    bce_loss_scalar,
    bce_parts_where,
    cse_loss,
    cse_loss_scalar,
    db_loss_scalar,
    db_parts_where,
    focal_parts_where,
)


def _stats(counts, num_samples=None):
    counts = np.asarray(counts)
    n = int(num_samples if num_samples is not None else counts.sum())
    return ClassStats(
        counts=counts, group=group_classes(counts, head_min=10, tail_max=3), num_samples=n
    )


def _cse(batch, prompts, enc, counts, cfg, need_grad=True):
    """The embedding loss alone, as total_loss computes it at cls_loss_weight 0."""
    cfg = replace(cfg, cls_loss_weight=0.0)
    return total_loss(batch, prompts, enc, _stats(counts), cfg, need_grad=need_grad)


def _delta(batch, prompts, enc):
    """mean_positive_delta of batch against the prompts' embeddings."""
    distances = cosine_distances(batch.captions, encode_all(enc, prompts).embeddings)
    return mean_positive_delta(distances, batch.labels)


BCE = LossConfig(cls_loss_kind="bce")


def _focal(gamma):
    return LossConfig(cls_loss_kind="focal", gamma_focal=gamma)


def _on_logits(z, labels, cfg, counts=None, num_samples=None, need_grad=True):
    """cls_loss_on_logits with stats from counts; bce and focal read no
    counts, so they default to one per class."""
    if counts is None:
        counts = np.ones(np.shape(z)[1], dtype=np.int64)
    return cls_loss_on_logits(z, labels, _stats(counts, num_samples), cfg, need_grad=need_grad)


def _random_instance(seed, b=6, c=4, d=12, dt=5, m=2, mode="class_specific"):
    rng = np.random.default_rng(seed)
    enc = FrozenTextEncoder.create(seed, dt, d)
    prompts = init_prompt_set(
        c, dt, num_context_tokens=m, mode=mode, init_std=0.6, encoder_seed=seed, init_seed=seed + 1
    )
    images = rng.standard_normal((b, d))
    images /= np.linalg.norm(images, axis=1, keepdims=True)
    captions = rng.standard_normal((b, d))
    captions /= np.linalg.norm(captions, axis=1, keepdims=True)
    labels = (rng.random((b, c)) < 0.4).astype(np.int64)
    labels[np.arange(b), rng.integers(0, c, size=b)] = 1
    counts = rng.integers(1, 40, size=c)
    batch = Batch(images, labels, captions)
    return batch, prompts, enc, _stats(counts, counts.max() + 10)


class TestMargins:
    def test_known_values(self):
        assert class_margins([1, 16, 81], 2.0).tolist() == [2.0, 1.0, pytest.approx(2.0 / 3.0)]
        assert class_margins([7, 3], 0.0).tolist() == [0.0, 0.0]

    def test_vector_form(self):
        assert np.allclose(class_margins([16, 625], 1.0), [0.5, 0.2], atol=1e-15)

    def test_rarer_class_larger_margin(self):
        m = class_margins([1, 10, 100, 1000], 1.0)
        assert (np.diff(m) < 0).all()

    def test_zero_count_rejected(self):
        with pytest.raises(ConfigError, match="count"):
            class_margins([5, 0], 1.0)


class TestWeights:
    def test_known_values(self):
        assert np.allclose(class_weights([10, 10, 10], 1.0), 1.0 / 3.0, atol=1e-15)
        assert np.allclose(class_weights([1, 3], 1.0), [0.75, 0.25], atol=1e-15)

    def test_gamma_zero_uniform(self):
        for counts in ([5, 9, 2], [1, 1000]):
            w = class_weights(counts, 0.0)
            assert np.allclose(w, 1.0 / len(counts), atol=1e-15)

    def test_normalized_for_random_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            counts = rng.integers(1, 10_000, size=rng.integers(1, 30))
            gamma = rng.uniform(0.0, 3.0)
            w = class_weights(counts, gamma)
            assert abs(math.fsum(w.tolist()) - 1.0) <= 1e-12
            assert (w > 0).all()

    def test_rarer_class_weakly_larger(self):
        w = class_weights([2, 4, 8, 8], 0.7)
        assert w[0] > w[1] > w[2]
        assert w[2] == w[3]

    def test_zero_count_rejected(self):
        with pytest.raises(ConfigError):
            class_weights([3, 0], 1.0)


class TestCseTerm:
    """One class's term of the embedding loss: a one-sample, one-class batch
    through total_loss at cls_loss_weight 0, with unit weight and the flat
    margin 0.5. Positives pay delta, negatives the hinge max(0, margin - delta)."""

    def _term(self, delta_value, label):
        d = 4
        enc = FrozenTextEncoder(np.eye(d))
        contexts = np.zeros((1, 1, d))
        token = np.zeros((1, d))
        token[0, 0] = 1.0  # the prompt embedding is e_0
        prompts = type(init_prompt_set(1, d))(contexts, token)
        cos = 1.0 - delta_value
        cap = np.zeros(d)
        cap[0], cap[1] = cos, math.sqrt(1.0 - cos * cos)
        batch = Batch(cap[None, :], np.array([[label]]), cap[None, :])
        cfg = LossConfig(use_reweighting=False, use_class_aware_margin=False, mu_base=0.5)
        return _cse(batch, prompts, enc, [5], cfg, need_grad=False).cse_part

    def test_positive(self):
        assert self._term(0.2, 1) == pytest.approx(0.2, abs=1e-15)

    def test_hinge_active(self):
        assert self._term(0.2, 0) == pytest.approx(0.3, abs=1e-15)

    def test_hinge_satisfied(self):
        assert self._term(0.7, 0) == 0.0

    def test_never_negative(self):
        for seed in range(100):
            batch, prompts, enc, stats = _random_instance(seed)
            for margin_on in (True, False):
                cfg = LossConfig(use_class_aware_margin=margin_on, mu_base=0.6)
                rep = _cse(batch, prompts, enc, stats.counts, cfg, need_grad=False)
                assert rep.cse_part >= 0.0


class TestCseLoss:
    @pytest.mark.parametrize("margin_on", [True, False])
    @pytest.mark.parametrize("reweight_on", [True, False])
    @pytest.mark.parametrize("mode", ["class_specific", "shared"])
    def test_matches_scalar_oracle(self, margin_on, reweight_on, mode):
        batch, prompts, enc, stats = _random_instance(7, b=8, c=4, mode=mode)
        cfg = LossConfig(use_class_aware_margin=margin_on, use_reweighting=reweight_on)
        got = _cse(batch, prompts, enc, stats.counts, cfg, need_grad=False)
        emb = encode_all(enc, prompts).embeddings
        want = cse_loss_scalar(
            batch.captions.tolist(),
            batch.labels.tolist(),
            emb.tolist(),
            stats.counts.tolist(),
            cfg.eta,
            cfg.gamma_rw,
            cfg.mu_base,
            margin_on,
            reweight_on,
        )
        assert got.cse_part == pytest.approx(want, abs=1e-12)
        assert got.total == got.cse_part

    def test_global_minimum_zero_loss_zero_grad(self):
        # captions sit exactly on their positive prompt embedding and far
        # from the negatives (margins are small for large counts)
        c, d, dt = 3, 12, 12
        enc = FrozenTextEncoder(np.eye(d))
        contexts = np.zeros((c, 1, dt))
        eye = np.eye(c)
        class_tokens = np.zeros((c, dt))
        class_tokens[:, :c] = eye
        prompts_like = init_prompt_set(c, dt, num_context_tokens=1, encoder_seed=0)
        prompts = type(prompts_like)(contexts, class_tokens)
        emb = encode_all(enc, prompts).embeddings
        labels = np.eye(c, dtype=np.int64)
        batch = Batch(emb.copy(), labels, emb.copy())
        counts = np.array([10_000, 10_000, 10_000])
        cfg = LossConfig(eta=1.0)
        # negative delta is 1.0 here, margin 0.1: hinge strictly satisfied
        rep = _cse(batch, prompts, enc, counts, cfg)
        assert rep.cse_part == 0.0
        assert np.abs(rep.gradient).max() == 0.0

    def test_single_positive_reduces_to_delta(self):
        # one sample, one class, unit weight: loss is the cosine distance
        d = 6
        enc = FrozenTextEncoder(np.eye(d))
        prompts = init_prompt_set(1, d, num_context_tokens=1, init_std=0.5, init_seed=3)
        rng = np.random.default_rng(4)
        cap = rng.standard_normal(d)
        cap /= np.linalg.norm(cap)
        batch = Batch(cap[None, :], np.array([[1]]), cap[None, :])
        cfg = LossConfig(use_reweighting=False)
        rep = _cse(batch, prompts, enc, [5], cfg, need_grad=False)
        emb = encode_all(enc, prompts).embeddings[0]
        assert rep.cse_part == pytest.approx(1.0 - float(cap @ emb), abs=1e-14)

    def test_monotone_in_eta(self):
        batch, prompts, enc, stats = _random_instance(11)
        values = []
        for eta in np.linspace(0.0, 2.0, 9):
            cfg = LossConfig(eta=float(eta))
            values.append(_cse(batch, prompts, enc, stats.counts, cfg, need_grad=False).cse_part)
        assert (np.diff(values) >= -1e-15).all()

    def test_monotone_in_positive_delta(self):
        # pull one caption away from its positive prompt along a geodesic;
        # only that positive term changes, so the loss cannot decrease
        d = 8
        enc = FrozenTextEncoder(np.eye(d))
        prompts = init_prompt_set(1, d, num_context_tokens=1, init_std=0.5, init_seed=5)
        emb = encode_all(enc, prompts).embeddings[0]
        ortho = np.zeros(d)
        ortho[np.argmin(np.abs(emb))] = 1.0
        ortho -= emb * (ortho @ emb)
        ortho /= np.linalg.norm(ortho)
        cfg = LossConfig()
        values = []
        for angle in np.linspace(0.0, np.pi, 13):
            cap = np.cos(angle) * emb + np.sin(angle) * ortho
            batch = Batch(cap[None, :], np.array([[1]]), cap[None, :])
            values.append(_cse(batch, prompts, enc, [5], cfg, need_grad=False).cse_part)
        assert (np.diff(values) >= -1e-15).all()

    def test_toggles_off_bitwise_equals_flat_margin_reference(self):
        batch, prompts, enc, stats = _random_instance(13, b=7, c=5)
        cfg = LossConfig(use_class_aware_margin=False, use_reweighting=False, mu_base=0.35)
        got = _cse(batch, prompts, enc, stats.counts, cfg, need_grad=False)

        # direct implementation of the flat-margin embedding loss
        emb = encode_all(enc, prompts).embeddings
        dl = 1.0 - batch.captions @ emb.T
        positive = batch.labels == 1
        terms = np.where(positive, dl, np.maximum(0.0, cfg.mu_base - dl))
        want = float(terms.sum(axis=1).mean())
        assert got.cse_part == want

    def test_grad_none_when_not_requested(self):
        batch, prompts, enc, stats = _random_instance(17)
        rep = _cse(batch, prompts, enc, stats.counts, LossConfig(), need_grad=False)
        assert rep.gradient is None
        rep = _cse(batch, prompts, enc, stats.counts, LossConfig())
        c, _, dt = prompts.contexts.shape
        assert rep.gradient is not None and rep.gradient.shape == (c, 1, dt)

    def test_class_count_mismatch(self):
        batch, _, enc, stats = _random_instance(19, c=4)
        wrong = init_prompt_set(5, 5, num_context_tokens=2, encoder_seed=19)
        with pytest.raises(ConfigError):
            _cse(batch, wrong, enc, stats.counts, LossConfig(), need_grad=False)


class TestDbPieces:
    def test_rebalance_at_threshold(self):
        # uniform counts, C=10, theta=0.1: every share is exactly theta
        r = db_rebalance([7] * 10, alpha=0.1, beta=10.0, theta=0.1)
        assert np.allclose(r, 0.6, atol=1e-15)

    def test_rebalance_beta_zero(self):
        r = db_rebalance([1, 50, 2000], alpha=0.3, beta=0.0, theta=0.2)
        assert np.allclose(r, 0.8, atol=1e-15)

    def test_rebalance_monotone_and_bounded(self):
        counts = np.array([1, 3, 9, 81, 6561])
        r = db_rebalance(counts, alpha=0.1, beta=10.0, theta=0.2)
        assert (np.diff(r) <= 0).all()
        assert (r > 0.1).all() and (r < 1.1).all()

    def test_bias_known_values(self):
        assert db_bias([5], 10, kappa=1.0)[0] == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(db_bias([3, 7], 21, kappa=0.0), 0.0)
        assert db_bias([1], 11, kappa=1.0)[0] == pytest.approx(math.log(10.0), abs=1e-12)

    def test_bias_rarer_is_larger(self):
        v = db_bias([1, 5, 25], 100, kappa=0.5)
        assert (np.diff(v) < 0).all()

    def test_bias_saturated_class_rejected(self):
        with pytest.raises(NumericsError, match="infinite bias"):
            db_bias([4, 10], 10, kappa=0.05)


class TestDbLoss:
    def test_single_term_known_value(self):
        # alpha=0.5, beta=0 force r=1; kappa=0 kills the bias; zeta=1,
        # gamma_focal=0 reduce the term to plain -log sigmoid(z) = log 2 at z=0
        cfg = LossConfig(
            db_alpha=0.5, db_beta=0.0, db_theta=0.2, db_kappa=0.0, db_zeta=1.0, gamma_focal=0.0
        )
        rep = _on_logits(np.array([[0.0]]), np.array([[1]]), cfg, [1], 2, need_grad=False)
        assert rep.cls_part == pytest.approx(math.log(2.0), abs=1e-12)

    def test_confident_positive_term_vanishes(self):
        cfg = LossConfig(db_kappa=0.0)
        rep = _on_logits(np.array([[40.0]]), np.array([[1]]), cfg, [1], 2, need_grad=False)
        assert rep.cls_part == pytest.approx(0.0, abs=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            b, c = rng.integers(1, 7), rng.integers(1, 6)
            z = rng.uniform(-2.5, 2.5, size=(b, c))
            labels = (rng.random((b, c)) < 0.5).astype(np.int64)
            counts = rng.integers(1, 30, size=c)
            n = int(counts.max() + rng.integers(1, 20))
            cfg = LossConfig(
                db_zeta=float(rng.uniform(1.0, 5.0)),
                gamma_focal=float(rng.choice([0.0, 1.0, 2.0])),
            )
            got = _on_logits(z, labels, cfg, counts, n, need_grad=False)
            want = db_loss_scalar(
                z.tolist(),
                labels.tolist(),
                counts.tolist(),
                n,
                cfg.db_alpha,
                cfg.db_beta,
                cfg.db_theta,
                cfg.db_kappa,
                cfg.db_zeta,
                cfg.gamma_focal,
            )
            assert got.cls_part == pytest.approx(want, abs=1e-12)

    def test_saturated_class_rejected(self):
        with pytest.raises(NumericsError):
            _on_logits(np.zeros((2, 1)), np.ones((2, 1), dtype=np.int64), LossConfig(), [2], 2)


class TestBceFocal:
    def test_bce_known_value(self):
        rep = _on_logits(np.zeros((3, 4)), np.eye(3, 4, dtype=np.int64), BCE, need_grad=False)
        assert rep.cls_part == pytest.approx(math.log(2.0), abs=1e-12)

    def test_bce_matches_scalar_oracle(self):
        rng = np.random.default_rng(8)
        z = rng.uniform(-3, 3, size=(5, 4))
        labels = (rng.random((5, 4)) < 0.5).astype(np.int64)
        got = _on_logits(z, labels, BCE, need_grad=False)
        assert got.cls_part == pytest.approx(bce_loss_scalar(z.tolist(), labels.tolist()), abs=1e-12)

    def test_bce_gradient_at_zero(self):
        rep = _on_logits(np.zeros((1, 2)), np.array([[1, 0]]), BCE)
        assert np.allclose(rep.gradient, [[-0.25, 0.25]], atol=1e-15)

    def test_focal_known_value(self):
        # q = 0.9 at z = log 9; modulation (1-q)^2 = 0.01
        z = np.array([[math.log(9.0)]])
        rep = _on_logits(z, np.array([[1]]), _focal(2.0), need_grad=False)
        assert rep.cls_part == pytest.approx(0.01 * -math.log(0.9), rel=1e-10)

    def test_focal_gamma_zero_is_bce_bitwise(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            b, c = rng.integers(1, 6), rng.integers(1, 6)
            z = rng.uniform(-8, 8, size=(b, c))
            labels = (rng.random((b, c)) < 0.5).astype(np.int64)
            f = _on_logits(z, labels, _focal(0.0))
            g = _on_logits(z, labels, BCE)
            assert f.cls_part == g.cls_part
            assert np.array_equal(f.gradient, g.gradient)

    def test_focal_downweights_easy_examples(self):
        z = np.array([[3.0]])
        y = np.array([[1]])
        assert _on_logits(z, y, _focal(2.0), need_grad=False).cls_part < _on_logits(z, y, BCE, need_grad=False).cls_part


_BRANCH_CASES = (
    "random",
    "all_negative",
    "all_positive_column",
    "extreme_logits",
    "bool_labels",
    "fortran",
    "fortran_logits_only",
    "fortran_labels_only",
)


def _branch_case(case):
    """(z, labels, counts, num_samples) for one layout or value pattern. 17
    classes is past numpy's 8-way unrolled row sum, so a row summed in another
    order than the reference's changes bits."""
    rng = np.random.default_rng(31)
    b, c = 13, 17
    z = rng.uniform(-6.0, 6.0, size=(b, c))
    labels = (rng.random((b, c)) < 0.2).astype(np.int64)
    if case == "all_negative":
        labels[:] = 0
    elif case == "all_positive_column":
        labels[:, 3] = 1
    elif case == "extreme_logits":
        z[:, :4] = [40.0, -40.0, np.inf, -np.inf]
        labels[::2, :4] = 1
        labels[1::2, :4] = 0
    elif case == "bool_labels":
        labels = labels.astype(bool)
    if case in ("fortran", "fortran_logits_only"):
        z = np.asfortranarray(z)
    if case in ("fortran", "fortran_labels_only"):
        labels = np.asfortranarray(labels)
    counts = rng.integers(1, 30, size=c)
    return z, labels, counts, int(counts.max() + 5)


def _assert_matches_where(report, value_only, want):
    value, grad = want
    assert report.cls_part == value
    assert value_only.cls_part == value
    assert np.array_equal(report.gradient, grad, equal_nan=True)
    layout = (grad.flags.c_contiguous, grad.flags.f_contiguous)
    assert (report.gradient.flags.c_contiguous, report.gradient.flags.f_contiguous) == layout


class TestBranchOnlyMatchesWhere:
    """Each classification loss evaluates a label branch's formula only on
    that branch's entries; values, gradients and gradient layout equal the
    reference that computes both formulas everywhere and keeps one by
    np.where."""

    @pytest.mark.parametrize("case", _BRANCH_CASES)
    def test_db(self, case):
        z, labels, counts, n = _branch_case(case)
        for gamma in (0.0, 1.0, 2.0):
            for zeta in (1.0, 5.0):
                cfg = LossConfig(gamma_focal=gamma, db_zeta=zeta)
                rebal = db_rebalance(counts, cfg.db_alpha, cfg.db_beta, cfg.db_theta)
                bias = db_bias(counts, n, cfg.db_kappa)
                with np.errstate(all="ignore"):
                    want = db_parts_where(z, labels, rebal, bias, gamma, zeta, need_grad=True)
                    report = _on_logits(z, labels, cfg, counts, n)
                    value_only = _on_logits(z, labels, cfg, counts, n, need_grad=False)
                _assert_matches_where(report, value_only, want)

    @pytest.mark.parametrize("case", _BRANCH_CASES)
    def test_bce(self, case):
        z, labels, _, _ = _branch_case(case)
        with np.errstate(all="ignore"):
            want = bce_parts_where(z, labels, need_grad=True)
            report = _on_logits(z, labels, BCE)
            value_only = _on_logits(z, labels, BCE, need_grad=False)
        _assert_matches_where(report, value_only, want)

    @pytest.mark.parametrize("case", _BRANCH_CASES)
    def test_focal(self, case):
        z, labels, _, _ = _branch_case(case)
        for gamma in (0.0, 1.0, 2.0):
            with np.errstate(all="ignore"):
                want = focal_parts_where(z, labels, gamma, need_grad=True)
                report = _on_logits(z, labels, _focal(gamma))
                value_only = _on_logits(z, labels, _focal(gamma), need_grad=False)
            _assert_matches_where(report, value_only, want)


class TestClsDispatch:
    def test_kind_routing(self):
        rng = np.random.default_rng(10)
        z = rng.uniform(-2, 2, size=(4, 3))
        labels = (rng.random((4, 3)) < 0.5).astype(np.int64)
        stats = _stats([5, 3, 2], 12)
        cfg = LossConfig()
        rebal = db_rebalance(stats.counts, cfg.db_alpha, cfg.db_beta, cfg.db_theta)
        bias = db_bias(stats.counts, stats.num_samples, cfg.db_kappa)
        for kind, (value, grad) in (
            ("db", db_parts_where(z, labels, rebal, bias, cfg.gamma_focal, cfg.db_zeta, True)),
            ("bce", bce_parts_where(z, labels, True)),
            ("focal", focal_parts_where(z, labels, cfg.gamma_focal, True)),
        ):
            via = cls_loss_on_logits(z, labels, stats, LossConfig(cls_loss_kind=kind))
            assert via.cls_part == value
            assert np.array_equal(via.gradient, grad)


class TestTotalLoss:
    def test_blend_invariant(self):
        batch, prompts, enc, stats = _random_instance(23)
        cfg = LossConfig(cls_loss_weight=0.3)
        rep = total_loss(batch, prompts, enc, stats, cfg, need_grad=False)
        assert rep.total == pytest.approx(0.3 * rep.cls_part + 0.7 * rep.cse_part, abs=1e-12)
        assert rep.cls_part > 0 and rep.cse_part > 0

    def test_midpoint_arithmetic(self):
        batch, prompts, enc, stats = _random_instance(29)
        rep = total_loss(batch, prompts, enc, stats, LossConfig(cls_loss_weight=0.5), need_grad=False)
        assert rep.total == pytest.approx(0.5 * (rep.cls_part + rep.cse_part), abs=1e-12)

    @pytest.mark.parametrize("kind", ["db", "bce", "focal"])
    def test_lambda_one_is_pure_cls(self, kind):
        batch, prompts, enc, stats = _random_instance(31)
        cfg = LossConfig(cls_loss_weight=1.0, cls_loss_kind=kind)
        rep = total_loss(batch, prompts, enc, stats, cfg, need_grad=False)
        emb = encode_all(enc, prompts).embeddings
        z = batch.images @ emb.T
        want = cls_loss_on_logits(z, batch.labels, stats, cfg, need_grad=False)
        assert rep.total == want.cls_part
        assert rep.cse_part == 0.0

    def test_lambda_zero_is_pure_cse(self):
        batch, prompts, enc, stats = _random_instance(37)
        cfg = LossConfig(cls_loss_weight=0.0)
        rep = total_loss(batch, prompts, enc, stats, cfg)
        want = cse_loss(batch, prompts, enc, stats.counts, cfg)
        assert rep.total == want.cse_part
        assert rep.cls_part == 0.0
        assert np.array_equal(rep.gradient, want.gradient)

    def test_embedding_loss_switch(self):
        batch, prompts, enc, stats = _random_instance(41)
        cfg = LossConfig(use_embedding_loss=False, cls_loss_weight=0.5)
        rep = total_loss(batch, prompts, enc, stats, cfg, need_grad=False)
        assert rep.cse_part == 0.0
        assert rep.total == 0.5 * rep.cls_part

    def test_gradient_is_convex_combination(self):
        batch, prompts, enc, stats = _random_instance(43)
        lam = 0.25
        got = total_loss(batch, prompts, enc, stats, LossConfig(cls_loss_weight=lam), tau=0.8).gradient

        cse_only = total_loss(
            batch, prompts, enc, stats, LossConfig(cls_loss_weight=0.0), tau=0.8
        ).gradient
        cls_only = total_loss(
            batch, prompts, enc, stats, LossConfig(cls_loss_weight=1.0), tau=0.8
        ).gradient
        assert np.allclose(got, lam * cls_only + (1 - lam) * cse_only, atol=1e-14)

    def test_tau_validation(self):
        batch, prompts, enc, stats = _random_instance(47)
        with pytest.raises(ConfigError):
            total_loss(batch, prompts, enc, stats, LossConfig(), tau=0.0)


class TestObjectiveCore:
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_gradient_has_the_bits_of_a_zero_filled_sum(self, lam):
        # at a flat margin of 0 no hinge is active, so the embedding part's
        # row of a class with no positive in the batch is -(0 @ captions),
        # all -0.0; a zero-filled array accumulating the parts holds +0.0
        batch, prompts, enc, stats = _random_instance(53, b=2, c=6)
        cfg = LossConfig(cls_loss_weight=lam, use_class_aware_margin=False, mu_base=0.0)
        tau, b = 0.8, batch.num_samples
        emb = encode_all(enc, prompts).embeddings
        *_, got = objective_core(
            loss_objective(stats, cfg, tau), batch.images, batch.labels, batch.captions, emb, True
        )

        constants = loss_constants(stats, cfg)
        want = np.zeros_like(emb)
        if lam > 0:
            scores = class_scores(batch.images, emb, tau)
            _, grad_z = classification_part(scores, batch.labels, constants, cfg, True)
            want += lam * (grad_z.T @ batch.images) / tau
        _, coef = embedding_part(cosine_distances(batch.captions, emb), batch.labels, constants, True)
        cse_product = -(coef.T @ batch.captions)
        assert (np.signbit(cse_product) & (cse_product == 0)).all(axis=1).any()
        want += (1.0 - lam) * (cse_product / b)
        assert got.tobytes() == want.tobytes()


class TestClassCountMismatch:
    """The batch, the prompts and the stats must cover the same classes;
    otherwise every entry point raises ConfigError instead of broadcasting
    or failing on an index."""

    @pytest.mark.parametrize("batch_classes", [1, 5], ids=["C1", "C5"])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_batch_against_prompts(self, lam, batch_classes):
        batch, prompts, enc, stats = _random_instance(67, c=4)
        labels = np.ones((batch.num_samples, batch_classes), dtype=np.int64)
        batch = Batch(batch.images, labels, batch.captions)
        cfg = LossConfig(cls_loss_weight=lam)
        for need_grad in (False, True):
            with pytest.raises(ConfigError, match="class counts disagree"):
                total_loss(batch, prompts, enc, stats, cfg, need_grad=need_grad)
        with pytest.raises(ConfigError, match="class counts disagree"):
            hinge_kink_mask(batch, prompts, enc, stats, cfg)
        with pytest.raises(ConfigError, match="class counts disagree"):
            _delta(batch, prompts, enc)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_stats_against_prompts(self, lam):
        batch, prompts, enc, _ = _random_instance(67, c=4)
        cfg = LossConfig(cls_loss_weight=lam)
        for counts in ([7], [7, 3, 5, 2, 4]):
            stats = _stats(counts, 20)
            with pytest.raises(ConfigError, match="class counts disagree"):
                total_loss(batch, prompts, enc, stats, cfg)
            with pytest.raises(ConfigError, match="class counts disagree"):
                hinge_kink_mask(batch, prompts, enc, stats, cfg)

    @pytest.mark.parametrize("kind", ["db", "bce", "focal"])
    def test_logits_against_labels_and_stats(self, kind):
        rng = np.random.default_rng(68)
        z = rng.standard_normal((5, 4))
        labels = rng.integers(0, 2, size=(5, 4))
        cfg = LossConfig(cls_loss_kind=kind)
        cls_loss_on_logits(z, labels, _stats([7, 3, 5, 2], 20), cfg)
        for bad_labels, counts in [
            (labels, [7, 3, 5]),
            (labels, [7, 3, 5, 2, 4]),
            (labels[:, :3], [7, 3, 5, 2]),
            (labels[:4], [7, 3, 5, 2]),
        ]:
            with pytest.raises(ConfigError, match="disagree"):
                cls_loss_on_logits(z, bad_labels, _stats(counts, 20), cfg)


class TestLossConstants:
    """The per-class constants are kept on ClassStats across calls; a stats
    object shared by several configs must give what a fresh one gives."""

    @pytest.mark.parametrize(
        "first, second",
        [
            # the CLI's "full" and "plain-cse" variants
            (LossConfig(), LossConfig(use_class_aware_margin=False, use_reweighting=False)),
            (LossConfig(cls_loss_kind="db"), LossConfig(cls_loss_kind="bce")),
        ],
        ids=["full-vs-plain-cse", "db-vs-bce"],
    )
    def test_shared_stats_match_fresh_stats_bit_for_bit(self, first, second):
        batch, prompts, enc, stats = _random_instance(61)
        seen = []
        for cfg in (first, second, first):
            for need_grad in (False, True):
                fresh = ClassStats(stats.counts.copy(), stats.group, stats.num_samples)
                got = total_loss(batch, prompts, enc, stats, cfg, tau=0.7, need_grad=need_grad)
                want = total_loss(batch, prompts, enc, fresh, cfg, tau=0.7, need_grad=need_grad)
                assert (got.total, got.cls_part, got.cse_part) == (
                    want.total,
                    want.cls_part,
                    want.cse_part,
                )
                if need_grad:
                    assert np.array_equal(got.gradient, want.gradient)
            seen.append(got.total)
        assert seen[0] != seen[1]  # the two configs really differ

    def test_invalid_counts_raise_on_every_call(self):
        batch, prompts, enc, _ = _random_instance(62)
        group = ("tail",) * 4
        bad = ClassStats(np.array([3, 0, 5, 2]), group, 20)
        saturated = ClassStats(np.array([3, 20, 5, 2]), group, 20)
        for _ in range(2):
            with pytest.raises(ConfigError, match="invalid count"):
                total_loss(batch, prompts, enc, bad, LossConfig(), need_grad=False)
            with pytest.raises(NumericsError, match="infinite bias"):
                total_loss(batch, prompts, enc, saturated, LossConfig())
        # configs that never use the bias still evaluate on the saturated counts
        for cfg in (
            LossConfig(cls_loss_kind="bce"),
            LossConfig(cls_loss_kind="focal"),
            LossConfig(cls_loss_weight=0.0),
        ):
            assert np.isfinite(total_loss(batch, prompts, enc, saturated, cfg).total)


class TestKinkMask:
    def test_flags_engineered_kink(self):
        # caption orthogonal to every prompt embedding makes each negative
        # delta exactly 1.0; mu_base=1.0 with margins off puts the hinge
        # argument at exactly 0 for negatives
        d = 8
        enc = FrozenTextEncoder(np.eye(d))
        prompts = init_prompt_set(2, d, num_context_tokens=1, init_std=0.4, init_seed=6)
        emb = encode_all(enc, prompts).embeddings
        u, s, vt = np.linalg.svd(emb)
        cap = vt[-1]  # null-ish direction: orthogonal to both embeddings
        cap /= np.linalg.norm(cap)
        assert np.abs(emb @ cap).max() < 1e-10
        batch = Batch(cap[None, :], np.array([[1, 0]]), cap[None, :])
        cfg = LossConfig(
            use_class_aware_margin=False, use_reweighting=False, mu_base=1.0, cls_loss_weight=0.5
        )
        mask = hinge_kink_mask(batch, prompts, enc, _stats([4, 4]), cfg)
        assert mask.shape == prompts.contexts.shape
        assert mask[1].all()  # class 1 is the negative at the kink
        assert not mask[0].any()  # the positive class has no hinge

    def test_no_mask_when_embedding_loss_off(self):
        batch, prompts, enc, stats = _random_instance(53)
        cfg = LossConfig(cls_loss_weight=1.0)
        mask = hinge_kink_mask(batch, prompts, enc, stats, cfg)
        assert not mask.any()

    def test_shared_mode_masks_whole_block(self):
        d = 8
        enc = FrozenTextEncoder(np.eye(d))
        prompts = init_prompt_set(
            2, d, num_context_tokens=2, mode="shared", init_std=0.4, init_seed=6
        )
        emb = encode_all(enc, prompts).embeddings
        u, s, vt = np.linalg.svd(emb)
        cap = vt[-1]
        cap /= np.linalg.norm(cap)
        batch = Batch(cap[None, :], np.array([[1, 0]]), cap[None, :])
        cfg = LossConfig(use_class_aware_margin=False, use_reweighting=False, mu_base=1.0)
        mask = hinge_kink_mask(batch, prompts, enc, _stats([4, 4]), cfg)
        assert mask.shape == (1, 2, d)
        assert mask.all()


class TestMeanPositiveDelta:
    def test_hand_value(self):
        d = 4
        enc = FrozenTextEncoder(np.eye(d))
        prompts = init_prompt_set(2, d, num_context_tokens=1, init_std=0.5, init_seed=8)
        emb = encode_all(enc, prompts).embeddings
        # every caption sits exactly on its positive prompt embedding
        batch = Batch(emb.copy(), np.array([[1, 0], [0, 1]]), emb.copy())
        assert _delta(batch, prompts, enc) == pytest.approx(0.0, abs=1e-12)

    def test_averages_over_positives_only(self):
        d = 4
        enc = FrozenTextEncoder(np.eye(d))
        prompts = init_prompt_set(2, d, num_context_tokens=1, init_std=0.5, init_seed=9)
        emb = encode_all(enc, prompts).embeddings
        cap = emb[0]
        batch = Batch(cap[None, :], np.array([[1, 1]]), cap[None, :])
        want = 0.5 * ((1.0 - cap @ emb[0]) + (1.0 - cap @ emb[1]))
        assert _delta(batch, prompts, enc) == pytest.approx(float(want), abs=1e-12)

    def test_no_positives_rejected(self):
        d = 4
        enc = FrozenTextEncoder(np.eye(d))
        prompts = init_prompt_set(1, d, num_context_tokens=1, init_seed=10)
        cap = np.zeros(d)
        cap[0] = 1.0
        batch = Batch(cap[None, :], np.array([[0]]), cap[None, :])
        with pytest.raises(ConfigError):
            _delta(batch, prompts, enc)


class TestLossConfigValidation:
    def test_defaults_valid(self):
        LossConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(cls_loss_weight=-0.1),
            dict(cls_loss_weight=1.5),
            dict(eta=-1.0),
            dict(gamma_rw=-0.5),
            dict(gamma_focal=-1.0),
            dict(mu_base=-0.2),
            dict(db_zeta=0.5),
            dict(cls_loss_kind="hinge"),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            LossConfig(**kwargs)


class TestBoolLabels:
    """A label matrix gives the same bits as bool as it does as int64, in the
    same memory layout: every mask built from it has that layout, and so the
    same summation order."""

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("kind", ["db", "bce", "focal"])
    def test_int64_and_bool_labels_give_equal_results(self, kind, layout):
        from tailprompt.metrics import evaluate

        batch, prompts, enc, stats = _random_instance(41, b=48, c=9, d=16, dt=8, m=3)
        cfg = LossConfig(cls_loss_kind=kind, mu_base=0.9, use_class_aware_margin=False)
        ints = np.asarray(batch.labels, dtype=np.int64, order=layout)
        bools = np.asarray(batch.labels, dtype=bool, order=layout)
        z = np.asarray(batch.images @ encode_all(enc, prompts).embeddings.T, order=layout)
        results = []
        for labels in (ints, bools):
            one = Batch(batch.images, labels, batch.captions)
            value = total_loss(one, prompts, enc, stats, cfg, need_grad=False)
            graded = total_loss(one, prompts, enc, stats, cfg)
            logits = cls_loss_on_logits(z, labels, stats, cfg)
            ev = evaluate(z, labels, stats)
            results.append(
                (
                    (value.total, value.cls_part, value.cse_part),
                    (graded.total, graded.cls_part, graded.cse_part),
                    graded.gradient,
                    logits.total,
                    logits.gradient,
                    _delta(one, prompts, enc),
                    hinge_kink_mask(one, prompts, enc, stats, cfg),
                    ev.per_class_ap,
                    ev.maps(),
                )
            )
        for got, want in zip(results[1], results[0]):
            if isinstance(want, np.ndarray):
                assert np.array_equal(got, want, equal_nan=want.dtype != bool)
            else:
                assert got == want
