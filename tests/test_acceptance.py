"""Acceptance gate: ten numbered end-to-end criteria.

Each test certifies one criterion at its stated tolerance and prints a
single PASS/FAIL line (visible under pytest -s); the pytest -v verdict for
each test doubles as the per-criterion pass/fail line. Criteria 5 and 6
share one set of training runs through a module-scoped fixture so the
whole gate stays inside the stated runtime budgets.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from tailprompt.cli import VARIANTS, main
from tailprompt.config import default_config, with_train
from tailprompt.data_model import Batch, ClassStats, group_classes
from tailprompt.encoders import FrozenTextEncoder, encode_all, init_prompt_set
from tailprompt.gradcheck import run_sweep
from tailprompt.losses import (
    LossConfig,
    class_margins,
    class_weights,
    cls_loss_on_logits,
    total_loss,
)
from tailprompt.metrics import average_precision
from tailprompt.synth import generate
from tailprompt.train import build_training_state, train

from oracles import (
    all_binary_label_patterns,
    brute_force_ap,
    cse_loss,
    cse_loss_scalar,
    db_loss,
    db_loss_scalar,
)

SEEDS = (101, 102, 103, 104, 105)

# ablation recipe: the criterion pins the dataset (default synthetic config)
# but not the optimizer settings, which are tuned so every variant converges
# inside the runtime budget
ABLATION_LR0 = 2.0
ABLATION_EPOCHS = 80


def _report(num: int, name: str, passed: bool, detail: str) -> None:
    line = f"criterion {num:2d} [{name}]: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


# ---------------------------------------------------------------- criterion 1


def test_criterion_01_gradient_certification():
    t0 = time.perf_counter()
    results = run_sweep(num_cases=120, base_seed=2026)
    elapsed = time.perf_counter() - t0

    worst = max(report.max_rel_error for _, report in results)
    lambdas = {case.config.cls_loss_weight for case, _ in results}
    modes = {case.prompts.mode for case, _ in results}
    margin_toggles = {case.config.use_class_aware_margin for case, _ in results}
    reweight_toggles = {case.config.use_reweighting for case, _ in results}

    ok = (
        len(results) >= 100
        and all(report.passed for _, report in results)
        and worst < 1e-4
        and lambdas == {0.0, 0.5, 1.0}
        and modes == {"class_specific", "shared"}
        and margin_toggles == {True, False}
        and reweight_toggles == {True, False}
        and elapsed < 60.0
    )
    _report(
        1,
        "gradient certification",
        ok,
        f"{len(results)} cases, max rel err {worst:.3e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 2


def _cse_instance(rng: np.random.Generator):
    c = int(rng.integers(2, 9))
    b = int(rng.integers(1, 17))
    d = int(rng.integers(4, 17))
    token_dim = int(rng.integers(3, 13))
    mode = "shared" if rng.integers(2) else "class_specific"
    encoder = FrozenTextEncoder.create(int(rng.integers(2**31)), token_dim, d)
    prompts = init_prompt_set(
        c,
        token_dim,
        num_context_tokens=int(rng.integers(1, 4)),
        mode=mode,
        init_std=float(rng.uniform(0.02, 0.5)),
        encoder_seed=encoder.seed,
        init_seed=int(rng.integers(2**31)),
    )
    captions = rng.standard_normal((b, d))
    captions /= np.linalg.norm(captions, axis=1, keepdims=True)
    images = rng.standard_normal((b, d))
    images /= np.linalg.norm(images, axis=1, keepdims=True)
    labels = (rng.random((b, c)) < 0.35).astype(np.int64)
    counts = rng.integers(1, 400, size=c)
    config = LossConfig(
        eta=float(rng.uniform(0.2, 2.0)),
        gamma_rw=float(rng.uniform(0.0, 2.0)),
        mu_base=float(rng.uniform(0.0, 0.6)),
        use_class_aware_margin=bool(rng.integers(2)),
        use_reweighting=bool(rng.integers(2)),
    )
    return Batch(images, labels, captions), prompts, encoder, counts, config


def test_criterion_02_scalar_oracle_equivalence():
    t0 = time.perf_counter()
    worst_cse = 0.0
    for i in range(1000):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=520, spawn_key=(i,)))
        batch, prompts, encoder, counts, config = _cse_instance(rng)
        got = cse_loss(batch, prompts, encoder, counts, config, need_grad=False).cse_part
        want = cse_loss_scalar(
            batch.captions,
            batch.labels,
            encode_all(encoder, prompts).embeddings,
            counts,
            eta=config.eta,
            gamma_rw=config.gamma_rw,
            mu_base=config.mu_base,
            use_class_aware_margin=config.use_class_aware_margin,
            use_reweighting=config.use_reweighting,
        )
        worst_cse = max(worst_cse, abs(got - want))

    worst_db = 0.0
    for i in range(1000):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=521, spawn_key=(i,)))
        c = int(rng.integers(2, 9))
        b = int(rng.integers(1, 17))
        num_samples = int(rng.integers(50, 2001))
        counts = rng.integers(1, max(2, num_samples // 2), size=c)
        z = 3.0 * rng.standard_normal((b, c))
        labels = (rng.random((b, c)) < 0.4).astype(np.int64)
        config = LossConfig(
            db_alpha=float(rng.uniform(0.0, 0.5)),
            db_beta=float(rng.uniform(0.0, 20.0)),
            db_theta=float(rng.uniform(0.05, 0.5)),
            db_kappa=float(rng.uniform(0.0, 0.2)),
            db_zeta=float(rng.uniform(1.0, 8.0)),
            gamma_focal=float(rng.integers(0, 4)),
        )
        got = db_loss(z, labels, counts, num_samples, config, need_grad=False).cls_part
        want = db_loss_scalar(
            z,
            labels,
            counts,
            num_samples,
            alpha=config.db_alpha,
            beta=config.db_beta,
            theta=config.db_theta,
            kappa=config.db_kappa,
            zeta=config.db_zeta,
            gamma_focal=config.gamma_focal,
        )
        worst_db = max(worst_db, abs(got - want))

    elapsed = time.perf_counter() - t0
    ok = worst_cse <= 1e-12 and worst_db <= 1e-12 and elapsed < 30.0
    _report(
        2,
        "scalar oracle equivalence",
        ok,
        f"1000+1000 instances, worst |diff| cse {worst_cse:.2e} db {worst_db:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 3


def test_criterion_03_average_precision_oracle():
    rng = np.random.default_rng(33)
    checked = 0
    exact = True
    for n in range(1, 7):
        for pattern in all_binary_label_patterns(n):
            labels = np.array(pattern, dtype=np.int64)
            for _ in range(20):
                scores = rng.standard_normal(n)
                exact = exact and (
                    average_precision(scores, labels) == brute_force_ap(scores, labels)
                )
                checked += 1
    _report(3, "average precision oracle", exact, f"{checked} exact comparisons, n <= 6")


# ---------------------------------------------------------------- criterion 4


def test_criterion_04_reduction_identities():
    rng = np.random.default_rng(44)
    ok = True

    # gamma_rw = 0 -> exactly uniform 1/C; eta = 0 -> exactly zero margins
    for c in (1, 3, 7, 20):
        counts = rng.integers(1, 500, size=c)
        ok = ok and np.array_equal(class_weights(counts, 0.0), np.full(c, 1.0 / c))
        ok = ok and np.array_equal(class_margins(counts, 0.0), np.zeros(c))

    # both toggles off -> bit-equal to a direct flat-margin implementation
    batch, prompts, encoder, counts, _ = _cse_instance(np.random.default_rng(45))
    flat = LossConfig(use_class_aware_margin=False, use_reweighting=False, mu_base=0.3)
    got = cse_loss(batch, prompts, encoder, counts, flat, need_grad=False).cse_part
    embeddings = encode_all(encoder, prompts).embeddings
    dl = 1.0 - batch.captions @ embeddings.T
    terms = np.where(batch.labels == 1, dl, np.maximum(0.0, flat.mu_base - dl))
    ok = ok and got == float(terms.sum(axis=1).mean())

    # lambda endpoints reproduce the pure losses bit-exactly, gradient included
    stats = ClassStats(counts, group_classes(counts, head_min=200, tail_max=50), int(counts.sum()))
    for kind in ("db", "bce", "focal"):
        cfg = LossConfig(cls_loss_weight=1.0, cls_loss_kind=kind)
        blended = total_loss(batch, prompts, encoder, stats, cfg)
        z = batch.images @ embeddings.T
        pure = cls_loss_on_logits(z, batch.labels, stats, cfg)
        ok = ok and blended.total == pure.total
    cfg = LossConfig(cls_loss_weight=0.0)
    blended = total_loss(batch, prompts, encoder, stats, cfg)
    pure = cse_loss(batch, prompts, encoder, stats.counts, cfg)
    ok = ok and blended.total == pure.total
    ok = ok and np.array_equal(blended.gradient, pure.gradient)

    _report(4, "reduction identities", ok, "uniform weights, zero margins, flat margin, both endpoints bit-exact")


# ------------------------------------------------------- criteria 5 and 6


@pytest.fixture(scope="module")
def ablation_runs():
    """20 training runs shared by criteria 5 and 6: 4 variants x 5 seeds on
    the default synthetic dataset."""
    t0 = time.perf_counter()
    base = with_train(
        default_config(), lr0=ABLATION_LR0, epochs=ABLATION_EPOCHS, eval_every=ABLATION_EPOCHS
    )
    dataset = generate(base.synth)
    records = {}
    for name in ("full", "no-cse", "plain-cse", "bce"):
        variant = VARIANTS[name](base)
        records[name] = [train(dataset, with_train(variant, seed=s).train) for s in SEEDS]
    return records, time.perf_counter() - t0


def _mean_tail(records) -> float:
    return float(np.mean([r.final_eval.map_tail for r in records]))


def test_criterion_05_directional_ablation(ablation_runs):
    records, elapsed = ablation_runs
    full = _mean_tail(records["full"])
    no_cse = _mean_tail(records["no-cse"])
    plain = _mean_tail(records["plain-cse"])

    gap = full - no_cse  # (a): adding the embedding loss at lambda=0.5
    deficit = plain - full  # (b): margins + re-weighting vs the plain variant
    ok = gap >= 0.03 and deficit <= 0.005 and elapsed < 300.0
    _report(
        5,
        "directional ablation",
        ok,
        f"tail gap {gap * 100:+.2f} pts (need >= 3), margin/reweight deficit "
        f"{deficit * 100:.2f} pts (allowed 0.5), 5-seed means, {elapsed:.0f}s",
    )


def test_criterion_06_classification_loss_ordering(ablation_runs):
    records, _ = ablation_runs
    db_tail = _mean_tail(records["full"])
    bce_tail = _mean_tail(records["bce"])
    ok = db_tail >= bce_tail - 0.005
    _report(
        6,
        "classification loss ordering",
        ok,
        f"tail mAP db {db_tail:.4f} vs bce {bce_tail:.4f}, 5-seed means",
    )


# ---------------------------------------------------------------- criterion 7


def test_criterion_07_caption_alignment():
    config = default_config()  # true defaults: 30 epochs, lr0 5e-3
    dataset = generate(config.synth)
    drops = []
    for seed in SEEDS:
        record = train(dataset, with_train(config, seed=seed).train)
        first = record.initial.mean_pos_delta
        last = record.history[-1].mean_pos_delta
        drops.append(first - last)
    ok = all(d > 0 for d in drops)
    _report(
        7,
        "caption alignment",
        ok,
        f"mean positive delta drop over 30 epochs, 5 seeds, min {min(drops):.4f}",
    )


# ---------------------------------------------------------------- criterion 8


def test_criterion_08_rerun_determinism(tmp_path):
    doc = {
        "synth": {"num_classes": 6, "num_samples": 200, "dim": 32, "seed": 5},
        "train": {"epochs": 4, "batch_size": 32, "lr0": 0.1, "head_min": 30, "tail_max": 10},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))

    outputs = []
    for run_dir in (tmp_path / "a", tmp_path / "b"):
        code = main(["train", "--config", str(config_path), "--out", str(run_dir)])
        assert code == 0
        outputs.append(
            (
                (run_dir / "metrics.csv").read_bytes(),
                (run_dir / "prompts.ckpt.json").read_bytes(),
            )
        )
    ok = outputs[0] == outputs[1]
    _report(8, "rerun determinism", ok, "metrics.csv and prompts.ckpt.json byte-identical")


# ---------------------------------------------------------------- criterion 9


def test_criterion_09_frozen_parameter_audit():
    config = with_train(default_config(), epochs=3, lr0=0.5)
    dataset = generate(config.synth)
    before = {
        "images": _sha(dataset.images),
        "captions": _sha(dataset.captions),
    }
    _, encoder, prompts = build_training_state(dataset, config.train)
    projection_before = _sha(encoder.projection)
    tokens_before = _sha(prompts.class_tokens)

    record = train(dataset, config.train)

    ok = (
        _sha(dataset.images) == before["images"]
        and _sha(dataset.captions) == before["captions"]
        and _sha(record.encoder.projection) == projection_before
        and _sha(record.prompts.class_tokens) == tokens_before
    )
    _report(
        9,
        "frozen parameter audit",
        ok,
        "encoder projection, class tokens, dataset embeddings unchanged",
    )


# --------------------------------------------------------------- criterion 10


def test_criterion_10_no_published_benchmark_numbers():
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()

    # the README must state that published large-scale benchmark figures are
    # out of scope and point at the directional criteria instead
    states_scope = "out of scope" in readme
    points_at_evidence = "criteria 5" in readme and "7" in readme

    # and no deliverable may assert such a figure; the canonical example
    # total-mAP value must not appear anywhere in the package or its tests
    needle = "87" + ".88"
    hits = []
    for path in sorted((root / "src").rglob("*.py")) + sorted((root / "tests").rglob("*.py")):
        if needle in path.read_text():
            hits.append(str(path))
    if needle in readme:
        hits.append("README.md")

    ok = states_scope and points_at_evidence and not hits
    _report(
        10,
        "published benchmarks out of scope",
        ok,
        f"README states scope: {states_scope}, points at criteria 5-7: {points_at_evidence}, "
        f"stray figures: {hits or 'none'}",
    )
