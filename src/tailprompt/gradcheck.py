"""Finite-difference certification of the analytic gradients.

The numeric side only ever evaluates loss values (need_grad=False), so its
independence from the analytic code path is structural, not a convention.
Hinge kinks are skipped, not smoothed: the loss is genuinely
non-differentiable there and a central difference would compare garbage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import Batch, ClassStats, group_classes
from .encoders import PROMPT_MODES, FrozenTextEncoder, PromptSet, init_prompt_set
from .errors import ConfigError
from .losses import CLS_LOSS_KINDS, LossConfig, hinge_kink_mask, total_loss
from .seeding import unit_rows

REL_ERROR_FLOOR = 1e-8
TOLERANCE = 1e-4  # a check passes below this relative error
STEP = 1e-5  # central-difference step h
SWEEP_CASES = 120
SWEEP_SEED = 2026


@dataclass(frozen=True)
class GradCheckReport:
    """Outcome of one analytic-vs-numeric comparison.

    worst_index is a flat coordinate into the parameter array (-1 when every
    coordinate was skipped). passed means max_rel_error < TOLERANCE over the
    compared coordinates and everything involved was finite.
    """

    max_rel_error: float
    worst_index: int
    num_skipped_kinks: int
    passed: bool


def finite_diff_grad(loss_fn, params: np.ndarray, step: float) -> np.ndarray:
    """Central differences (f(p + h e_j) - f(p - h e_j)) / 2h per coordinate.

    Every call gets the same probe array, a copy of params: coordinate j is
    moved for its two evaluations and then restored from params, which this
    function never changes. loss_fn must therefore not keep a reference to
    its argument, and must be deterministic; non-finite values flow into the
    estimate and surface as a failed check rather than an exception.
    """
    if step <= 0:
        raise ConfigError("step must be > 0")
    params = np.asarray(params, dtype=np.float64)
    probe = params.copy()
    flat_probe = probe.reshape(-1)  # a view: writes land in probe
    flat_params = params.reshape(-1)
    grad = np.empty(params.size)
    for j in range(params.size):
        value = flat_params[j]
        flat_probe[j] = value + step
        up = loss_fn(probe)
        flat_probe[j] = value - step
        down = loss_fn(probe)
        flat_probe[j] = value
        grad[j] = (up - down) / (2.0 * step)
    return grad.reshape(params.shape)


def check(
    loss_fn,
    params: np.ndarray,
    analytic_grad: np.ndarray,
    skip: np.ndarray | None = None,
) -> GradCheckReport:
    """Compare the analytic gradient against central differences of step STEP.

    Per-coordinate relative error |a - b| / max(|a|, |b|, 1e-8); coordinates
    where the boolean array skip (shaped like params) is True, such as hinge
    kinks, are not compared but counted.
    """
    params = np.asarray(params, dtype=np.float64)
    analytic = np.asarray(analytic_grad, dtype=np.float64)
    if analytic.shape != params.shape:
        raise ConfigError("analytic gradient shape does not match the parameters")
    skip = np.zeros(params.shape, dtype=bool) if skip is None else np.asarray(skip, dtype=bool)
    if skip.shape != params.shape:
        raise ConfigError("skip mask shape does not match the parameters")
    numeric = finite_diff_grad(loss_fn, params, STEP)

    num_skipped = int(skip.sum())
    compared = ~skip
    if not compared.any():
        return GradCheckReport(0.0, -1, num_skipped, True)

    finite = np.isfinite(analytic) & np.isfinite(numeric)
    if not finite[compared].all():
        bad = np.flatnonzero(compared.ravel() & ~finite.ravel())
        return GradCheckReport(float("inf"), int(bad[0]), num_skipped, False)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), REL_ERROR_FLOOR)
    rel = np.abs(analytic - numeric) / denom
    rel[skip] = -1.0  # never selected as the worst coordinate
    worst = int(np.argmax(rel))
    worst_value = float(rel.ravel()[worst])
    return GradCheckReport(worst_value, worst, num_skipped, worst_value < TOLERANCE)


def check_total_loss(
    batch: Batch,
    prompts: PromptSet,
    encoder: FrozenTextEncoder,
    stats: ClassStats,
    config: LossConfig,
    tau: float = 1.0,
) -> GradCheckReport:
    """Certify the blended objective's gradient w.r.t. the prompt contexts,
    skipping the coordinates within KINK_GUARD of a hinge kink."""
    work = PromptSet(
        contexts=prompts.contexts,
        class_tokens=prompts.class_tokens,
        mode=prompts.mode,
        encoder_seed=prompts.encoder_seed,
    )

    def loss_fn(p: np.ndarray) -> float:
        # work holds finite_diff_grad's probe itself: no copy per evaluation
        work.contexts = p
        return total_loss(batch, work, encoder, stats, config, tau, need_grad=False).total

    analytic = total_loss(batch, prompts, encoder, stats, config, tau, need_grad=True).gradient
    skip = hinge_kink_mask(batch, prompts, encoder, stats, config)
    return check(loss_fn, prompts.contexts, analytic, skip=skip)


@dataclass(frozen=True)
class SweepCase:
    """One randomized small instance of the full objective."""

    description: str
    batch: Batch
    prompts: PromptSet
    encoder: FrozenTextEncoder
    stats: ClassStats
    config: LossConfig
    tau: float


_SWEEP_LAMBDAS = (0.0, 0.5, 1.0)
_SWEEP_TOGGLES = ((True, True), (True, False), (False, True), (False, False))


def sweep_cases(num_cases: int = SWEEP_CASES, base_seed: int = SWEEP_SEED) -> list[SweepCase]:
    """Deterministic battery of small instances cycling through every
    combination of blend weight, prompt mode, margin/re-weighting toggles,
    and classification loss kind.

    Instances are kept small so 2*P loss evaluations per case stay cheap, and
    moderate in scale so gradients are far from the relative-error floor.
    """
    if num_cases < 1:
        raise ConfigError("num_cases must be >= 1")
    if base_seed < 0:
        raise ConfigError("base_seed must be >= 0")
    cells = [
        (lam, mode, margin_rw)
        for lam in _SWEEP_LAMBDAS
        for mode in PROMPT_MODES
        for margin_rw in _SWEEP_TOGGLES
    ]
    cases = []
    for i in range(num_cases):
        lam, mode, (use_margin, use_rw) = cells[i % len(cells)]
        kind = CLS_LOSS_KINDS[i % len(CLS_LOSS_KINDS)]
        rng = np.random.default_rng(np.random.SeedSequence(entropy=base_seed, spawn_key=(i,)))
        num_classes = int(rng.integers(2, 7))
        batch_size = int(rng.integers(2, 9))
        dim = int(rng.integers(6, 13))
        token_dim = int(rng.integers(4, 9))
        num_context = int(rng.integers(1, 4))

        images = unit_rows(rng, batch_size, dim)
        captions = unit_rows(rng, batch_size, dim)
        labels = rng.integers(0, 2, size=(batch_size, num_classes))
        labels[rng.integers(0, batch_size), rng.integers(0, num_classes)] = 1
        batch = Batch(images=images, labels=labels, captions=captions)

        counts = rng.integers(1, 41, size=num_classes)
        num_samples = int(counts.max()) + int(rng.integers(1, 50))
        stats = ClassStats(counts, group_classes(counts, head_min=30, tail_max=5), num_samples)

        encoder = FrozenTextEncoder.create(
            seed=base_seed + 7 * i, token_dim=token_dim, dim=dim
        )
        prompts = init_prompt_set(
            num_classes=num_classes,
            token_dim=token_dim,
            num_context_tokens=num_context,
            mode=mode,
            init="gaussian",
            init_std=0.5,  # spread prompts out so gradients are not vanishingly small
            encoder_seed=encoder.seed,
            init_seed=base_seed + 13 * i + 1,
        )
        config = LossConfig(
            cls_loss_weight=lam,
            use_class_aware_margin=use_margin,
            use_reweighting=use_rw,
            cls_loss_kind=kind,
            eta=float(rng.uniform(0.5, 1.5)),
            gamma_rw=float(rng.uniform(0.0, 2.0)),
            db_zeta=float(rng.uniform(1.0, 5.0)),
            gamma_focal=float(rng.choice([0.0, 1.0, 2.0])),
        )
        tau = float(rng.uniform(0.5, 1.5))
        cases.append(
            SweepCase(
                description=(
                    f"case {i:03d}: lam={lam} mode={mode} margin={use_margin} "
                    f"rw={use_rw} kind={kind} C={num_classes} B={batch_size} "
                    f"d={dim} dt={token_dim} M={num_context}"
                ),
                batch=batch,
                prompts=prompts,
                encoder=encoder,
                stats=stats,
                config=config,
                tau=tau,
            )
        )
    return cases


def run_sweep(
    num_cases: int = SWEEP_CASES, base_seed: int = SWEEP_SEED
) -> list[tuple[SweepCase, GradCheckReport]]:
    """Run check_total_loss on every sweep case; shared by CLI and tests."""
    return [
        (
            case,
            check_total_loss(
                case.batch, case.prompts, case.encoder, case.stats, case.config, tau=case.tau
            ),
        )
        for case in sweep_cases(num_cases, base_seed)
    ]
