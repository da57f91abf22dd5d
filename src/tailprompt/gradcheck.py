"""Finite-difference certification of the analytic gradients.

The numeric side only ever evaluates loss values (need_grad=False), so its
independence from the analytic code path is structural, not a convention.
Hinge kinks are skipped, not smoothed: the loss is genuinely
non-differentiable there and a central difference would compare garbage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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

    analytic_grad may have length 1 on an axis of params, such as the
    pooled prompt gradient's token axis; it is broadcast to params' shape and
    compared at every coordinate. Coordinates where the boolean array skip
    (shaped like params) is True, such as hinge kinks, are not compared but
    counted.
    """
    params = np.asarray(params, dtype=np.float64)
    analytic = np.asarray(analytic_grad, dtype=np.float64)
    if analytic.ndim != params.ndim or any(
        a not in (p, 1) for a, p in zip(analytic.shape, params.shape)
    ):
        raise ConfigError("analytic gradient shape does not match the parameters")
    analytic = np.broadcast_to(analytic, params.shape)
    skip = np.zeros(params.shape, dtype=bool) if skip is None else np.asarray(skip, dtype=bool)
    if skip.shape != params.shape:
        raise ConfigError("skip mask shape does not match the parameters")
    return _compare(analytic, finite_diff_grad(loss_fn, params, STEP), skip)


def _compare(analytic: np.ndarray, reference: np.ndarray, skip: np.ndarray) -> GradCheckReport:
    """Per-coordinate relative error |a - b| / max(|a|, |b|, 1e-8) of analytic
    against reference over the coordinates skip leaves in; the report names the
    worst one."""
    num_skipped = int(skip.sum())
    compared = ~skip
    if not compared.any():
        return GradCheckReport(0.0, -1, num_skipped, True)

    finite = np.isfinite(analytic) & np.isfinite(reference)
    if not finite[compared].all():
        bad = np.flatnonzero(compared.ravel() & ~finite.ravel())
        return GradCheckReport(float("inf"), int(bad[0]), num_skipped, False)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(reference)), REL_ERROR_FLOOR)
    rel = np.abs(analytic - reference) / denom
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
    *,
    analytic: np.ndarray | None = None,
    skip: np.ndarray | None = None,
) -> GradCheckReport:
    """Certify the blended objective's gradient w.r.t. the prompt contexts,
    skipping the coordinates within KINK_GUARD of a hinge kink.

    analytic and skip are total_loss's gradient and hinge_kink_mask at
    (batch, prompts); they are computed here unless a caller that needs
    them too passes them in.
    """
    work = replace(prompts)

    def loss_fn(p: np.ndarray) -> float:
        # work holds finite_diff_grad's probe itself: no copy per evaluation
        work.contexts = p
        return total_loss(batch, work, encoder, stats, config, tau, need_grad=False).total

    if analytic is None:
        analytic = total_loss(batch, prompts, encoder, stats, config, tau, need_grad=True).gradient
    if skip is None:
        skip = hinge_kink_mask(batch, prompts, encoder, stats, config)
    return check(loss_fn, prompts.contexts, analytic, skip=skip)


def _pool_scale(num_context_tokens: int) -> float:
    # an M = 1 set pools by dividing by 2, an M-token set by M + 1
    return 2.0 / (num_context_tokens + 1.0)


def pooled_prompt_set(prompts: PromptSet) -> PromptSet:
    """The M = 1 PromptSet that pools to the same vector as prompts.

    With s = 2/(M+1), contexts s*sum_t contexts[:, t] and class tokens
    s*class_tokens pool to (sum_t c_t + k)/(M+1), in either prompt mode. At
    M = 1, s = 1 and the set is prompts' own values.
    """
    s = _pool_scale(prompts.num_context_tokens)
    return replace(
        prompts,
        contexts=s * prompts.contexts.sum(axis=1, keepdims=True),
        class_tokens=s * prompts.class_tokens,
    )


def check_training_state(
    batch: Batch,
    prompts: PromptSet,
    encoder: FrozenTextEncoder,
    stats: ClassStats,
    config: LossConfig,
    tau: float = 1.0,
) -> GradCheckReport:
    """Certify the gradient w.r.t. every context coordinate of prompts with
    1/M of the loss evaluations check_total_loss(prompts) would make.

    The encoder sees a class's M contexts only through their sum, so
    check_total_loss runs on pooled_prompt_set(prompts), with the pooled
    analytic gradient and kink mask this function reuses below. The analytic
    gradient of the training state, one row per block that broadcasts over
    its M tokens, must then equal s = 2/(M+1) times the pooled analytic
    gradient at every token; that comparison needs no loss evaluation and
    uses the same relative error and TOLERANCE, skipping the pooled kink mask
    broadcast over M. The report holds the worse of the two comparisons,
    with worst_index into prompts.contexts (a pooled coordinate is named at
    token 0) and num_skipped_kinks counted over prompts.contexts.
    """
    pooled = pooled_prompt_set(prompts)
    pooled_grad = total_loss(batch, pooled, encoder, stats, config, tau, need_grad=True).gradient
    skip = hinge_kink_mask(batch, pooled, encoder, stats, config)
    numeric = check_total_loss(
        batch, pooled, encoder, stats, config, tau, analytic=pooled_grad, skip=skip
    )
    if numeric.worst_index >= 0:
        block, dim = divmod(numeric.worst_index, prompts.token_dim)
        index = int(np.ravel_multi_index((block, 0, dim), prompts.contexts.shape))
        numeric = replace(numeric, worst_index=index)

    analytic = total_loss(batch, prompts, encoder, stats, config, tau, need_grad=True).gradient
    scaled = _pool_scale(prompts.num_context_tokens) * pooled_grad
    shape = prompts.contexts.shape
    exact = _compare(
        np.broadcast_to(analytic, shape),
        np.broadcast_to(scaled, shape),
        np.broadcast_to(skip, shape),
    )

    worst = max(numeric, exact, key=lambda report: report.max_rel_error)
    return replace(
        worst,
        num_skipped_kinks=exact.num_skipped_kinks,
        passed=numeric.passed and exact.passed,
    )


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
