"""Command-line entry point.

Subcommands: synth, train, eval, gradcheck, sweep. Exit codes: 0 success,
1 validation error, 2 numerical failure, 3 gradient check failure. Every
random choice comes from seeds in the config; nothing reads the clock or OS
entropy, so reruns with the same flags reproduce output files byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .config import (
    RunConfigFile,
    config_to_dict,
    default_config,
    load_config,
    with_loss,
    with_prompt,
    with_synth,
    with_train,
)
from .data_model import class_counts, group_classes, load_dataset, save_dataset
from .encoders import MODE_SHARED
from .errors import ConfigError, NumericsError, read_json
from .gradcheck import SWEEP_CASES, SWEEP_SEED, check_training_state, run_sweep
from .losses import CLS_LOSS_KINDS
from .metrics import MAP_KEYS
from .seeding import DOMAIN_TRAIN, substream
from .synth import generate
from .train import (
    build_training_state,
    checkpoint_from_dict,
    refuse_nonempty_dir,
    stack_key,
    train,
    train_stack,
    write_run_dir,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICS = 2
EXIT_GRADCHECK = 3

_GRADCHECK_BATCH_STREAM = 1
_GRADCHECK_BATCH_SIZE = 8

# Named run variants: each entry rewrites the effective config. "full" is the
# complete objective; the no-* entries switch single ingredients off; the
# loss names swap the classification term; coop is the shared-context,
# classification-only setup; linear-probe drops prompts entirely.
VARIANTS = {
    "full": lambda c: c,
    "no-cse": lambda c: with_loss(c, cls_loss_weight=1.0, use_embedding_loss=False),
    "no-margin": lambda c: with_loss(c, use_class_aware_margin=False),
    "no-reweight": lambda c: with_loss(c, use_reweighting=False),
    "plain-cse": lambda c: with_loss(c, use_class_aware_margin=False, use_reweighting=False),
    "db": lambda c: with_loss(c, cls_loss_kind="db"),
    "bce": lambda c: with_loss(c, cls_loss_kind="bce"),
    "focal": lambda c: with_loss(c, cls_loss_kind="focal"),
    "coop": lambda c: with_prompt(
        with_loss(c, cls_loss_weight=1.0, use_embedding_loss=False), mode=MODE_SHARED
    ),
    "linear-probe": lambda c: with_train(c, baseline="linear_probe"),
}

ABLATIONS = ("no-cse", "no-margin", "no-reweight", "plain-cse")


class _Parser(argparse.ArgumentParser):
    # flags must be spelled in full; subcommand parsers are _Parsers too
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits with code 2 on usage errors, which collides with the
    # numerical-failure code; route usage errors through ConfigError instead
    def error(self, message):
        raise ConfigError(message)


def _load_or_default_config(path) -> RunConfigFile:
    if path is None:
        return default_config()
    return load_config(path)


def _resolve_dataset(args, config: RunConfigFile):
    if getattr(args, "data", None) is not None:
        return load_dataset(args.data)
    return generate(config.synth)


def _refuse_existing_file(path: Path, force: bool) -> None:
    if path.is_dir():
        raise ConfigError(f"{path} is a directory")
    if path.exists() and not force:
        raise ConfigError(f"{path} already exists (use --force to overwrite)")
    refuse_nonempty_dir(path.parent, force=True)  # no file where its directory goes


def _fmt(value) -> str:
    return "absent" if value is None else f"{value:.4f}"


def _map_summary(maps: dict) -> str:
    """'map_total=... head=... medium=... tail=...' for an EvalResult's maps()."""
    return " ".join(
        f"{key if key == MAP_KEYS[0] else key.removeprefix('map_')}={_fmt(value)}"
        for key, value in maps.items()
    )


def cmd_synth(args) -> int:
    config = _load_or_default_config(args.config)
    overrides = {}
    if args.classes is not None:
        overrides["num_classes"] = args.classes
    if args.samples is not None:
        overrides["num_samples"] = args.samples
    if args.dim is not None:
        overrides["dim"] = args.dim
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        config = with_synth(config, **overrides)

    out = Path(args.out)
    _refuse_existing_file(out, args.force)
    dataset = generate(config.synth)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(dataset, out)

    counts = class_counts(dataset)
    groups = group_classes(counts, config.train.head_min, config.train.tail_max)
    print(f"wrote {dataset.num_samples} samples x {dataset.num_classes} classes to {out}")
    print(f"{'class':<12}{'count':>8}  group")
    for name, count, group in zip(dataset.class_names, counts, groups, strict=True):
        print(f"{name:<12}{int(count):>8}  {group}")
    return EXIT_OK


def _apply_train_flags(args, config: RunConfigFile) -> RunConfigFile:
    if args.seed is not None:
        config = with_train(config, seed=args.seed)
    for name in args.ablation or []:
        config = VARIANTS[name](config)
    if args.loss is not None:
        config = VARIANTS[args.loss](config)
    return config


def _coordinate_name(flat_index: int, contexts_shape) -> str:
    """' (class c, token t, dim k)' for a flat index into prompt contexts. In
    shared mode the class is always 0: one block serves every class."""
    c, t, k = np.unravel_index(flat_index, contexts_shape)
    return f" (class {c}, token {t}, dim {k})"


def _pretrain_gradcheck(dataset, config: RunConfigFile) -> int:
    """Certify the gradient on a sampled batch of the exact training state.

    check_training_state finite-differences the pooled coordinates, one per
    class (one in shared mode) and token dimension, and compares each of the
    M context tokens' analytic gradient with the pooled one exactly. A
    failure names the training-state coordinate.
    """
    tc = config.train
    stats, encoder, prompts = build_training_state(dataset, tc)
    rng = substream(tc.seed, DOMAIN_TRAIN, _GRADCHECK_BATCH_STREAM)
    size = min(_GRADCHECK_BATCH_SIZE, dataset.num_samples)
    indices = np.sort(rng.choice(dataset.num_samples, size=size, replace=False))
    report = check_training_state(
        dataset.batch(indices), prompts, encoder, stats, tc.loss, tau=tc.tau
    )
    if not report.passed:
        print(
            "gradcheck failed before training: "
            f"max rel error {report.max_rel_error:.3e} at coordinate {report.worst_index}"
            f"{_coordinate_name(report.worst_index, prompts.contexts.shape)}",
            file=sys.stderr,
        )
        return EXIT_GRADCHECK
    pooled_coords = prompts.contexts.size // prompts.num_context_tokens
    print(
        f"gradcheck passed on a {size}-sample batch "
        f"(max rel error {report.max_rel_error:.3e}, "
        f"{pooled_coords} pooled coordinates finite-differenced, "
        f"{report.num_skipped_kinks} kink coordinates skipped)"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    config = _apply_train_flags(args, _load_or_default_config(args.config))
    refuse_nonempty_dir(args.out, args.force)
    dataset = _resolve_dataset(args, config)

    if not args.skip_gradcheck and config.train.baseline == "none":
        status = _pretrain_gradcheck(dataset, config)
        if status != EXIT_OK:
            return status

    record = train(dataset, config.train)
    write_run_dir(args.out, record, config_to_dict(config), force=args.force)
    if record.failed:
        print(f"run aborted: {record.abort_reason}", file=sys.stderr)
        return EXIT_NUMERICS
    print(
        f"finished {record.epochs_completed} epochs in {record.wall_seconds:.2f}s: "
        f"{_map_summary(record.final_eval.maps())}"
    )
    print(f"run directory: {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    config = _load_or_default_config(args.config)
    if args.out is not None:
        _refuse_existing_file(Path(args.out), args.force)
    dataset = _resolve_dataset(args, config)
    head = checkpoint_from_dict(read_json(args.ckpt, "checkpoint"), dataset, config.train)
    lines = head.evaluate(dataset).maps()
    for key, value in lines.items():
        print(f"{key} {_fmt(value)}")
    if args.out is not None:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(lines, indent=2) + "\n")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = run_sweep(num_cases=args.cases, base_seed=args.seed)
    failures = [(case, report) for case, report in results if not report.passed]
    worst = max(report.max_rel_error for _, report in results)
    skipped = sum(report.num_skipped_kinks for _, report in results)
    for case, report in failures:
        print(
            f"FAIL {case.description}: max rel error {report.max_rel_error:.3e} "
            f"at coordinate {report.worst_index}"
            f"{_coordinate_name(report.worst_index, case.prompts.contexts.shape)}",
            file=sys.stderr,
        )
    print(
        f"gradcheck: {len(results) - len(failures)}/{len(results)} cases passed, "
        f"worst rel error {worst:.3e}, {skipped} kink coordinates skipped"
    )
    return EXIT_OK if not failures else EXIT_GRADCHECK


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as err:
        raise ConfigError(f"invalid --seeds list: {err}") from err
    if not seeds:
        raise ConfigError("--seeds must name at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("duplicate seed in --seeds")
    return seeds


def _std(values: list[float]) -> float:
    return float(np.std(np.asarray(values, dtype=np.float64)))  # population std


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has sched_getaffinity
        return os.cpu_count() or 1


def _shares(jobs: list, workers: int, key) -> list[list[list]]:
    """Split jobs into at most workers fixed shares of chunks, where
    key(job) is a job's stacking key (None: the job trains alone).

    Jobs with an equal key form a group, in job order. Each group is cut
    into chunks of at most ceil(len(jobs) / workers) jobs, and each chunk,
    in the order of its first job, goes to the share that holds the fewest
    jobs so far (the lowest index on a tie). Fewer chunks than workers
    leave shares empty, and those are dropped.
    """
    groups: dict = {}
    for index, job in enumerate(jobs):
        group_key = key(job)
        groups.setdefault(index if group_key is None else (group_key,), []).append(index)
    size = math.ceil(len(jobs) / workers)
    chunks = sorted(
        group[i : i + size] for group in groups.values() for i in range(0, len(group), size)
    )
    shares: list[list[list]] = [[] for _ in range(workers)]
    for chunk in chunks:
        share = min(shares, key=lambda share: sum(map(len, share)))
        share.append([jobs[i] for i in chunk])
    return [share for share in shares if share]


def _stacked_records(dataset, configs: list):
    """Each run's record from one train_stack of the runs, or None when the
    stack met anything a run alone would report: a ConfigError or
    NumericsError, a warning, or an aborted run. Its runs then train alone."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            records = train_stack(dataset, configs)
        except (ConfigError, NumericsError):
            return None
    if caught or any(record.failed for record in records):
        return None
    return records


def _run_share(dataset, share, force: bool) -> dict:
    """Train each chunk of (index, run_dir, run_config) jobs and write their
    run directories; {index: outcome} of the jobs trained.

    A chunk of several runs trains as one stack (train.train_stack); when
    the stack meets anything a run alone would report, each of its runs
    trains alone instead, in job order. Each outcome is (issued, result).
    issued lists the run's warnings as (category, message, filename,
    lineno), for the parent to re-issue next to the run's line; a stack
    that trained issued none. result is (failed, abort_reason, maps), with
    maps None for a failed run, or the run's ConfigError or NumericsError:
    the share then trains no job after it, as a serial sweep would not.
    """
    outcomes = {}
    stop = math.inf
    for chunk in share:
        chunk = [job for job in chunk if job[0] < stop]
        records = None
        if len(chunk) > 1:
            records = _stacked_records(dataset, [run_config.train for *_, run_config in chunk])
        for position, (index, run_dir, run_config) in enumerate(chunk):
            with warnings.catch_warnings(record=True) as caught:
                try:
                    record = records[position] if records else train(dataset, run_config.train)
                    write_run_dir(run_dir, record, config_to_dict(run_config), force=force)
                    maps = None if record.failed else record.final_eval.maps()
                    result = (record.failed, record.abort_reason, maps)
                except (ConfigError, NumericsError) as err:
                    result = err
            issued = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
            outcomes[index] = (issued, result)
            if isinstance(result, Exception):
                stop = index
                break
    return outcomes


_inherited_dataset = None  # set in each forked sweep worker by its pool's initializer


def _inherit_dataset(dataset) -> None:
    global _inherited_dataset
    _inherited_dataset = dataset


def _run_inherited_share(share, force: bool) -> dict:
    return _run_share(_inherited_dataset, share, force)


def _run_shares(dataset, shares: list[list], force: bool) -> list[dict]:
    """Each share's outcomes: share 0 runs in this process, every other share
    in one of len(shares) - 1 forked workers.

    Fork start hands the workers the dataset by inheritance, not by pickling
    (about 200 MB at 50k x 200 x 256). The pool is imported only when it is
    used, because the import costs RSS.
    """
    if len(shares) == 1:
        return [_run_share(dataset, shares[0], force)]
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    with ProcessPoolExecutor(
        max_workers=len(shares) - 1,
        mp_context=get_context("fork"),
        initializer=_inherit_dataset,
        initargs=(dataset,),
    ) as pool:
        futures = [pool.submit(_run_inherited_share, share, force) for share in shares[1:]]
        return [_run_share(dataset, shares[0], force), *(f.result() for f in futures)]


def cmd_sweep(args) -> int:
    """Train every (variant, seed) run, write its run directory and sweep.csv.

    Runs whose configs share a train.stack_key train as one stack, and the
    runs are split by a fixed rule (_shares) into at most min(runs, usable
    cores) shares, one process each. Each run is seeded on its own and keeps
    its bits in a stack, so every output byte is the same as in a serial
    sweep. The per-run lines are printed in order once all runs have
    finished, each run's warnings just before its line.
    """
    config = _load_or_default_config(args.config)
    variants = args.variant or []
    if not variants:
        raise ConfigError("sweep needs at least one --variant")
    seen = set()
    for name in variants:
        if name not in VARIANTS:
            raise ConfigError(f"unknown variant {name!r}; available: {', '.join(sorted(VARIANTS))}")
        if name in seen:
            raise ConfigError(f"duplicate variant {name!r}")
        seen.add(name)
    seeds = [config.train.seed] if args.seeds is None else _parse_seeds(args.seeds)

    out_root = Path(args.out)
    summary_path = out_root / "sweep.csv"
    _refuse_existing_file(summary_path, args.force)
    jobs = []
    for name in variants:
        for seed in seeds:
            run_dir = out_root / name / f"seed-{seed}"
            refuse_nonempty_dir(run_dir, args.force)
            jobs.append((len(jobs), run_dir, with_train(VARIANTS[name](config), seed=seed)))
    dataset = _resolve_dataset(args, config)

    workers = min(len(jobs), _usable_cores())
    shares = _shares(jobs, workers, key=lambda job: stack_key(job[2].train))
    done = {}
    for share_outcomes in _run_shares(dataset, shares, args.force):
        done.update(share_outcomes)
    # A share trains no job after its first error, so the outcomes are read
    # lazily, in job order: a missing one lies after an error that has
    # already been raised.
    outcomes = (done[i] for i in range(len(jobs)))

    rows = []
    for name in variants:
        collected: dict[str, list[float]] = {m: [] for m in MAP_KEYS}
        n_failed = 0
        for seed in seeds:
            issued, result = next(outcomes)
            for category, message, filename, lineno in issued:
                warnings.warn_explicit(message, category, filename, lineno)
            if isinstance(result, Exception):
                raise result
            failed, abort_reason, maps = result
            if failed:
                n_failed += 1
                print(f"{name} seed={seed}: FAILED ({abort_reason})", file=sys.stderr)
                continue
            for metric, value in maps.items():
                if value is not None:
                    collected[metric].append(value)
            print(f"{name} seed={seed}: {_map_summary(maps)}")
        row = {"variant": name, "runs": len(seeds), "failed": n_failed}
        for metric in MAP_KEYS:
            values = collected[metric]
            row[f"{metric}_mean"] = repr(float(np.mean(values))) if values else ""
            row[f"{metric}_std"] = repr(_std(values)) if values else ""
        rows.append(row)

    out_root.mkdir(parents=True, exist_ok=True)
    with summary_path.open("w", newline="") as fh:
        fh.write(",".join(rows[0]) + "\n")
        for row in rows:
            fh.write(",".join(str(value) for value in row.values()) + "\n")
    print(f"wrote {summary_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tailprompt", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def add_common(p, out_required=True, out_help="output path"):
        p.add_argument("--config", help="JSON run config file (defaults apply when omitted)")
        p.add_argument("--out", required=out_required, help=out_help)
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")

    p_synth = sub.add_parser("synth", help="generate a synthetic long-tailed dataset")
    add_common(p_synth, out_help="dataset file to write")
    p_synth.add_argument("--seed", type=int, help="dataset seed (overrides synth.seed)")
    p_synth.add_argument("--classes", type=int, help="number of classes")
    p_synth.add_argument("--samples", type=int, help="number of samples")
    p_synth.add_argument("--dim", type=int, help="embedding dimension")
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="tune prompts on a dataset")
    add_common(p_train, out_help="run directory to create")
    p_train.add_argument("--seed", type=int, help="training seed (overrides train.seed)")
    p_train.add_argument("--data", help="dataset file (generated from config when omitted)")
    p_train.add_argument(
        "--skip-gradcheck", action="store_true", help="skip the pre-training gradient check"
    )
    p_train.add_argument(
        "--ablation",
        action="append",
        choices=ABLATIONS,
        help="switch an ingredient off (repeatable)",
    )
    p_train.add_argument("--loss", choices=CLS_LOSS_KINDS, help="classification loss kind")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    add_common(p_eval, out_required=False, out_help="optional JSON summary file")
    p_eval.add_argument("--data", help="dataset file (generated from config when omitted)")
    p_eval.add_argument("--ckpt", required=True, help="prompts.ckpt.json from a run directory")
    p_eval.set_defaults(func=cmd_eval)

    p_grad = sub.add_parser("gradcheck", help="run the finite-difference sweep")
    p_grad.add_argument("--cases", type=int, default=SWEEP_CASES, help="number of random cases")
    p_grad.add_argument(
        "--seed", type=int, default=SWEEP_SEED, help="sweep base seed (default %(default)s)"
    )
    p_grad.set_defaults(func=cmd_gradcheck)

    p_sweep = sub.add_parser("sweep", help="run variants x seeds and aggregate")
    add_common(p_sweep, out_help="sweep root directory")
    p_sweep.add_argument("--data", help="dataset file (generated from config when omitted)")
    p_sweep.add_argument(
        "--variant", action="append", help=f"variant name (repeatable): {', '.join(VARIANTS)}"
    )
    p_sweep.add_argument("--seeds", help="comma-separated training seeds (default: train.seed)")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.print_help()
            return EXIT_CONFIG
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericsError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
