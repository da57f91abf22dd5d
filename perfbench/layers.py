"""Which tailprompt functions the traced run wraps, and the per-layer metrics.

A layer is one module of the package. Every wrapped function gets a span
named "<layer>.<stem>"; its self time is reported as "<layer>.<stem>_s" and
its call count, where listed, as "<layer>.<stem>_calls". Work done is counted
by hooks from the arguments and results, never from timing, so the counts
repeat exactly for a fixed seed. Functions that are not wrapped count toward
the self time of the wrapped function that called them.
"""

from __future__ import annotations

import importlib
import os
import sys

# (name, unit, better). The order is the order of BENCHMARK.json's per_layer.
PER_LAYER = (
    ("cli.self_s", "s", "lower"),
    ("config.load_config_s", "s", "lower"),
    ("config.load_config_calls", "count", "lower"),
    ("synth.generate_s", "s", "lower"),
    ("synth.generate_calls", "count", "lower"),
    ("synth.rows", "rows", "lower"),
    ("data_model.save_dataset_s", "s", "lower"),
    ("data_model.load_dataset_s", "s", "lower"),
    ("data_model.dataset_bytes", "bytes", "lower"),
    ("data_model.batch_s", "s", "lower"),
    ("data_model.batch_calls", "count", "lower"),
    ("data_model.rows_gathered", "rows", "lower"),
    ("data_model.class_stats_s", "s", "lower"),
    ("encoders.encode_all_s", "s", "lower"),
    ("encoders.encode_all_calls", "count", "lower"),
    ("encoders.encode_backward_s", "s", "lower"),
    ("encoders.encode_backward_calls", "count", "lower"),
    ("encoders.flops", "flop", "lower"),
    ("losses.total_loss_grad_s", "s", "lower"),
    ("losses.total_loss_grad_calls", "count", "lower"),
    ("losses.total_loss_value_s", "s", "lower"),
    ("losses.total_loss_value_calls", "count", "lower"),
    ("losses.rows_scored", "rows", "lower"),
    ("losses.mean_positive_delta_s", "s", "lower"),
    ("losses.hinge_kink_mask_s", "s", "lower"),
    ("gradcheck.check_total_loss_s", "s", "lower"),
    ("gradcheck.check_total_loss_calls", "count", "lower"),
    ("gradcheck.run_sweep_s", "s", "lower"),
    ("gradcheck.loss_evals", "count", "lower"),
    ("gradcheck.coords_checked", "count", "higher"),
    ("gradcheck.kinks_skipped", "count", "lower"),
    ("gradcheck.evals_per_coord", "evals/coord", "lower"),
    ("gradcheck.cases_failed", "count", "lower"),
    ("metrics.evaluate_s", "s", "lower"),
    ("metrics.evaluate_calls", "count", "lower"),
    ("metrics.average_precision_s", "s", "lower"),
    ("metrics.average_precision_calls", "count", "lower"),
    ("metrics.scores_ranked", "count", "lower"),
    ("metrics.map_tail", "mAP", "higher"),
    ("train.train_self_s", "s", "lower"),
    ("train.sgd_step_s", "s", "lower"),
    ("train.steps", "count", "lower"),
    ("train.epochs", "count", "lower"),
    ("train.write_run_dir_s", "s", "lower"),
    ("train.run_dir_bytes", "bytes", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unaccounted_share", "ratio", "lower"),
)

# Exact counts: identical on every run with the same seed. run_dir_bytes is
# left out because run.json records the run's wall time, whose printed length
# varies.
EXACT_COUNTS = tuple(
    name
    for name, unit, _ in PER_LAYER
    if unit not in ("s", "mAP", "ratio") and name != "train.run_dir_bytes"
)

# Per-layer metrics that come from the whole run, not from spans.
RUN_LEVEL = ("metrics.map_tail", "trace.wall_s", "trace.overhead_s", "trace.unaccounted_share")


def _need_grad(args, kwargs) -> bool:
    # total_loss(batch, prompts, encoder, stats, config, tau=1.0, need_grad=True)
    if "need_grad" in kwargs:
        return bool(kwargs["need_grad"])
    return bool(args[6]) if len(args) > 6 else True


def _total_loss_name(args, kwargs) -> str:
    return "losses.total_loss_grad" if _need_grad(args, kwargs) else "losses.total_loss_value"


def _count_total_loss(tracer, args, kwargs, result) -> None:
    tracer.counters["losses.rows_scored"] += args[0].num_samples
    if not _need_grad(args, kwargs) and tracer.open["gradcheck.check_total_loss"]:
        tracer.counters["gradcheck.loss_evals"] += 1


def _count_encode_all(tracer, args, kwargs, result) -> None:
    # pooling (M contexts plus the class token), projection matmul, normalisation
    encoder, prompts = args[0], args[1]
    c, m, dt, d = prompts.num_classes, prompts.num_context_tokens, prompts.token_dim, encoder.dim
    tracer.counters["encoders.flops"] += c * ((m + 1) * dt + 2 * dt * d + 3 * d)


def _count_encode_backward(tracer, args, kwargs, result) -> None:
    # tangent projection and rescale, transposed projection matmul, pool split
    encoder, prompts = args[0], args[1]
    c, dt, d = prompts.num_classes, prompts.token_dim, encoder.dim
    tracer.counters["encoders.flops"] += c * (5 * d + 2 * d * dt + dt)


def _count_rows_generated(tracer, args, kwargs, result) -> None:
    tracer.counters["synth.rows"] += result.num_samples


def _count_file_bytes(tracer, args, kwargs, result) -> None:
    # save_dataset(dataset, path) and load_dataset(path)
    path = args[1] if len(args) > 1 else args[0]
    tracer.counters["data_model.dataset_bytes"] += os.path.getsize(path)


def _count_rows_gathered(tracer, args, kwargs, result) -> None:
    tracer.counters["data_model.rows_gathered"] += result.num_samples


def _count_gradcheck(tracer, args, kwargs, result) -> None:
    prompts = args[1]
    tracer.counters["gradcheck.coords_checked"] += prompts.contexts.size - result.num_skipped_kinks
    tracer.counters["gradcheck.kinks_skipped"] += result.num_skipped_kinks
    tracer.counters["gradcheck.cases_failed"] += 0 if result.passed else 1


def _count_ranked(tracer, args, kwargs, result) -> None:
    tracer.counters["metrics.scores_ranked"] += len(args[0])


def _count_step(tracer, args, kwargs, result) -> None:
    tracer.counters["train.steps"] += 1


def _count_epochs(tracer, args, kwargs, result) -> None:
    tracer.counters["train.epochs"] += result.epochs_completed


def _count_run_dir(tracer, args, kwargs, result) -> None:
    tracer.counters["train.run_dir_bytes"] += sum(
        entry.stat().st_size for entry in os.scandir(result) if entry.is_file()
    )


# (module, function, span name, hook); (module, class, method, span name, hook)
FUNCTIONS = (
    ("cli", "main", "cli.self", None),
    ("config", "load_config", "config.load_config", None),
    ("synth", "generate", "synth.generate", _count_rows_generated),
    ("data_model", "save_dataset", "data_model.save_dataset", _count_file_bytes),
    ("data_model", "load_dataset", "data_model.load_dataset", _count_file_bytes),
    ("encoders", "encode_all", "encoders.encode_all", _count_encode_all),
    ("encoders", "encode_backward", "encoders.encode_backward", _count_encode_backward),
    ("losses", "total_loss", _total_loss_name, _count_total_loss),
    ("losses", "mean_positive_delta", "losses.mean_positive_delta", None),
    ("losses", "hinge_kink_mask", "losses.hinge_kink_mask", None),
    ("gradcheck", "check_total_loss", "gradcheck.check_total_loss", _count_gradcheck),
    ("gradcheck", "run_sweep", "gradcheck.run_sweep", None),
    ("metrics", "evaluate", "metrics.evaluate", None),
    ("metrics", "average_precision", "metrics.average_precision", _count_ranked),
    ("train", "train", "train.train_self", _count_epochs),
    ("train", "sgd_step", "train.sgd_step", _count_step),
    ("train", "write_run_dir", "train.write_run_dir", _count_run_dir),
)
METHODS = (
    ("data_model", "MultiLabelDataset", "batch", "data_model.batch", _count_rows_gathered),
    ("data_model", "ClassStats", "from_dataset", "data_model.class_stats", None),
)


def instrument(tracer) -> list[str]:
    """Wrap the public functions the per-layer metrics need.

    Functions are wrapped at every tailprompt module attribute that refers
    to them, including the package's re-exports; methods on their class.
    Returns the functions that no longer exist: their metrics read 0, and
    the rest of the trace still works.
    """
    modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "tailprompt"]
    missing = []
    for module_name, attr, name, hook in FUNCTIONS:
        fn = getattr(importlib.import_module(f"tailprompt.{module_name}"), attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
        else:
            tracer.patch_function(fn, name, modules, hook)
    for module_name, class_name, attr, name, hook in METHODS:
        cls = getattr(importlib.import_module(f"tailprompt.{module_name}"), class_name, None)
        if cls is None or attr not in vars(cls):
            missing.append(f"{module_name}.{class_name}.{attr}")
        else:
            tracer.patch_method(cls, attr, name, hook)
    return missing


def span_metrics(tracer) -> dict[str, float]:
    """Every per-layer metric the spans and hooks give; 0 where a layer was idle."""
    self_s, calls = tracer.self_times()
    out = {}
    for name, unit, _ in PER_LAYER:
        if name in RUN_LEVEL:
            continue
        if name.endswith("_s") and unit == "s":
            out[name] = self_s.get(name[:-2], 0.0)
        elif name.endswith("_calls"):
            out[name] = calls.get(name[: -len("_calls")], 0)
        else:
            out[name] = tracer.counters.get(name, 0)
    coords = out["gradcheck.coords_checked"]
    out["gradcheck.evals_per_coord"] = out["gradcheck.loss_evals"] / coords if coords else 0.0
    return out
