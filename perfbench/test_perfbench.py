"""Tests of the benchmark itself: tracer accounting, instrumentation, exact
counts, the reference computation and the metric lists in BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run as bench  # noqa: E402
import workload  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = {
    "cli-pipeline": workload.Shape(samples=200, classes=6, dim=16, gradcheck_cases=6),
    "ablation-sweep": workload.Shape(samples=200, classes=6, dim=16, epochs=3),
    "stress-train": workload.Shape(samples=300, classes=8, dim=16, epochs=1),
}


def _toy_module():
    toy = types.ModuleType("toy")

    def leaf():
        time.sleep(0.01)

    def outer():
        time.sleep(0.01)
        toy.leaf()
        toy.leaf()

    toy.leaf, toy.outer = leaf, outer
    return toy


def test_self_times_add_up_to_the_outer_span():
    toy = _toy_module()
    leaf, outer = toy.leaf, toy.outer
    tracer = Tracer()
    tracer.patch_function(leaf, "toy.leaf", [toy])
    tracer.patch_function(outer, "toy.outer", [toy])
    toy.outer()
    tracer.uninstall()

    self_s, calls = tracer.self_times()
    assert calls == {"toy.outer": 1, "toy.leaf": 2}
    assert list(tracer.parents) == [-1, 0, 0]
    outer_duration = tracer.ends[0] - tracer.starts[0]
    assert sum(self_s.values()) == pytest.approx(outer_duration, rel=1e-9)
    assert self_s["toy.leaf"] >= 0.02 and self_s["toy.outer"] >= 0.01
    assert toy.leaf is leaf and toy.outer is outer


def test_instrument_wraps_every_importing_module_and_uninstall_restores():
    import tailprompt
    import tailprompt.cli as cli
    import tailprompt.losses as losses
    import tailprompt.metrics as metrics
    from tailprompt.data_model import ClassStats, MultiLabelDataset

    train_mod = sys.modules["tailprompt.train"]
    originals = (tailprompt.train, cli.train, losses.encode_all, metrics.encode_all,
                 MultiLabelDataset.__dict__["batch"], ClassStats.__dict__["from_dataset"])
    tracer = Tracer()
    assert layers.instrument(tracer) == []
    try:
        assert tailprompt.train is cli.train is train_mod.train
        assert tailprompt.train.__wrapped__ is originals[0]
        assert losses.encode_all is metrics.encode_all
        assert losses.encode_all.__wrapped__ is originals[2]
        assert MultiLabelDataset.__dict__["batch"] is not originals[4]
    finally:
        tracer.uninstall()
    assert (tailprompt.train, cli.train, losses.encode_all, metrics.encode_all,
            MultiLabelDataset.__dict__["batch"], ClassStats.__dict__["from_dataset"]) == originals


def test_instrument_skips_a_function_that_no_longer_exists(monkeypatch):
    import tailprompt.losses as losses

    monkeypatch.delattr(losses, "hinge_kink_mask")
    tracer = Tracer()
    try:
        assert layers.instrument(tracer) == ["losses.hinge_kink_mask"]
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_exact_counts_repeat_for_a_fixed_seed(name, tmp_path):
    untraced = workload.run_workload(name, 5, tmp_path / "plain", trace=False, shape=TINY[name])
    first = workload.run_workload(name, 5, tmp_path / "a", trace=True, shape=TINY[name])
    second = workload.run_workload(name, 5, tmp_path / "b", trace=True, shape=TINY[name])

    for result in (untraced, first, second):
        assert result["failures"] == {}
        assert result["attempted"] >= 1
    # tracing changes no output byte
    assert untraced["hashes"] == first["hashes"] == second["hashes"] != {}
    counts = [{k: r["spans"][k] for k in layers.EXACT_COUNTS} for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["train.steps"] > 0 and counts[0]["encoders.flops"] > 0
    assert first["spans_total_self_s"] <= first["wall_s"] * 1.001


def test_cli_pipeline_counts_follow_the_shape(tmp_path):
    shape = TINY["cli-pipeline"]
    result = workload.run_workload("cli-pipeline", 2, tmp_path, trace=True, shape=shape)
    spans = result["spans"]
    assert spans["synth.rows"] == shape.samples
    assert spans["gradcheck.loss_evals"] == 2 * (
        spans["gradcheck.coords_checked"] + spans["gradcheck.kinks_skipped"]
    )
    assert spans["gradcheck.check_total_loss_calls"] == shape.gradcheck_cases + 1
    assert spans["gradcheck.cases_failed"] == 0
    assert spans["data_model.load_dataset_s"] > 0 and spans["data_model.dataset_bytes"] > 0
    assert spans["metrics.average_precision_calls"] == shape.classes * spans["metrics.evaluate_calls"]


def test_reference_interrupts_operations_and_is_left_out_of_their_time(tmp_path):
    handler = signal.getsignal(signal.SIGALRM)
    run = workload.Run(tmp_path, workload.Reference(enabled=True))
    started = time.monotonic()
    run.op("spin", lambda: time.sleep(0.3) or sum(range(3_000_000)))
    elapsed = time.monotonic() - started

    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    chunks = run.reference.times
    assert len(chunks) >= 1 and run.reference_s == pytest.approx(sum(chunks))
    assert run.times["spin"] + run.reference_s == pytest.approx(elapsed, abs=0.01)
    assert run.wall_s() == pytest.approx(run.times["spin"])
    assert run.reference.unit_s() == pytest.approx(sum(chunks) / len(chunks))


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["workloads"]] == list(workload.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(
        bench.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(layers.PER_LAYER)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cli-pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
