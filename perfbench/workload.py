"""One iteration of one benchmark workload, in a fresh Python process.

    PYTHONPATH=src python3 perfbench/workload.py --workload NAME --seed N \
        --workdir DIR [--trace 0|1] [--setup-only]

run.py starts this script once per sample; run it by hand only to debug a
workload. Set-up (imports, tracer, config files) ends before the first
operation. The operations call only tailprompt's public entry points
and are timed with CLOCK_MONOTONIC, which every process on the machine
shares, so the parent can measure set-up from the moment it spawned us.
While an untraced operation runs, a fixed reference computation (Reference)
interrupts it on a timer, so the parent can give times in units of it.
Outputs are checked only after the last operation ends, so checking is not
part of any timing. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import layers
import tailprompt.cli as cli
import tailprompt.config as config_mod
import tailprompt.synth as synth
from tracer import Tracer

train_mod = sys.modules["tailprompt.train"]  # the package re-exports train() under this name

WORKLOADS = ("cli-pipeline", "ablation-sweep", "stress-train")
MAP_KEYS = ("map_total", "map_head", "map_medium", "map_tail")


@dataclass(frozen=True)
class Shape:
    """Size of one workload iteration."""

    samples: int
    classes: int
    dim: int
    epochs: int = 0  # 0: the recipe's own epoch count
    gradcheck_cases: int = 120


# The sizes the benchmark measures; tests pass smaller ones.
SHAPES = {
    # CLI defaults: 2000 x 20 x 128, default training recipe, 120-case sweep
    "cli-pipeline": Shape(samples=2000, classes=20, dim=128),
    # criterion-5 recipe (lr0 2.0, 80 epochs, one evaluation per run), one training seed
    "ablation-sweep": Shape(samples=2000, classes=20, dim=128, epochs=80),
    # the ROADMAP's stress classes and dim at a fifth of its 50k samples: an
    # iteration of about 3.5 s fits about ten samples into a 40 s run, where
    # 50k (about 18 s) fitted two, too few to cancel the host's speed drift
    "stress-train": Shape(samples=10_000, classes=200, dim=256, epochs=1),
}

SWEEP_VARIANTS = ("full", "no-cse", "plain-cse", "bce")
SWEEP_LR0 = 2.0


def derived_seeds(seed: int, count: int) -> tuple[int, list[int]]:
    """Synth seed and training seeds, all fixed by the workload seed."""
    state = np.random.SeedSequence([seed, 0x7A11]).generate_state(count + 1)
    values = [int(v) % 1_000_000 for v in state]
    return values[0], values[1:]


class Reference:
    """A fixed computation that interrupts the operations on a timer.

    The host's speed drifts by tens of percent within seconds to minutes, and
    each core drifts on its own, so a reference timed before or after an
    operation, or on another core, does not follow it. Every INTERVAL_S of
    wall time while an operation runs, a SIGALRM handler runs this
    computation in the workload's own thread and times it. It does not use
    tailprompt. The drift slows Python object work and small array work by
    different amounts, and the workloads do both, so the reference spends
    about equal time on each: small matrix products and argsorts, then a JSON
    round trip and a dict loop (about 4 ms in all). Its mean time is the unit
    of the "_ref" metrics; Run subtracts the time it takes from the
    operations. Disabled, it does nothing and takes no time.
    """

    INTERVAL_S = 0.2

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.times: list[float] = []
        self.running = False
        rng = np.random.default_rng(12345)
        self.x = rng.standard_normal((256, 64))
        self.w = rng.standard_normal((64, 32))
        self.doc = rng.standard_normal((40, 20)).tolist()
        self.previous_handler = None

    def chunk(self) -> None:
        if self.running:  # a signal that arrives while a chunk runs is dropped
            return
        self.running = True
        start = time.monotonic()
        for _ in range(12):
            np.argsort(self.x @ self.w, axis=0)
        json.loads(json.dumps(self.doc))
        counts: dict[int, int] = {}
        for i in range(1200):
            counts[i % 50] = counts.get(i % 50, 0) + i
        self.times.append(time.monotonic() - start)
        self.running = False

    def spent(self) -> float:
        return sum(self.times)

    def __enter__(self):
        if self.enabled:
            self.previous_handler = signal.signal(signal.SIGALRM, lambda *_: self.chunk())
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self.previous_handler)

    def unit_s(self) -> float:
        """Mean time of one chunk; runs one when no operation lasted an interval."""
        if not self.times:
            self.chunk()
        return sum(self.times) / len(self.times)


class Run:
    """Times operations and collects failed checks, one entry per operation.

    An operation's time, and the wall time, leave out the reference's chunks.
    """

    def __init__(self, workdir: Path, reference: Reference):
        self.workdir = workdir
        self.reference = reference
        self.times: dict[str, float] = {}
        self.first_start: float | None = None
        self.last_end: float | None = None
        self.reference_s = 0.0
        self.ops: list[str] = []
        self.failures: dict[str, list[str]] = {}

    def path(self, name: str) -> Path:
        return self.workdir / name

    def op(self, name: str, fn, *args):
        """Run one operation; an exception fails it instead of the iteration."""
        self.ops.append(name)
        spent = self.reference.spent()
        start = time.monotonic()
        if self.first_start is None:
            self.first_start = start
        with self.reference:
            try:
                result = fn(*args)
            except Exception:  # a failed operation is counted, and the others still run
                traceback.print_exc()
                self.fail(name, "raised " + traceback.format_exc(limit=1).strip().splitlines()[-1])
                result = None
        self.last_end = time.monotonic()
        reference_s = self.reference.spent() - spent
        self.reference_s += reference_s
        self.times[name] = self.times.get(name, 0.0) + self.last_end - start - reference_s
        return result

    def wall_s(self) -> float:
        return self.last_end - self.first_start - self.reference_s

    def fail(self, name: str, message: str) -> None:
        self.failures.setdefault(name, []).append(message)

    def check(self, name: str, condition: bool, message: str) -> None:
        if not condition:
            self.fail(name, message)


def run_cli(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = cli.main(argv)
    return status, buffer.getvalue()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_run_dir(run: Run, op: str, run_dir: Path) -> dict | None:
    """Read run.json, check the run did not fail and every mAP is in [0, 1]."""
    try:
        doc = json.loads((run_dir / "run.json").read_text())
    except (OSError, json.JSONDecodeError) as err:
        run.fail(op, f"{run_dir.name}: unreadable run.json ({err})")
        return None
    run.check(op, doc["failed"] is False, f"{run_dir.name}: run failed: {doc['abort_reason']}")
    evals = [doc["initial"]["eval"], doc["final_eval"]] + [h["eval"] for h in doc["history"]]
    for ev in evals:
        if ev is None:
            continue
        for key in MAP_KEYS:
            value = ev[key]
            run.check(
                op,
                value is None or (math.isfinite(value) and 0.0 <= value <= 1.0),
                f"{run_dir.name}: {key} = {value!r} outside [0, 1]",
            )
    run.check(op, doc["final_eval"] is not None, f"{run_dir.name}: no final evaluation")
    return doc


def hashes(run_dir: Path, root: Path) -> dict[str, str]:
    rel = run_dir.relative_to(root).as_posix()
    return {f"{rel}/{name}": sha256(run_dir / name) for name in ("metrics.csv", "prompts.ckpt.json")}


def setup_cli_pipeline(run: Run, seed: int, shape: Shape) -> dict:
    synth_seed, (train_seed,) = derived_seeds(seed, 1)
    return {"synth_seed": synth_seed, "train_seed": train_seed}


def cli_pipeline(run: Run, plan: dict, shape: Shape) -> dict:
    data, run_dir, eval_out = run.path("ds.json"), run.path("run"), run.path("eval.json")
    shape_flags = ["--samples", str(shape.samples), "--classes", str(shape.classes)]
    shape_flags += ["--dim", str(shape.dim)]
    commands = {
        "synth": ["synth", "--out", str(data), "--seed", str(plan["synth_seed"]), *shape_flags],
        "train": ["train", "--data", str(data), "--out", str(run_dir),
                  "--seed", str(plan["train_seed"])],
        "eval": ["eval", "--data", str(data), "--ckpt", str(run_dir / "prompts.ckpt.json"),
                 "--out", str(eval_out)],
        "gradcheck": ["gradcheck", "--cases", str(shape.gradcheck_cases)],
    }
    outputs = {name: run.op(name, run_cli, argv) for name, argv in commands.items()}

    for name, output in outputs.items():
        status = output[0] if output else None
        run.check(name, status == cli.EXIT_OK, f"{name} exited with {status}")
    cases = shape.gradcheck_cases
    gradcheck_text = outputs["gradcheck"][1] if outputs["gradcheck"] else ""
    run.check("gradcheck", f"{cases}/{cases} cases passed" in gradcheck_text,
              "not every gradcheck case passed")
    doc = check_run_dir(run, "train", run_dir)
    result = {"map_tail": [], "samples_trained": 0, "hashes": {}}
    if doc is not None and doc["final_eval"] is not None:
        result["map_tail"].append(doc["final_eval"]["map_tail"])
        result["samples_trained"] = doc["epochs_completed"] * shape.samples
        result["hashes"] = hashes(run_dir, run.workdir)
        try:
            evaluated = json.loads(eval_out.read_text())
        except (OSError, json.JSONDecodeError) as err:
            run.fail("eval", f"unreadable eval output ({err})")
        else:
            for key in MAP_KEYS:
                run.check("eval", evaluated[key] == doc["final_eval"][key],
                          f"eval {key} {evaluated[key]!r} != run.json {doc['final_eval'][key]!r}")
    result["stage_s"] = {f"{name}_s": run.times[name] for name in commands}
    result["train_s"] = run.times["train"]
    return result


def setup_ablation_sweep(run: Run, seed: int, shape: Shape) -> dict:
    synth_seed, train_seeds = derived_seeds(seed, 1)
    doc = {
        "synth": {"num_samples": shape.samples, "num_classes": shape.classes, "dim": shape.dim,
                  "seed": synth_seed},
        "train": {"lr0": SWEEP_LR0, "epochs": shape.epochs, "eval_every": shape.epochs},
    }
    config_path = run.path("sweep-config.json")
    config_path.write_text(json.dumps(doc, indent=2) + "\n")
    return {"config": config_path, "train_seeds": train_seeds}


def ablation_sweep(run: Run, plan: dict, shape: Shape) -> dict:
    root = run.path("sweep")
    argv = ["sweep", "--config", str(plan["config"]), "--out", str(root),
            "--seeds", ",".join(str(s) for s in plan["train_seeds"])]
    for variant in SWEEP_VARIANTS:
        argv += ["--variant", variant]
    output = run.op("sweep", run_cli, argv)

    status = output[0] if output else None
    run.check("sweep", status == cli.EXIT_OK, f"sweep exited with {status}")
    result = {"map_tail": [], "samples_trained": 0, "hashes": {}}
    for variant in SWEEP_VARIANTS:
        for train_seed in plan["train_seeds"]:
            run_dir = root / variant / f"seed-{train_seed}"
            doc = check_run_dir(run, "sweep", run_dir)
            if doc is None:
                continue
            result["samples_trained"] += doc["epochs_completed"] * shape.samples
            result["hashes"].update(hashes(run_dir, run.workdir))
            if variant == "full" and doc["final_eval"] is not None:
                result["map_tail"].append(doc["final_eval"]["map_tail"])
    try:
        lines = (root / "sweep.csv").read_text().splitlines()
    except OSError as err:
        run.fail("sweep", f"unreadable sweep.csv ({err})")
    else:
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        run.check("sweep", [r["variant"] for r in rows] == list(SWEEP_VARIANTS),
                  "sweep.csv does not list every variant")
        run.check("sweep", all(r["failed"] == "0" for r in rows), "sweep.csv reports failed runs")
    result["stage_s"] = {"sweep_s": run.times["sweep"]}
    result["train_s"] = run.times["sweep"]
    return result


def setup_stress_train(run: Run, seed: int, shape: Shape) -> dict:
    synth_seed, (train_seed,) = derived_seeds(seed, 1)
    config = config_mod.with_synth(
        config_mod.default_config(),
        num_samples=shape.samples, num_classes=shape.classes, dim=shape.dim, seed=synth_seed,
    )
    config = config_mod.with_train(config, epochs=shape.epochs, eval_every=1, seed=train_seed)
    return {"config": config}


def stress_train(run: Run, plan: dict, shape: Shape) -> dict:
    config = plan["config"]
    run_dir = run.path("run")
    dataset = run.op("generate", synth.generate, config.synth)
    record = run.op("train", train_mod.train, dataset, config.train) if dataset is not None else None
    if record is not None:
        run.op("write_run_dir", train_mod.write_run_dir, run_dir, record,
               config_mod.config_to_dict(config))
    del dataset, record

    result = {"map_tail": [], "samples_trained": 0, "hashes": {}}
    doc = check_run_dir(run, "train", run_dir)
    if doc is not None and doc["final_eval"] is not None:
        result["map_tail"].append(doc["final_eval"]["map_tail"])
        result["samples_trained"] = doc["epochs_completed"] * shape.samples
        result["hashes"] = hashes(run_dir, run.workdir)
    train_s = run.times.get("train", 0.0) + run.times.get("write_run_dir", 0.0)
    result["stage_s"] = {"synth_s": run.times.get("generate", 0.0), "train_s": train_s}
    result["train_s"] = train_s
    return result


WORKLOAD_STEPS = {
    "cli-pipeline": (setup_cli_pipeline, cli_pipeline),
    "ablation-sweep": (setup_ablation_sweep, ablation_sweep),
    "stress-train": (setup_stress_train, stress_train),
}


def run_workload(name: str, seed: int, workdir: Path, trace: bool, shape: Shape | None = None,
                 setup_only: bool = False) -> dict:
    """Set up and run one iteration; return what the parent aggregates."""
    shape = shape or SHAPES[name]
    setup, body = WORKLOAD_STEPS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    # the traced process measures the layers, not the machine: no reference there
    run = Run(workdir, Reference(enabled=not trace and not setup_only))
    tracer = None
    if trace:
        tracer = Tracer()
        untraced = layers.instrument(tracer)
    try:
        plan = setup(run, seed, shape)
        setup_end = time.monotonic()
        if setup_only:
            return {"setup_end": setup_end}
        result = body(run, plan, shape)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result.update(
        setup_end=setup_end,
        wall_s=run.wall_s(),
        attempted=len(run.ops),
        failed=sorted(run.failures),
        failures=run.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        ref_s=run.reference.unit_s() if run.reference.enabled else None,
        ref_chunks=len(run.reference.times),
    )
    if tracer is not None:
        result["untraced_functions"] = untraced
        result["spans"] = layers.span_metrics(tracer)
        result["spans_total_self_s"] = sum(tracer.self_times()[0].values())
        tracer.write_spans(workdir / "spans.tsv")
    return result


def main(argv=None) -> int:
    src = Path.cwd() / "src"
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: tailprompt was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.seed, Path(args.workdir), bool(args.trace),
                          setup_only=args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
