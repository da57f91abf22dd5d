"""tailprompt benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout (the directory holding src/). It
starts one fresh Python process per sample (perfbench/workload.py), one at a
time, until the next sample would end after S seconds, with at least two
samples. Every child gets PYTHONPATH=src and one BLAS thread. Before each
sample, a set-up probe process stops where the first operation would start,
so set-up time is sampled across the whole run. With --trace 0 the last
stdout line carries the end-to-end metrics, each the median over the
samples. The gated times are in units of the reference computation that
interrupts each sample's operations (workload.Reference; the "_ref"
metrics), because the host's speed drifts; the seconds are printed too.
With --trace 1 the samples alternate untraced and traced processes and the
last line carries the per-layer metrics. Full results, the environment and
output hashes go to .perfbench_out/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import EXACT_COUNTS, PER_LAYER  # noqa: E402

# (name, unit, better); the order of BENCHMARK.json's end_to_end. A "ref" is
# the mean time of the reference computation (workload.Reference) in the same
# sample process, timed while its operations ran.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_ref", "ref", "lower"),
    ("train_ref", "ref", "lower"),
    ("train_samples_per_ref", "samples/ref", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

MIN_SAMPLES = 2
BUDGET_S = 150.0  # start no sample that could end later than this; the run must end within 180 s
BLAS_THREADS = 1  # steady timings on a small shared machine; the matmuls here are small


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = root / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(root: Path) -> dict:
    import numpy as np

    src = hashlib.sha256()
    for path in sorted((root / "src" / "tailprompt").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(root),
        "src_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "loadavg_1m": float(Path("/proc/loadavg").read_text().split()[0]),
    }


class Sampler:
    """Starts workload processes and keeps their results."""

    def __init__(self, root: Path, workload: str, seed: int, started: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.started = started
        self.count = 0
        self.crashed = 0
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)

    def spawn(self, trace: bool = False, setup_only: bool = False) -> dict | None:
        """One child process; None when it crashed or printed no result."""
        self.count += 1
        workdir = self.root / ".perfbench_work" / f"{self.workload}-{self.seed}-{self.count}"
        shutil.rmtree(workdir, ignore_errors=True)
        cmd = [sys.executable, str(HERE / "workload.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--workdir", str(workdir), "--trace", str(int(trace))]
        if setup_only:
            cmd.append("--setup-only")
        timeout = max(5.0, 175.0 - (time.monotonic() - self.started))
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                  text=True, timeout=timeout)
            ended = time.monotonic()
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except (subprocess.TimeoutExpired, json.JSONDecodeError) as err:
            print(f"workload process failed: {err}", file=sys.stderr)
            result = None
        if result is None:
            self.crashed += 1
        else:
            result["setup_s"] = result["setup_end"] - spawned
            result["duration_s"] = ended - spawned
            spans = workdir / "spans.tsv"
            if spans.is_file():
                out = self.root / ".perfbench_out" / f"{self.workload}-seed{self.seed}-spans.tsv"
                shutil.copyfile(spans, out)
        shutil.rmtree(workdir, ignore_errors=True)
        return result

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def keep_sampling(sampler: Sampler, groups: list[list[dict]], seconds: float) -> bool:
    """True while another sample group fits in the time asked for.

    A group is a set-up probe and a sample, or an untraced and a traced
    sample. Sampling stops at the first crash: the run is then not correct,
    and more samples would not change that.
    """
    if sampler.crashed:
        return False
    longest = max((sum(r["duration_s"] for r in group) for group in groups), default=0.0)
    elapsed = sampler.elapsed()
    if elapsed + longest > BUDGET_S:
        return False
    return len(groups) < MIN_SAMPLES or elapsed + longest <= seconds


def end_to_end(setups: list[dict], samples: list[dict]) -> dict[str, float]:
    return {
        "setup_s": median([r["setup_s"] for r in setups + samples]),
        "wall_ref": median([r["wall_s"] / r["ref_s"] for r in samples]),
        "train_ref": median([r["train_s"] / r["ref_s"] for r in samples]),
        "train_samples_per_ref": median(
            [r["samples_trained"] * r["ref_s"] / r["train_s"] for r in samples]
        ),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in samples]),
    }


def times_s(samples: list[dict]) -> dict[str, float]:
    """Medians of the times in seconds, every stage and the reference's too."""
    values = {}
    for r in samples:
        per_sample = {
            "wall_s": r["wall_s"],
            "train_s": r["train_s"],
            "train_samples_per_s": r["samples_trained"] / r["train_s"],
            "ref_s": r["ref_s"],
            **r["stage_s"],
        }
        for name, value in per_sample.items():
            values.setdefault(name, []).append(value)
    return {name: median(v) for name, v in values.items()}


def exact_counts(traced: dict) -> dict:
    return {name: traced["spans"][name] for name in EXACT_COUNTS}


def per_layer(pairs: list[tuple[dict, dict]]) -> dict[str, float]:
    traced = [t for _, t in pairs]
    out = {name: traced[0]["spans"][name] if name in EXACT_COUNTS
           else median([t["spans"][name] for t in traced])
           for name, _, _ in PER_LAYER if name in traced[0]["spans"]}
    out["metrics.map_tail"] = fmean(traced[0]["map_tail"])
    out["trace.wall_s"] = median([t["wall_s"] for t in traced])
    out["trace.overhead_s"] = median([t["wall_s"] - u["wall_s"] for u, t in pairs])
    # the traced wall is the spans' self times (the tracer's own cost lands
    # inside them) plus the time no span covers; this is that time's share
    out["trace.unaccounted_share"] = median(
        [(t["wall_s"] - t["spans_total_self_s"]) / t["wall_s"] for t in traced]
    )
    return out


def main(argv=None) -> int:
    root = Path.cwd()
    if not (root / "src" / "tailprompt" / "__init__.py").is_file():
        print("error: run from the root of a tailprompt checkout (no src/tailprompt here)",
              file=sys.stderr)
        return 2
    sys.path.insert(1, str(root / "src"))
    from workload import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    started = time.monotonic()
    env = environment(root)
    (root / ".perfbench_out").mkdir(exist_ok=True)
    sampler = Sampler(root, args.workload, args.seed, started)

    setups, samples, pairs = [], [], []
    if not args.trace:
        while keep_sampling(sampler, [list(pair) for pair in zip(setups, samples)], args.seconds):
            probe = sampler.spawn(setup_only=True)
            result = sampler.spawn() if probe else None
            if probe and result:
                setups.append(probe)
                samples.append(result)
    else:
        while keep_sampling(sampler, [list(pair) for pair in pairs], args.seconds):
            untraced = sampler.spawn()
            traced = sampler.spawn(trace=True) if untraced else None
            if untraced and traced:
                pairs.append((untraced, traced))
                samples += [untraced, traced]
    if not samples or (args.trace and not pairs):
        print(f"error: no {args.workload} sample completed", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in samples) + sampler.crashed
    failed = sum(len(r["failed"]) for r in samples) + sampler.crashed
    problems = [f"{r['failures']}" for r in samples if r["failed"]]
    if any(r["hashes"] != samples[0]["hashes"] for r in samples):
        problems.append("metrics.csv or prompts.ckpt.json differ between samples of one seed")
    if args.trace and any(exact_counts(t) != exact_counts(pairs[0][1]) for _, t in pairs):
        problems.append("exact counts differ between traced samples of one seed")
    correct = failed == 0 and not problems

    if args.trace:
        values, units = per_layer(pairs), {name: unit for name, unit, _ in PER_LAYER}
    else:
        values, units = end_to_end(setups, samples), {name: unit for name, unit, _ in END_TO_END}
    map_tail = [fmean(r["map_tail"]) for r in samples if r["map_tail"]]

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "samples": len(samples),
        "setup_samples": len(setups) + len(samples),
        "metrics": values,
        "times_s": times_s([u for u, _ in pairs] if args.trace else samples),
        "error_rate": failed / attempted if attempted else 1.0,
        "map_tail": map_tail[0] if map_tail else None,
        "hashes": samples[0]["hashes"],
        "hashes_sha256": hashlib.sha256(
            json.dumps(samples[0]["hashes"], sort_keys=True).encode()
        ).hexdigest(),
        "problems": problems,
        "raw": [{k: v for k, v in r.items() if k not in ("hashes", "spans")} for r in samples],
    }
    out = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")

    setups_note = "" if args.trace else f" ({report['setup_samples']} set-ups)"
    print(f"{args.workload} seed {args.seed}: medians of {len(samples)} samples{setups_note}, "
          f"{attempted} operations, {failed} failed")
    for name, value in values.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    if not args.trace:
        for name, value in report["times_s"].items():
            unit = "samples/s" if name == "train_samples_per_s" else "s"
            print(f"  {name:34s} {value:14.6g} {unit} (not gated)")
    print(f"  {'error_rate':34s} {report['error_rate']:14.6g} ({failed}/{attempted})")
    print(f"  {'map_tail':34s} {report['map_tail']!s:>14} (full-objective runs)")
    for problem in problems:
        print(f"  problem: {problem}")
    for name in sorted({n for r in samples for n in r.get("untraced_functions", ())}):
        print(f"  note: {name} no longer exists; its per-layer metrics read 0")
    print(f"output files: {len(report['hashes'])}, sha256 of their hashes "
          f"{report['hashes_sha256']}")
    print(f"environment: {json.dumps(env)}")
    print(f"details: {out.relative_to(root)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
