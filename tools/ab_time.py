"""Time the working tree's package against a commit's, in one process.

Usage: python3 tools/ab_time.py [BASE] [ROUNDS]   (BASE defaults to HEAD,
ROUNDS to 5)

BASE's src/ is extracted with `git archive`, and its package and the working
tree's are loaded under separate names, so both run in this process on the
same core at the same moments, with one BLAS thread. A fixed list of calls
runs ROUNDS times; each call runs once per tree, back to back, and which
tree goes first alternates from round to round:

- criterion-5 train() (lr0 2.0, 80 epochs, one evaluation, seed 101 on the
  default 2000 x 20 x 128 split) of the full, no-cse and bce variants;
- check_training_state, the pre-training gate, on 8 rows of that split at
  the default config;
- run_sweep(), the 120-case gradcheck sweep.

For each call it prints each tree's best time, the median over rounds of
the working tree's time divided by BASE's (below 1 is faster), and whether
both trees returned the same result (trained contexts, gate report, sweep
reports) in every round. Uses the standard library and numpy only; five
rounds take about three minutes on a 2-core x86 VM.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import pickle
import statistics
import sys
import tempfile
import time
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"  # before numpy is first imported

import numpy as np  # noqa: E402
from compare_outputs import REPO, extract_src  # noqa: E402

TRAIN_VARIANTS = ("full", "no-cse", "bce")
GATE_ROWS = 8


def load_package(name: str, src: Path):
    """The tailprompt package under src, imported as name."""
    spec = importlib.util.spec_from_file_location(
        name, src / "tailprompt" / "__init__.py", submodule_search_locations=[str(src / "tailprompt")]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def calls(name: str) -> dict:
    """{label: zero-argument call returning bytes to compare} on one tree."""
    cli, config, gradcheck, synth, train = (
        importlib.import_module(f"{name}.{module}")
        for module in ("cli", "config", "gradcheck", "synth", "train")
    )
    base = config.with_train(config.default_config(), lr0=2.0, epochs=80, eval_every=80)
    dataset = synth.generate(base.synth)
    out = {}
    for variant in TRAIN_VARIANTS:
        tc = config.with_train(cli.VARIANTS[variant](base), seed=101).train
        out[f"train {variant}"] = lambda tc=tc: train.train(dataset, tc).prompts.contexts.tobytes()

    gate = config.default_config().train
    stats, encoder, prompts = train.build_training_state(dataset, gate)
    rows = np.sort(np.random.default_rng(0).choice(dataset.num_samples, GATE_ROWS, replace=False))
    batch = dataset.batch(rows)

    def gate_call():
        report = gradcheck.check_training_state(batch, prompts, encoder, stats, gate.loss, gate.tau)
        return pickle.dumps(tuple(vars(report).values()))

    out["check_training_state"] = gate_call
    out["run_sweep"] = lambda: pickle.dumps(
        [tuple(vars(report).values()) for _, report in gradcheck.run_sweep()]
    )
    return out


def _alternate(base_call, work_call, rounds: int) -> str:
    """One table row's numbers: each side's best time, the median ratio of
    their times in a round, and whether their results always matched."""
    times, ratios, same = ([], []), [], True
    for round_ in range(rounds):
        results = [None, None]
        for side in (0, 1) if round_ % 2 == 0 else (1, 0):
            start = time.perf_counter()
            results[side] = (base_call, work_call)[side]()
            times[side].append(time.perf_counter() - start)
        ratios.append(times[1][-1] / times[0][-1])
        same = same and results[0] == results[1]
    return (
        f"{min(times[0]):>12.4f} {min(times[1]):>12.4f} "
        f"{statistics.median(ratios):>13.3f}  {'yes' if same else 'NO'}"
    )


def main(argv: list[str]) -> int:
    base = argv[0] if argv else "HEAD"
    rounds = int(argv[1]) if len(argv) > 1 else 5
    with tempfile.TemporaryDirectory(prefix="ab-time-") as tmp:
        load_package("tailprompt_base", extract_src(base, Path(tmp)))
        load_package("tailprompt_work", REPO / "src")
        trees = calls("tailprompt_base"), calls("tailprompt_work")
        print(f"{base} vs working tree, {rounds} rounds, one BLAS thread")
        print(f"{'call':<22} {'base best s':>12} {'work best s':>12} {'median ratio':>13}  same result")
        for label in trees[0]:
            print(f"{label:<22} {_alternate(trees[0][label], trees[1][label], rounds)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
