"""Check that the working tree's CLI outputs are byte-identical to a commit's.

Usage: python3 tools/compare_outputs.py [BASE]   (BASE defaults to HEAD)

BASE's src/ is extracted with `git archive`. One fixed command list runs
against both trees, each with PYTHONPATH set to that tree's src/ and one BLAS
thread: synth, train (with its pre-training gradcheck), train with
--skip-gradcheck, --ablation, --loss and --seed, eval of the trained
prompts, synth of a second split with --seed 8 and eval of the trained
prompts on that split, which they did not train on, the 120-case
gradcheck, a sweep of every variant over seeds 1 and 2, and eval of two
checkpoints that sweep writes: the linear probe's, and that of no-reweight
seed 2, which trains in a stack and is written from its slice of the
stack's contexts. Then three more on a 3000 x 60 x 32 split, large enough
that value-only passes run in several row blocks: synth, train with --skip-gradcheck and --loss focal, and
a sweep of linear-probe and bce. Four more run at 1000 x 201 x 32, a class
count at which some BLAS kernels give a product's row block computed alone
other bits: synth, train with --skip-gradcheck, a linear-probe sweep, and a
sweep of full, plain-cse, no-reweight and coop over seeds 1, 2 and 3, whose
stacks mix variants and seeds in both prompt modes. Then a sweep of full,
plain-cse, focal and linear-probe with the config
{"loss": {"cls_loss_weight": 0.0}}, written to the output root as
lambda0.json: at that blend weight the prompt runs skip the classification
part, whose constants are then never built, while the linear probe still
trains on the classification part alone. Then a sweep of full, no-cse and
no-margin with the config {"loss": {"cls_loss_weight": 1.0}}, written as
lambda1.json: at that blend weight all three compute the classification
part alone, and no-cse, whose embedding loss is switched off, trains apart
from the stack of full and no-margin. Last, a sweep of full, plain-cse,
bce, coop and linear-probe with the config {"train": {"lr0": 1e308}},
written as abort.json: every run aborts at epoch 1 with a non-finite loss,
so the abort messages, the partial run directories and the NumPy warnings
on the way are compared, and full and plain-cse, which a sweep trains as
one stack, fall back to training alone. Every output file is then compared
byte for byte, except run.json, which is compared without its wall_seconds;
for a differing .npz archive, the members that differ are named. Exit
codes, stdout and stderr are compared with the output root, the train
wall time and each warning's path:line: location masked; a warning's
category, message and source line are kept. Every .json file the working
tree writes is also parsed by a strict reader, which refuses NaN, Infinity
and -Infinity (RFC 8259 allows none of them), and each file it refuses is
reported. Prints each difference and each refused file and exits 1 if
there is any, 0 otherwise. Uses the standard library only; one comparison
takes about 60 s on a 2-core x86 VM.
"""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
import zipfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

VARIANTS = (
    "full",
    "no-cse",
    "no-margin",
    "no-reweight",
    "plain-cse",
    "db",
    "bce",
    "focal",
    "coop",
    "linear-probe",
)

# run from the output root, so every path here is relative to it
COMMANDS = (
    ("synth", "--out", "data.npz"),
    ("train", "--data", "data.npz", "--out", "train"),
    (
        "train",
        "--data",
        "data.npz",
        "--out",
        "train-flags",
        "--skip-gradcheck",
        "--ablation",
        "no-margin",
        "--loss",
        "bce",
        "--seed",
        "9",
    ),
    ("eval", "--data", "data.npz", "--ckpt", "train/prompts.ckpt.json", "--out", "eval.json"),
    # the trained prompts scored on a split they did not train on
    ("synth", "--out", "other.npz", "--seed", "8"),
    (
        "eval",
        "--data",
        "other.npz",
        "--ckpt",
        "train/prompts.ckpt.json",
        "--out",
        "eval-other.json",
    ),
    ("gradcheck",),
    ("sweep", "--data", "data.npz", "--out", "sweep", "--seeds", "1,2")
    + tuple(arg for name in VARIANTS for arg in ("--variant", name)),
    (
        "eval",
        "--data",
        "data.npz",
        "--ckpt",
        "sweep/linear-probe/seed-1/prompts.ckpt.json",
        "--out",
        "eval-probe.json",
    ),
    # a run trained in a stack, whose checkpoint is written from its view
    # into the stack's contexts
    (
        "eval",
        "--data",
        "data.npz",
        "--ckpt",
        "sweep/no-reweight/seed-2/prompts.ckpt.json",
        "--out",
        "eval-stacked.json",
    ),
    # a split whose value-only passes run in several row blocks
    ("synth", "--out", "big.npz", "--samples", "3000", "--classes", "60", "--dim", "32"),
    ("train", "--data", "big.npz", "--out", "big-train", "--skip-gradcheck", "--loss", "focal"),
    (
        "sweep",
        "--data",
        "big.npz",
        "--out",
        "big-sweep",
        "--seeds",
        "1",
        "--variant",
        "linear-probe",
        "--variant",
        "bce",
    ),
    # 201 classes: a width at which a row block of a product computed alone
    # can give other bits than the same rows of the whole product, over
    # 1000 rows, which value-only passes cover in four row blocks
    ("synth", "--out", "edge.npz", "--samples", "1000", "--classes", "201", "--dim", "32"),
    ("train", "--data", "edge.npz", "--out", "edge-train", "--skip-gradcheck"),
    (
        "sweep",
        "--data",
        "edge.npz",
        "--out",
        "edge-sweep",
        "--seeds",
        "1",
        "--variant",
        "linear-probe",
    ),
    # stacks of several variants and seeds, class-specific and shared
    ("sweep", "--data", "edge.npz", "--out", "edge-stacks", "--seeds", "1,2,3")
    + tuple(
        arg for name in ("full", "plain-cse", "no-reweight", "coop") for arg in ("--variant", name)
    ),
    # blend weight 0: the prompt runs train on the embedding part alone
    (
        "sweep",
        "--config",
        "lambda0.json",
        "--data",
        "data.npz",
        "--out",
        "lambda0-sweep",
        "--seeds",
        "1",
    )
    + tuple(
        arg for name in ("full", "plain-cse", "focal", "linear-probe") for arg in ("--variant", name)
    ),
    # blend weight 1: every run trains on the classification part alone
    (
        "sweep",
        "--config",
        "lambda1.json",
        "--data",
        "data.npz",
        "--out",
        "lambda1-sweep",
        "--seeds",
        "1",
    )
    + tuple(arg for name in ("full", "no-cse", "no-margin") for arg in ("--variant", name)),
    # a step size at which every run aborts in its first epoch
    ("sweep", "--config", "abort.json", "--data", "data.npz", "--out", "abort-sweep", "--seeds", "1")
    + tuple(
        arg
        for name in ("full", "plain-cse", "bce", "coop", "linear-probe")
        for arg in ("--variant", name)
    ),
)

CONFIGS = {
    "lambda0.json": '{"loss": {"cls_loss_weight": 0.0}}\n',
    "lambda1.json": '{"loss": {"cls_loss_weight": 1.0}}\n',
    "abort.json": '{"train": {"lr0": 1e308}}\n',
}

_WALL = re.compile(r"epochs in \d+\.\d+s")
# where a warning was issued: the tree's own source path and line number
_WARNING_AT = re.compile(r"^\S+:\d+: (?=\w+Warning: )", re.MULTILINE)


def extract_src(base: str, dest: Path) -> Path:
    """BASE's src/ directory, unpacked under dest."""
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", base, "src"],
        check=True,
        capture_output=True,
    ).stdout
    # extraction filters exist from Python 3.11.4 (and 3.10.12) on
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, **safe)
    return dest / "src"


def run_all(src: Path, out_root: Path) -> list[tuple[int, str, str]]:
    """(exit code, masked stdout, masked stderr) of each command, run in out_root."""
    out_root.mkdir(parents=True)
    for name, text in CONFIGS.items():
        (out_root / name).write_text(text)
    env = dict(os.environ, PYTHONPATH=str(src))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    results = []
    for args in COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "tailprompt.cli", *args],
            cwd=out_root,
            env=env,
            capture_output=True,
            text=True,
        )
        masked = [
            _WARNING_AT.sub(
                "<path:line>: ", _WALL.sub("epochs in <wall>s", text.replace(str(out_root), "<root>"))
            )
            for text in (proc.stdout, proc.stderr)
        ]
        results.append((proc.returncode, *masked))
    return results


def _npz_differences(a: Path, b: Path) -> list[str]:
    """The members of two differing .npz archives that differ, or that only
    one of them holds; ["differs"] when every member is equal or either file
    is not a zip archive."""
    try:
        with zipfile.ZipFile(a) as base, zipfile.ZipFile(b) as work:
            base_names, work_names = set(base.namelist()), set(work.namelist())
            diffs = [f"{name} in base only" for name in sorted(base_names - work_names)]
            diffs += [f"{name} in work only" for name in sorted(work_names - base_names)]
            diffs += [
                f"{name} differs"
                for name in sorted(base_names & work_names)
                if base.read(name) != work.read(name)
            ]
    except zipfile.BadZipFile:
        return ["differs"]
    return diffs or ["differs"]


def _file_differences(a: Path, b: Path) -> list[str]:
    """How two output files differ: [] when they match."""
    if a.name == "run.json":
        docs = [json.loads(path.read_text()) for path in (a, b)]
        for doc in docs:
            doc.pop("wall_seconds", None)
        return [] if docs[0] == docs[1] else ["differs"]
    if a.read_bytes() == b.read_bytes():
        return []
    return _npz_differences(a, b) if a.suffix == ".npz" else ["differs"]


def _refuse_constant(constant: str):
    raise ValueError(f"{constant} is not a JSON number")


def strict_json_failures(root: Path) -> list[str]:
    """One line per .json file under root that a strict JSON reader refuses."""
    failures = []
    for path in sorted(root.rglob("*.json")):
        try:
            json.loads(path.read_text(), parse_constant=_refuse_constant)
        except ValueError as exc:
            failures.append(f"{path.relative_to(root)}: not strict JSON: {exc}")
    return failures


def compare(base_root: Path, work_root: Path, base_runs, work_runs) -> list[str]:
    """One line per difference between the two output roots and command results."""
    diffs = []
    for args, base_run, work_run in zip(COMMANDS, base_runs, work_runs):
        for what, x, y in zip(("exit code", "stdout", "stderr"), base_run, work_run):
            if x != y:
                diffs.append(f"{args[0]}: {what} differs:\n--- base\n{x}\n--- work\n{y}")
    files = {
        root: {p.relative_to(root) for p in root.rglob("*") if p.is_file()}
        for root in (base_root, work_root)
    }
    for rel in sorted(files[base_root] ^ files[work_root]):
        side = "base" if rel in files[base_root] else "work"
        diffs.append(f"{rel}: written by {side} only")
    common = sorted(files[base_root] & files[work_root])
    for rel in common:
        diffs += [f"{rel}: {what}" for what in _file_differences(base_root / rel, work_root / rel)]
    print(f"compared {len(COMMANDS)} commands and {len(common)} files")
    return diffs


def main(argv: list[str]) -> int:
    base = argv[0] if argv else "HEAD"
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        tmp = Path(tmp)
        base_src = extract_src(base, tmp / "base-tree")
        base_root, work_root = tmp / "base", tmp / "work"
        base_runs = run_all(base_src, base_root)
        work_runs = run_all(REPO / "src", work_root)
        diffs = compare(base_root, work_root, base_runs, work_runs)
        diffs += strict_json_failures(work_root)
    for line in diffs:
        print(line)
    print(f"{base} vs working tree: {'identical' if not diffs else f'{len(diffs)} differences'}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
