import argparse
import dataclasses
import functools
import importlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tailprompt
from tailprompt.cli import EXIT_CONFIG, EXIT_GRADCHECK, EXIT_NUMERICS, EXIT_OK, build_parser, main
from tailprompt.data_model import MultiLabelDataset, save_dataset
from tailprompt.errors import NumericsError
from tailprompt.metrics import MAP_KEYS

SMALL_CONFIG = {
    "synth": {"num_classes": 4, "num_samples": 60, "dim": 16, "seed": 3},
    "train": {"epochs": 2, "batch_size": 16, "lr0": 0.05, "head_min": 15, "tail_max": 8},
}


def _save_saturated_dataset(path):
    # a class positive in every sample has an undefined classifier bias
    rng = np.random.default_rng(0)
    images = rng.standard_normal((10, 8))
    images /= np.linalg.norm(images, axis=1, keepdims=True)
    labels = np.zeros((10, 2), dtype=np.int64)
    labels[:, 0] = 1
    labels[::3, 1] = 1
    save_dataset(MultiLabelDataset(images, labels, images.copy(), ("a", "b")), path)
    return str(path)


def _refuse_constant(constant):
    raise ValueError(f"{constant} is not a JSON number")


def _assert_strict_json(root):
    """Every .json file under root parses as strict JSON: no NaN, Infinity
    or -Infinity, which RFC 8259 allows none of."""
    paths = sorted(Path(root).rglob("*.json"))
    assert paths
    for path in paths:
        json.loads(path.read_text(), parse_constant=_refuse_constant)


def _python(code, *args, timeout=120):
    """Run code in a fresh interpreter that imports tailprompt from this tree."""
    src = str(Path(tailprompt.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


@pytest.fixture()
def dataset_path(tmp_path, config_path):
    path = tmp_path / "data.npz"
    assert main(["synth", "--config", config_path, "--out", str(path)]) == EXIT_OK
    return str(path)


class TestSynth:
    def test_writes_dataset_and_table(self, tmp_path, config_path, capsys):
        out = tmp_path / "ds.npz"
        assert main(["synth", "--config", config_path, "--out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "wrote 60 samples x 4 classes" in stdout
        assert "group" in stdout
        assert out.exists()

    def test_rerun_byte_identical(self, tmp_path, config_path):
        a = tmp_path / "a.npz"
        b = tmp_path / "b.npz"
        main(["synth", "--config", config_path, "--out", str(a)])
        main(["synth", "--config", config_path, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_collision_refused(self, tmp_path, config_path, capsys):
        out = tmp_path / "ds.npz"
        main(["synth", "--config", config_path, "--out", str(out)])
        assert main(["synth", "--config", config_path, "--out", str(out)]) == EXIT_CONFIG
        assert "already exists" in capsys.readouterr().err
        assert (
            main(["synth", "--config", config_path, "--out", str(out), "--force"]) == EXIT_OK
        )

    def test_flag_overrides(self, tmp_path, capsys):
        out = tmp_path / "ds.npz"
        code = main(
            ["synth", "--classes", "3", "--samples", "30", "--dim", "8", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert "wrote 30 samples x 3 classes" in capsys.readouterr().out


class TestTrain:
    def test_run_dir_and_gradcheck_line(self, tmp_path, config_path, dataset_path, capsys):
        out = tmp_path / "run"
        code = main(
            ["train", "--config", config_path, "--data", dataset_path, "--out", str(out)]
        )
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "gradcheck passed on a 8-sample batch" in stdout
        assert "64 pooled coordinates finite-differenced" in stdout  # 4 classes x 16 dims
        assert "finished 2 epochs" in stdout
        assert sorted(p.name for p in out.iterdir()) == [
            "config.json",
            "metrics.csv",
            "prompts.ckpt.json",
            "run.json",
        ]
        _assert_strict_json(out)

    def test_rerun_byte_identical(self, tmp_path, config_path, dataset_path):
        a = tmp_path / "run-a"
        b = tmp_path / "run-b"
        for out in (a, b):
            main(["train", "--config", config_path, "--data", dataset_path, "--out", str(out)])
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "prompts.ckpt.json").read_bytes() == (b / "prompts.ckpt.json").read_bytes()
        assert (a / "config.json").read_bytes() == (b / "config.json").read_bytes()

    def test_skip_gradcheck(self, tmp_path, config_path, dataset_path, capsys):
        out = tmp_path / "run"
        main(
            [
                "train",
                "--config",
                config_path,
                "--data",
                dataset_path,
                "--out",
                str(out),
                "--skip-gradcheck",
            ]
        )
        assert "gradcheck passed" not in capsys.readouterr().out

    def test_ablation_and_loss_flags_echoed(self, tmp_path, config_path, dataset_path):
        out = tmp_path / "run"
        main(
            [
                "train",
                "--config",
                config_path,
                "--data",
                dataset_path,
                "--out",
                str(out),
                "--ablation",
                "no-margin",
                "--loss",
                "bce",
                "--seed",
                "9",
            ]
        )
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["loss"]["use_class_aware_margin"] is False
        assert echoed["loss"]["cls_loss_kind"] == "bce"
        assert echoed["train"]["seed"] == 9

    def test_saturated_class_is_a_numerics_failure(self, tmp_path, config_path, capsys):
        data = _save_saturated_dataset(tmp_path / "saturated.npz")
        out = str(tmp_path / "r")
        code = main(["train", "--config", config_path, "--data", data, "--out", out])
        assert code == EXIT_NUMERICS
        assert "infinite bias" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_on_an_epoch_last_step_aborts(self, tmp_path, dataset_path, capsys):
        # a batch larger than the split makes each epoch one step, whose
        # overflowed parameters the epoch record is the first to read
        train = {**SMALL_CONFIG["train"], "lr0": 1e308, "batch_size": 64}
        config = tmp_path / "huge-lr.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "train": train}))
        out = tmp_path / "run"
        argv = ["train", "--config", str(config), "--data", dataset_path, "--out", str(out)]
        assert main([*argv, "--skip-gradcheck"]) == EXIT_NUMERICS
        err = capsys.readouterr().err
        assert "run aborted: abort run: non-finite scores in the epoch record" in err
        run = json.loads((out / "run.json").read_text())
        assert run["failed"] and run["epochs_completed"] == 0
        # the overflowed contexts are written as null, and eval refuses them
        _assert_strict_json(out)
        contexts = json.loads((out / "prompts.ckpt.json").read_text())["contexts"]
        assert None in np.asarray(contexts, dtype=object).ravel()
        ckpt = str(out / "prompts.ckpt.json")
        argv = ["eval", "--config", str(config), "--data", dataset_path, "--ckpt", ckpt]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: scores must be finite\n"


class TestEval:
    def test_prompt_checkpoint(self, tmp_path, config_path, dataset_path, capsys):
        run = tmp_path / "run"
        main(["train", "--config", config_path, "--data", dataset_path, "--out", str(run)])
        run_doc = json.loads((run / "run.json").read_text())
        capsys.readouterr()

        summary = tmp_path / "eval.json"
        code = main(
            [
                "eval",
                "--config",
                config_path,
                "--data",
                dataset_path,
                "--ckpt",
                str(run / "prompts.ckpt.json"),
                "--out",
                str(summary),
            ]
        )
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "map_total" in stdout
        got = json.loads(summary.read_text())
        # the standalone evaluation reproduces the final training eval
        want = run_doc["final_eval"]["map_total"]
        assert got["map_total"] == pytest.approx(want, abs=1e-12)

    def test_probe_checkpoint(self, tmp_path, dataset_path, capsys):
        probe_config = dict(SMALL_CONFIG)
        probe_config["train"] = dict(SMALL_CONFIG["train"], baseline="linear_probe")
        cfg = tmp_path / "probe.json"
        cfg.write_text(json.dumps(probe_config))
        run = tmp_path / "probe-run"
        assert (
            main(["train", "--config", str(cfg), "--data", dataset_path, "--out", str(run)])
            == EXIT_OK
        )
        capsys.readouterr()
        code = main(
            [
                "eval",
                "--config",
                str(cfg),
                "--data",
                dataset_path,
                "--ckpt",
                str(run / "prompts.ckpt.json"),
            ]
        )
        assert code == EXIT_OK
        assert "map_total" in capsys.readouterr().out
        _assert_strict_json(run)

    def test_unknown_checkpoint_kind(self, tmp_path, config_path, dataset_path, capsys):
        bad = tmp_path / "bad.ckpt.json"
        bad.write_text(json.dumps({"kind": "mlp"}))
        code = main(
            [
                "eval",
                "--config",
                config_path,
                "--data",
                dataset_path,
                "--ckpt",
                str(bad),
            ]
        )
        assert code == EXIT_CONFIG
        assert "unknown checkpoint kind" in capsys.readouterr().err

    def test_prompt_checkpoint_on_a_split_with_other_classes(
        self, tmp_path, config_path, dataset_path, capsys
    ):
        """A prompt checkpoint refuses a split with another class count by
        naming both counts, as a probe checkpoint refuses another shape."""
        run, other = tmp_path / "run", str(tmp_path / "five.npz")
        main(["train", "--config", config_path, "--data", dataset_path, "--out", str(run)])
        main(["synth", "--config", config_path, "--classes", "5", "--out", other])
        capsys.readouterr()
        ckpt = str(run / "prompts.ckpt.json")
        code = main(["eval", "--config", config_path, "--data", other, "--ckpt", ckpt])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "error: prompt checkpoint holds 4 classes; the dataset has 5\n"

    # (flag whose file is bad, its text or None for a missing file, expected in the error)
    BAD_INPUTS = {
        "ckpt-invalid-json": ("--ckpt", "{not json", "not valid JSON"),
        "ckpt-infinity": (
            "--ckpt",
            '{"kind": "linear_probe", "weights": [[Infinity]], "bias": [0.0]}',
            "checkpoint <bad> is not valid JSON: Infinity is not a JSON number",
        ),
        "config-nan": (
            "--config",
            '{"loss": {"eta": NaN}}',
            "config file <bad> is not valid JSON: NaN is not a JSON number",
        ),
        "config-minus-infinity": (
            "--config",
            '{"train": {"tau": -Infinity}}',
            "config file <bad> is not valid JSON: -Infinity is not a JSON number",
        ),
        "ckpt-not-an-object": ("--ckpt", "[1, 2]", "JSON object"),
        "probe-without-weights": (
            "--ckpt",
            json.dumps({"kind": "linear_probe", "bias": [0.0] * 4}),
            "missing field",
        ),
        "probe-wrong-shape": (
            "--ckpt",
            json.dumps({"kind": "linear_probe", "weights": [[0.0] * 16] * 3, "bias": [0.0] * 4}),
            "the dataset needs (4, 16)",
        ),
        "prompts-ragged-contexts": (
            "--ckpt",
            json.dumps({"contexts": [[[0.0]], [[0.0, 1.0]]], "class_tokens": [], "mode": "x"}),
            "malformed",
        ),
        "prompts-bad-encoder-seed": (
            "--ckpt",
            json.dumps({"contexts": [], "class_tokens": [], "mode": "x", "encoder_seed": "7"}),
            "is not a seed",
        ),
        # a PromptSet takes a stack's contexts; a checkpoint never holds them
        "prompts-run-axis-contexts": (
            "--ckpt",
            json.dumps(
                {
                    "kind": "prompts",
                    "mode": "class_specific",
                    "num_context_tokens": 2,
                    "token_dim": 16,
                    "contexts": [[[[0.1] * 16] * 2] * 4] * 3,
                    "class_tokens": [[1.0] * 16] * 4,
                    "encoder_seed": 11,
                }
            ),
            "contexts must be (C or 1, M, d_token)",
        ),
        "missing-ckpt": ("--ckpt", None, "cannot read checkpoint"),
        "missing-data": ("--data", None, "cannot read dataset snapshot"),
        "missing-config": ("--config", None, "cannot read config file"),
    }

    @pytest.mark.parametrize("case", list(BAD_INPUTS))
    def test_bad_input_file_exits_1(self, tmp_path, config_path, dataset_path, capsys, case):
        flag, text, message = self.BAD_INPUTS[case]
        bad = tmp_path / "bad-input.json"
        if text is not None:
            bad.write_text(text)
        paths = {"--config": config_path, "--data": dataset_path, "--ckpt": str(tmp_path / "x")}
        paths[flag] = str(bad)
        argv = ["eval"] + [item for pair in paths.items() for item in pair]
        capsys.readouterr()
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message.replace("<bad>", str(bad)) in err


class TestGradcheckCommand:
    def test_small_sweep_passes(self, capsys):
        assert main(["gradcheck", "--cases", "6"]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "gradcheck: 6/6 cases passed" in stdout


def _corrupt_analytic_gradient(monkeypatch, flat_index, min_tokens=1):
    """Replace gradcheck's analytic gradients for prompts of at least
    min_tokens context tokens by a full-shape copy (one row per token) that
    is wrong by 1 at flat_index."""
    import tailprompt.gradcheck as gradcheck

    real = gradcheck.total_loss

    def wrong(batch, prompts, *args, need_grad=True, **kwargs):
        report = real(batch, prompts, *args, need_grad=need_grad, **kwargs)
        if need_grad and prompts.num_context_tokens >= min_tokens:
            full = np.broadcast_to(report.gradient, prompts.contexts.shape).copy()
            full.reshape(-1)[flat_index] += 1.0
            report = dataclasses.replace(report, gradient=full)
        return report

    monkeypatch.setattr(gradcheck, "total_loss", wrong)


def _corrupt_pooled_gradient(monkeypatch):
    """Make the gradient w.r.t. class 2's pooled vector wrong at dim 5 in
    every layout, so that only the finite difference catches it."""
    import tailprompt.losses as losses

    real = losses.encode_backward

    def wrong(encoder, prompts, encoding, grad_embeddings):
        grad = real(encoder, prompts, encoding, grad_embeddings)
        grad[2, :, 5] += 1.0 / (prompts.num_context_tokens + 1)
        return grad

    monkeypatch.setattr(losses, "encode_backward", wrong)


class TestGradcheckFailureNamesTheCoordinate:
    def test_pretrain_gradcheck(self, monkeypatch, tmp_path, config_path, dataset_path, capsys):
        # contexts are (4 classes, 4 tokens, 16 dims): 181 = 2*64 + 3*16 + 5.
        # The M = 1 pooled set's gradient stays right and passes finite
        # differences, so the exact comparison of the M tokens with it is
        # what catches the error.
        _corrupt_analytic_gradient(monkeypatch, 181, min_tokens=2)
        out = tmp_path / "run"
        code = main(["train", "--config", config_path, "--data", dataset_path, "--out", str(out)])
        assert code == EXIT_GRADCHECK
        assert "at coordinate 181 (class 2, token 3, dim 5)" in capsys.readouterr().err
        assert not out.exists()

    def test_pretrain_gradcheck_pooled(
        self, monkeypatch, tmp_path, config_path, dataset_path, capsys
    ):
        # Each token still equals s times the pooled gradient, so only the
        # finite difference can catch the error; it is named at token 0.
        _corrupt_pooled_gradient(monkeypatch)
        out = tmp_path / "run"
        code = main(["train", "--config", config_path, "--data", dataset_path, "--out", str(out)])
        assert code == EXIT_GRADCHECK
        assert "at coordinate 133 (class 2, token 0, dim 5)" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep(self, monkeypatch, capsys):
        from tailprompt.gradcheck import sweep_cases

        _corrupt_analytic_gradient(monkeypatch, 5)
        assert main(["gradcheck", "--cases", "3"]) == EXIT_GRADCHECK
        captured = capsys.readouterr()
        assert "gradcheck: 0/3 cases passed" in captured.out
        err = captured.err
        for case in sweep_cases(3):
            _, m, dt = case.prompts.contexts.shape
            name = f"(class {5 // (m * dt)}, token {5 // dt % m}, dim {5 % dt})"
            assert f"FAIL {case.description}: " in err
            assert f"at coordinate 5 {name}" in err


def _gate_raises(monkeypatch):
    import tailprompt.cli as cli

    def raising(*args, **kwargs):
        raise NumericsError("the gate's loss is not finite")

    monkeypatch.setattr(cli, "check_training_state", raising)


def _gate_warns(monkeypatch):
    import tailprompt.cli as cli

    real = cli.check_training_state

    def warning(*args, **kwargs):
        warnings.warn("the gate warns", RuntimeWarning)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "check_training_state", warning)


_FORK_WARNING = r"This process .* is multi-threaded"
_WALL = re.compile(r"epochs in \d+\.\d+s")


def _assert_no_child():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _count_forks(monkeypatch) -> list:
    """Patch cli._Child to list the serve function of each child it forks
    from this process; the list."""
    import tailprompt.cli as cli

    forks = []

    class RecordingChild(cli._Child):
        def __init__(self, serve):
            forks.append(serve)
            super().__init__(serve)

    monkeypatch.setattr(cli, "_Child", RecordingChild)
    return forks


class TestGateWhileTraining:
    """On two usable cores, train runs its pre-training gradcheck in a forked
    child while this process trains; on one, it runs the two in turn. Both
    give the same exit code, stdout, stderr, warnings and run directory, and
    neither leaves a child process behind.

    The process is taken to run one thread, as it does with one BLAS thread;
    it may run more here, so Python 3.12's warning on forking it is ignored."""

    def _train(self, monkeypatch, capsys, out, argv, cores, setup=None):
        """What one train at the given core count gave, after setup(), if
        given: (exit code, stdout and stderr with the wall time masked, each
        warning as (category, message), the run directory's files with
        run.json's wall_seconds dropped, or None), and how many gate
        children it started and how many times it trained."""
        import tailprompt.cli as cli

        train_mod = importlib.import_module("tailprompt.train")
        trains = []
        real_train = cli.train

        def counting_train(*args, **kwargs):
            trains.append(args)
            return real_train(*args, **kwargs)

        capsys.readouterr()
        with monkeypatch.context() as m:
            m.setattr(cli, "_usable_cores", lambda: cores)
            m.setattr(train_mod, "usable_cores", lambda: cores)
            m.setattr(train_mod, "_threads", lambda: 1)
            children = _count_forks(m)
            m.setattr(cli, "train", counting_train)
            if setup is not None:
                setup(m)
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
                    code = main(["train", *argv, "--out", str(out)])
            finally:
                _assert_no_child()
        captured = capsys.readouterr()
        files = None
        if out.exists():
            files = {path.name: path.read_bytes() for path in out.iterdir()}
            run = json.loads(files.pop("run.json"))
            assert run.pop("wall_seconds") >= 0
            files["run.json"] = run
        out_text, err_text = (
            _WALL.sub("epochs in <wall>s", text).replace(str(out), "<out>") for text in captured
        )
        warned = [(w.category, str(w.message)) for w in caught]
        outputs = (code, out_text, err_text, warned, files)
        return outputs, len(children), len(trains)

    def _assert_same(self, monkeypatch, capsys, tmp_path, argv, setup=None):
        """The outputs at 2 and 1 cores, which must be equal, and, at each,
        the gate children started and the trainings run."""
        (forked, *at_two), (serial, *at_one) = [
            self._train(monkeypatch, capsys, tmp_path / f"run-{cores}", argv, cores, setup)
            for cores in (2, 1)
        ]
        assert forked == serial
        assert at_one[0] == 0
        return serial, at_two, at_one

    def test_passing_gate(self, monkeypatch, capsys, tmp_path, config_path, dataset_path):
        argv = ["--config", config_path, "--data", dataset_path]
        (code, out, err, warned, files), at_two, at_one = self._assert_same(
            monkeypatch, capsys, tmp_path, argv
        )
        assert code == EXIT_OK and err == "" and warned == []
        assert out.splitlines()[0].startswith("gradcheck passed on a 8-sample batch")
        assert "finished 2 epochs" in out
        assert sorted(files) == ["config.json", "metrics.csv", "prompts.ckpt.json", "run.json"]
        assert at_two == [1, 1] and at_one == [0, 1]

    @pytest.mark.parametrize(
        "setup, message",
        [
            (
                functools.partial(_corrupt_analytic_gradient, flat_index=181, min_tokens=2),
                "at coordinate 181 (class 2, token 3, dim 5)",
            ),
            (_corrupt_pooled_gradient, "at coordinate 133 (class 2, token 0, dim 5)"),
        ],
        ids=["tokens", "pooled"],
    )
    @pytest.mark.parametrize("lr0", [0.05, 1e308], ids=["trains", "diverges"])
    def test_failing_gate(self, monkeypatch, capsys, tmp_path, dataset_path, setup, message, lr0):
        # the run trained meanwhile, which at lr0 1e308 diverges with
        # warnings, is dropped, and nothing of it shows
        config = tmp_path / "gated.json"
        train = {**SMALL_CONFIG["train"], "lr0": lr0}
        config.write_text(json.dumps({**SMALL_CONFIG, "train": train}))
        argv = ["--config", str(config), "--data", dataset_path]
        (code, out, err, warned, files), at_two, at_one = self._assert_same(
            monkeypatch, capsys, tmp_path, argv, setup
        )
        assert code == EXIT_GRADCHECK and out == "" and warned == [] and files is None
        assert err.startswith("gradcheck failed before training: ") and err.count("\n") == 1
        assert err.endswith(f"{message}\n")
        assert at_two == [1, 1] and at_one == [0, 0]

    def test_diverging_run_trains_again(self, monkeypatch, capsys, tmp_path, dataset_path):
        # the gate passes at the starting state; the run trained meanwhile
        # warns, so it trains again here, where its warnings are issued
        config = tmp_path / "huge-lr.json"
        train = {**SMALL_CONFIG["train"], "lr0": 1e308}
        config.write_text(json.dumps({**SMALL_CONFIG, "train": train}))
        argv = ["--config", str(config), "--data", dataset_path]
        (code, out, err, warned, files), at_two, at_one = self._assert_same(
            monkeypatch, capsys, tmp_path, argv
        )
        assert code == EXIT_NUMERICS and out.startswith("gradcheck passed")
        assert err.startswith("run aborted: abort run: non-finite")
        assert warned and all(category is RuntimeWarning for category, _ in warned)
        assert files["run.json"]["failed"]
        assert at_two == [1, 2] and at_one == [0, 1]

    @pytest.mark.parametrize("setup", [_gate_raises, _gate_warns], ids=["raises", "warns"])
    def test_gate_that_raises_or_warns_runs_again(
        self, monkeypatch, capsys, tmp_path, config_path, dataset_path, setup
    ):
        argv = ["--config", config_path, "--data", dataset_path]
        (code, out, err, warned, files), at_two, at_one = self._assert_same(
            monkeypatch, capsys, tmp_path, argv, setup
        )
        if setup is _gate_raises:
            assert code == EXIT_NUMERICS and out == "" and files is None
            assert err == "numerical failure: the gate's loss is not finite\n"
            assert warned == [] and at_two == [1, 1] and at_one == [0, 0]
        else:
            assert code == EXIT_OK and out.startswith("gradcheck passed") and err == ""
            assert warned == [(RuntimeWarning, "the gate warns")]
            assert at_two == [1, 1] and at_one == [0, 1]

    def test_wrapped_gate_function_forks_no_child(
        self, monkeypatch, capsys, tmp_path, config_path, dataset_path
    ):
        # a tracer's wrapper must see every loss the gate evaluates
        import tailprompt.gradcheck as gradcheck

        value_calls = []

        def setup(m):
            real = gradcheck.total_loss

            @functools.wraps(real)
            def counting(*args, need_grad=True, **kwargs):
                value_calls.append(not need_grad)
                return real(*args, need_grad=need_grad, **kwargs)

            m.setattr(gradcheck, "total_loss", counting)

        argv = ["--config", config_path, "--data", dataset_path]
        (code, *_), at_two, at_one = self._assert_same(monkeypatch, capsys, tmp_path, argv, setup)
        assert code == EXIT_OK and at_two == [0, 1] and at_one == [0, 1]
        # 2 value-only losses per pooled coordinate (4 classes x 16 dims), at each core count
        assert value_calls.count(True) == 2 * 2 * 64


def _patch_case_check(m, cases, outcome):
    """Patch gradcheck.check_total_loss to return outcome(index, report) for
    the sweep case of each index in cases, where report is the real one;
    cases are told apart by their tau."""
    import tailprompt.gradcheck as gradcheck

    real = gradcheck.check_total_loss
    index = {case.tau: i for i, case in enumerate(gradcheck.sweep_cases(max(cases) + 1))}

    def patched(batch, prompts, encoder, stats, config, tau=1.0, **kwargs):
        report = real(batch, prompts, encoder, stats, config, tau, **kwargs)
        return outcome(index[tau], report) if index.get(tau) in cases else report

    m.setattr(gradcheck, "check_total_loss", patched)


class TestGradcheckShares:
    """On two usable cores, gradcheck checks its cases in two interleaved
    shares, the second in a forked child; on one, it checks them in turn.
    Both give the same exit code, stdout, stderr and warnings, and neither
    leaves a child process behind. The process is taken to run one thread,
    as it does with one BLAS thread; Python 3.12's warning on forking it is
    ignored."""

    def _gradcheck(self, monkeypatch, capsys, argv, cores, setup=None):
        """(exit code, stdout, stderr, each warning as (category, message))
        of one gradcheck at the given core count, after setup(m), if given,
        and the share sizes, children forked and checks run here."""
        import tailprompt.cli as cli
        import tailprompt.gradcheck as gradcheck

        train_mod = importlib.import_module("tailprompt.train")
        sizes, checks = [], []
        real_run_shares = cli._run_shares

        def recording_run_shares(shares, run):
            sizes.extend(len(share) for share in shares)
            return real_run_shares(shares, run)

        capsys.readouterr()
        with monkeypatch.context() as m:
            m.setattr(cli, "_usable_cores", lambda: cores)
            m.setattr(train_mod, "_threads", lambda: 1)
            m.setattr(cli, "_run_shares", recording_run_shares)
            forks = _count_forks(m)
            real_check = gradcheck.check_total_loss

            def counting_check(*args, **kwargs):
                checks.append(os.getpid())
                return real_check(*args, **kwargs)

            m.setattr(gradcheck, "check_total_loss", counting_check)
            if setup is not None:
                setup(m)
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
                    code = main(["gradcheck", *argv])
            finally:
                _assert_no_child()
        out, err = capsys.readouterr()
        warned = [(w.category, str(w.message)) for w in caught]
        return (code, out, err, warned), sizes, len(forks), len(checks)

    def _assert_same(self, monkeypatch, capsys, argv, setup=None):
        """The outputs at 2 and 1 cores, which must be equal, and, at each,
        the share sizes, children forked and checks run here."""
        (forked, *at_two), (serial, *at_one) = [
            self._gradcheck(monkeypatch, capsys, argv, cores, setup) for cores in (2, 1)
        ]
        assert forked == serial
        assert at_one[:2] == [[], 0]
        return serial, at_two, at_one

    def test_seven_cases_in_shares_of_four_and_three(self, monkeypatch, capsys):
        (code, out, err, warned), at_two, at_one = self._assert_same(
            monkeypatch, capsys, ["--cases", "7"]
        )
        assert code == EXIT_OK and err == "" and warned == []
        assert out.startswith("gradcheck: 7/7 cases passed, worst rel error ")
        # cases 0, 2, 4 and 6 are checked here, 1, 3 and 5 in the child
        assert at_two == [[4, 3], 1, 4] and at_one == [[], 0, 7]

    def test_one_case_forks_no_child(self, monkeypatch, capsys):
        (code, out, *_), at_two, at_one = self._assert_same(monkeypatch, capsys, ["--cases", "1"])
        assert code == EXIT_OK and out.startswith("gradcheck: 1/1 cases passed")
        assert at_two == at_one == [[], 0, 1]

    def test_failing_cases_in_both_shares_in_case_order(self, monkeypatch, capsys):
        from tailprompt.gradcheck import sweep_cases

        def fail(i, report):
            return dataclasses.replace(report, max_rel_error=0.5, worst_index=i, passed=False)

        def setup(m):
            _patch_case_check(m, {3, 4}, fail)

        (code, out, err, warned), at_two, at_one = self._assert_same(
            monkeypatch, capsys, ["--cases", "7"], setup
        )
        assert code == EXIT_GRADCHECK and warned == []
        assert out.startswith("gradcheck: 5/7 cases passed, worst rel error 5.000e-01")
        cases = sweep_cases(7)
        assert [line.split(": max rel error")[0] for line in err.splitlines()] == [
            f"FAIL {cases[i].description}" for i in (3, 4)
        ]
        assert "max rel error 5.000e-01 at coordinate 3 " in err.splitlines()[0]
        assert at_two == [[4, 3], 1, 4] and at_one == [[], 0, 7]

    def test_a_child_case_that_raises_runs_the_sweep_again_here(self, monkeypatch, capsys):
        def raising(i, report):
            raise NumericsError(f"case {i} is not finite")

        def setup(m):
            _patch_case_check(m, {1}, raising)

        (code, out, err, warned), at_two, at_one = self._assert_same(
            monkeypatch, capsys, ["--cases", "7"], setup
        )
        assert code == EXIT_NUMERICS and out == "" and warned == []
        assert err == "numerical failure: case 1 is not finite\n"
        # share 0's four cases, then cases 0 and 1 of the serial sweep
        assert at_two == [[4, 3], 1, 4 + 2] and at_one == [[], 0, 2]

    def test_a_child_case_that_warns_runs_the_sweep_again_here(self, monkeypatch, capsys):
        def warning(i, report):
            warnings.warn(f"case {i} warns", RuntimeWarning)
            return report

        def setup(m):
            _patch_case_check(m, {5}, warning)

        (code, out, err, warned), at_two, at_one = self._assert_same(
            monkeypatch, capsys, ["--cases", "7"], setup
        )
        assert code == EXIT_OK and out.startswith("gradcheck: 7/7 cases passed") and err == ""
        assert warned == [(RuntimeWarning, "case 5 warns")]
        assert at_two == [[4, 3], 1, 4 + 7] and at_one == [[], 0, 7]

    def test_wrapped_check_forks_no_child(self, monkeypatch, capsys):
        # a tracer's wrapper must see every case the sweep checks
        import tailprompt.gradcheck as gradcheck

        seen = []

        def setup(m):
            real = gradcheck.check_total_loss

            @functools.wraps(real)
            def wrapper(*args, **kwargs):
                seen.append(os.getpid())
                return real(*args, **kwargs)

            m.setattr(gradcheck, "check_total_loss", wrapper)

        (code, *_), at_two, at_one = self._assert_same(
            monkeypatch, capsys, ["--cases", "7"], setup
        )
        assert code == EXIT_OK and at_two == at_one == [[], 0, 7]
        assert seen == [os.getpid()] * 14

    @pytest.mark.parametrize(
        "argv, message",
        [(["--cases", "0"], "num_cases must be >= 1"), (["--seed", "-5"], "base_seed must be >= 0")],
        ids=["cases", "seed"],
    )
    def test_config_errors_come_before_any_fork(self, monkeypatch, capsys, argv, message):
        (code, out, err, warned), at_two, at_one = self._assert_same(monkeypatch, capsys, argv)
        assert code == EXIT_CONFIG and out == "" and err == f"error: {message}\n"
        assert at_two == at_one == [[], 0, 0]


class TestSweep:
    def test_single_variant_aggregates(self, tmp_path, config_path, dataset_path, capsys):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--config",
                config_path,
                "--data",
                dataset_path,
                "--out",
                str(out),
                "--variant",
                "bce",
                "--seeds",
                "5,6",
            ]
        )
        assert code == EXIT_OK
        assert (out / "bce" / "seed-5" / "run.json").exists()
        assert (out / "bce" / "seed-6" / "run.json").exists()
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("variant,runs,failed,map_total_mean,map_total_std")
        cells = lines[1].split(",")
        assert cells[0] == "bce"
        assert cells[1] == "2"
        assert cells[2] == "0"
        # the mean of the two runs matches the per-run records exactly
        finals = [
            json.loads((out / "bce" / f"seed-{s}" / "run.json").read_text())["final_eval"][
                "map_total"
            ]
            for s in (5, 6)
        ]
        assert float(cells[3]) == pytest.approx(np.mean(finals), abs=1e-15)

    def test_single_seed_zero_std(self, tmp_path, config_path, dataset_path):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--config",
                config_path,
                "--data",
                dataset_path,
                "--out",
                str(out),
                "--variant",
                "full",
                "--seeds",
                "4",
            ]
        )
        assert code == EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        cells = lines[1].split(",")
        assert cells[1] == "1"
        assert float(cells[4]) == 0.0  # population std of one value

    def test_duplicate_variant_rejected(self, tmp_path, config_path, dataset_path, capsys):
        code = main(
            [
                "sweep",
                "--config",
                config_path,
                "--data",
                dataset_path,
                "--out",
                str(tmp_path / "s"),
                "--variant",
                "bce",
                "--variant",
                "bce",
            ]
        )
        assert code == EXIT_CONFIG
        assert "duplicate variant" in capsys.readouterr().err

    def test_unknown_variant_lists_registry(self, tmp_path, config_path, capsys):
        code = main(
            [
                "sweep",
                "--config",
                config_path,
                "--out",
                str(tmp_path / "s"),
                "--variant",
                "nonesuch",
            ]
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unknown variant" in err
        assert "full" in err

    def test_requires_a_variant(self, tmp_path, config_path, capsys):
        code = main(["sweep", "--config", config_path, "--out", str(tmp_path / "s")])
        assert code == EXIT_CONFIG
        assert "at least one --variant" in capsys.readouterr().err

    def test_duplicate_seeds_rejected(self, tmp_path, config_path, capsys):
        code = main(
            [
                "sweep",
                "--config",
                config_path,
                "--out",
                str(tmp_path / "s"),
                "--variant",
                "full",
                "--seeds",
                "3,3",
            ]
        )
        assert code == EXIT_CONFIG
        assert "duplicate seed" in capsys.readouterr().err

    def test_negative_seed_rejected_before_training(
        self, monkeypatch, tmp_path, config_path, capsys
    ):
        from tailprompt import cli

        def fail(*args, **kwargs):
            raise AssertionError("cli.train ran before every run config was built")

        monkeypatch.setattr(cli, "train", fail)
        out = tmp_path / "s"
        args = ["--variant", "full", "--variant", "bce", "--seeds", "1,-1"]
        code = main(["sweep", "--config", config_path, "--out", str(out), *args])
        assert code == EXIT_CONFIG
        assert "seeds must be >= 0" in capsys.readouterr().err
        assert not out.exists()


def _sweep_outputs(root):
    """Every file under a sweep root, run.json without its wall time."""
    files = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            text = path.read_text()
            if path.name == "run.json":
                doc = json.loads(text)
                del doc["wall_seconds"]
                text = json.dumps(doc)
            files[path.relative_to(root).as_posix()] = text
    return files


class TestSweepWorkers:
    """Runs are split over forked workers by a fixed rule; no output depends on
    how many processes ran them."""

    @staticmethod
    def _sweep(monkeypatch, capsys, root, workers, argv):
        from tailprompt import cli

        monkeypatch.setattr(cli, "_usable_cores", lambda: workers)
        code = main(["sweep", "--out", str(root), *argv])
        out, err = capsys.readouterr()
        return code, out.replace(str(root), "ROOT"), err.replace(str(root), "ROOT")

    def test_outputs_do_not_depend_on_the_worker_count(
        self, monkeypatch, tmp_path, config_path, dataset_path, capsys
    ):
        from tailprompt import cli

        argv = ["--config", config_path, "--data", dataset_path, "--seeds", "1,2"]
        argv += ["--variant", "full", "--variant", "bce"]

        def refuse(*args, **kwargs):
            raise AssertionError("a one-process sweep started a process")

        with monkeypatch.context() as m:
            m.setattr(os, "fork", refuse)
            serial = self._sweep(m, capsys, tmp_path / "one", 1, argv)

        here = []
        real_train_stack = cli.train_stack

        def recording_train_stack(dataset, train_configs, spare_core=None):
            here.append([(c.loss.cls_loss_kind, c.seed) for c in train_configs])
            return real_train_stack(dataset, train_configs, spare_core)

        def refuse_train(dataset, train_config, spare_core=None):
            raise AssertionError("a run of a stack that trained was trained alone")

        def refuse_pickle(self, protocol):
            raise AssertionError("the dataset was pickled")

        forks = _count_forks(monkeypatch)
        monkeypatch.setattr(cli, "train_stack", recording_train_stack)
        monkeypatch.setattr(cli, "train", refuse_train)
        monkeypatch.setattr(MultiLabelDataset, "__reduce_ex__", refuse_pickle)
        parallel = self._sweep(monkeypatch, capsys, tmp_path / "three", 3, argv)

        assert serial[0] == EXIT_OK
        assert parallel == serial
        assert _sweep_outputs(tmp_path / "three") == _sweep_outputs(tmp_path / "one")
        assert len(_sweep_outputs(tmp_path / "one")) == 1 + 4 * 4
        assert len(forks) == 1
        # each variant's seeds stack; this process trained full's stack and
        # the one child bce's: no child is forked for the empty third share
        assert here == [[("db", 1), ("db", 2)]]

    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_record_workers_only_where_the_shares_leave_a_core(
        self, monkeypatch, tmp_path, config_path, dataset_path, capsys
    ):
        """On two cores, a sweep of two shares forks its one share child and
        no record worker, in either share; a sweep of one share trains in
        this process with a record worker. The process is taken to run one
        thread, as it does with one BLAS thread (it may run more here, hence
        the ignored warning of Python 3.12 on forking it)."""
        train_mod = importlib.import_module("tailprompt.train")
        started = []

        class RefusedWorker:
            def __init__(self, *args):
                raise AssertionError("a record worker was started")

        class RecordingWorker(train_mod._RecordWorker):
            def __init__(self, *args):
                started.append(os.getpid())
                super().__init__(*args)

        argv = ["--config", config_path, "--data", dataset_path, "--seeds", "1"]
        monkeypatch.setattr(train_mod, "_threads", lambda: 1)
        forks = _count_forks(monkeypatch)
        with monkeypatch.context() as m:
            m.setattr(train_mod, "_RecordWorker", RefusedWorker)
            two = [*argv, "--variant", "full", "--variant", "bce"]
            assert self._sweep(m, capsys, tmp_path / "two", 2, two)[0] == EXIT_OK
        assert len(forks) == 1
        monkeypatch.setattr(train_mod, "_RecordWorker", RecordingWorker)
        one = [*argv, "--variant", "full"]
        assert self._sweep(monkeypatch, capsys, tmp_path / "one", 2, one)[0] == EXIT_OK
        assert len(forks) == 1 and started == [os.getpid()]

    def test_shares_chunk_groups_onto_the_least_loaded_share(self):
        from tailprompt.cli import _shares

        # key: the job's letter in lower case; digits train alone
        def key(job):
            return job.lower() if job.isalpha() else None

        jobs = ["a", "b", "A", "1", "B", "a", "b"]
        # groups a: [0, 2, 5], b: [1, 4, 6], 1: [3]; chunks of ceil(7 / 2) = 4
        assert _shares(jobs, 2, key) == [[["a", "A", "a"], ["1"]], [["b", "B", "b"]]]
        # chunks of ceil(7 / 3) = 3 jobs, one share each
        assert _shares(jobs, 3, key) == [[["a", "A", "a"]], [["b", "B", "b"]], [["1"]]]
        # chunks of 2: a[0,2] b[1,4] 1[3] a[5] b[6], in the order of their first job
        assert _shares(jobs, 4, key) == [[["a", "A"]], [["b", "B"]], [["1"], ["b"]], [["a"]]]
        assert _shares(jobs, 7, key) == [[[job]] for job in jobs]
        assert _shares(jobs, 1, key) == [[["a", "A", "a"], ["b", "B", "b"], ["1"]]]
        assert _shares(["a", "b", "c"], 3, lambda job: None) == [[["a"]], [["b"]], [["c"]]]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_run_in_a_worker(self, monkeypatch, tmp_path, dataset_path, capsys):
        # one step at this size overflows the parameters, and the run aborts
        train = {**SMALL_CONFIG["train"], "lr0": 1e308}
        config = tmp_path / "huge-lr.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "train": train}))
        argv = ["--config", str(config), "--data", dataset_path, "--seeds", "1"]
        argv += ["--variant", "full", "--variant", "bce"]
        results = [self._sweep(monkeypatch, capsys, tmp_path / f"w{w}", w, argv) for w in (1, 2)]

        assert results[0] == results[1]
        code, out, err = results[1]
        assert code == EXIT_OK
        assert out == "wrote ROOT/sweep.csv\n"
        assert err.splitlines() == [
            f"{name} seed=1: FAILED (abort run: non-finite loss at epoch 1)"
            for name in ("full", "bce")
        ]
        rows = (tmp_path / "w2" / "sweep.csv").read_text().splitlines()
        assert [row.split(",")[:3] for row in rows[1:]] == [["full", "1", "1"], ["bce", "1", "1"]]
        assert json.loads((tmp_path / "w2" / "bce" / "seed-1" / "run.json").read_text())["failed"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_on_an_epoch_last_step_fails_its_runs(
        self, monkeypatch, tmp_path, dataset_path, capsys
    ):
        # each epoch is one step, and the epoch record reads its parameters
        # first: the stack of full and plain-cse and the probe fail at
        # epoch 1, the stack's runs again alone, and the sweep writes its table
        train = {**SMALL_CONFIG["train"], "lr0": 1e308, "batch_size": 64}
        config = tmp_path / "huge-lr.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "train": train}))
        argv = ["--config", str(config), "--data", dataset_path, "--seeds", "1"]
        names = ("full", "plain-cse", "linear-probe")
        argv += [arg for name in names for arg in ("--variant", name)]
        code, out, err = self._sweep(monkeypatch, capsys, tmp_path / "w1", 1, argv)

        assert code == EXIT_OK
        assert out == "wrote ROOT/sweep.csv\n"
        assert err.splitlines() == [
            f"{name} seed=1: FAILED (abort run: non-finite scores in the epoch record)"
            for name in names
        ]
        rows = (tmp_path / "w1" / "sweep.csv").read_text().splitlines()
        assert [row.split(",")[:3] for row in rows[1:]] == [[name, "1", "1"] for name in names]
        for name in names:
            run = json.loads((tmp_path / "w1" / name / "seed-1" / "run.json").read_text())
            assert run["failed"] and run["epochs_completed"] == 0
        _assert_strict_json(tmp_path / "w1")

    def test_warnings_come_once_per_run_before_its_line(
        self, monkeypatch, tmp_path, dataset_path, capsys
    ):
        train = {**SMALL_CONFIG["train"], "lr0": 1e308}
        config = tmp_path / "huge-lr.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "train": train}))
        argv = ["--config", str(config), "--data", dataset_path, "--seeds", "1"]
        argv += ["--variant", "full", "--variant", "bce"]

        def show(message, category, filename, lineno, file=None, line=None):
            print(f"{category.__name__}: {message}", file=sys.stderr)

        results = []
        for w in (1, 2):
            with warnings.catch_warnings():
                warnings.simplefilter("default")
                monkeypatch.setattr(warnings, "showwarning", show)
                results.append(self._sweep(monkeypatch, capsys, tmp_path / f"w{w}", w, argv))

        assert results[0] == results[1]
        run_warnings = [
            "RuntimeWarning: invalid value encountered in matmul",
            "RuntimeWarning: invalid value encountered in logaddexp",
        ]
        assert results[1][2].splitlines() == [
            line
            for name in ("full", "bce")
            for line in [*run_warnings, f"{name} seed=1: FAILED (abort run: non-finite loss at epoch 1)"]
        ]

    def test_stacked_warnings_and_aborts_at_any_worker_count(
        self, monkeypatch, tmp_path, dataset_path, capsys
    ):
        """Every run of full and plain-cse over two seeds stacks, and every
        one diverges: each stack falls back to its runs alone, whose
        warnings and FAILED lines come in run order at 1 and 2 workers."""
        train = {**SMALL_CONFIG["train"], "lr0": 1e308}
        config = tmp_path / "huge-lr.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "train": train}))
        argv = ["--config", str(config), "--data", dataset_path, "--seeds", "1,2"]
        argv += ["--variant", "full", "--variant", "plain-cse"]

        def show(message, category, filename, lineno, file=None, line=None):
            print(f"{category.__name__}: {message}", file=sys.stderr)

        results = []
        for w in (1, 2):
            with warnings.catch_warnings():
                warnings.simplefilter("default")
                monkeypatch.setattr(warnings, "showwarning", show)
                results.append(self._sweep(monkeypatch, capsys, tmp_path / f"w{w}", w, argv))

        assert results[0] == results[1]
        code, out, err = results[1]
        assert code == EXIT_OK
        run_warnings = [
            "RuntimeWarning: invalid value encountered in matmul",
            "RuntimeWarning: invalid value encountered in logaddexp",
        ]
        assert err.splitlines() == [
            line
            for name in ("full", "plain-cse")
            for seed in (1, 2)
            for line in [
                *run_warnings,
                f"{name} seed={seed}: FAILED (abort run: non-finite loss at epoch 1)",
            ]
        ]
        assert _sweep_outputs(tmp_path / "w1") == _sweep_outputs(tmp_path / "w2")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_stack_with_a_diverging_run_falls_back_to_runs_alone(
        self, monkeypatch, tmp_path, dataset_path, capsys
    ):
        """At mu_base 1e308, plain-cse's flat margins overflow its loss and
        full's class-aware margins do not. Their stack falls back, and
        every output is that of a sweep that trains each run alone."""
        from tailprompt import cli

        config = tmp_path / "flat-margin.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "loss": {"mu_base": 1e308}}))
        argv = ["--config", str(config), "--data", dataset_path, "--seeds", "1"]
        argv += ["--variant", "full", "--variant", "plain-cse"]
        stacks = []
        real_train_stack = cli.train_stack

        def recording_train_stack(dataset, train_configs, spare_core=None):
            records = real_train_stack(dataset, train_configs, spare_core)
            stacks.append([record.failed for record in records])
            return records

        monkeypatch.setattr(cli, "train_stack", recording_train_stack)
        stacked = self._sweep(monkeypatch, capsys, tmp_path / "stacked", 1, argv)
        assert stacks == [[True, True]]
        monkeypatch.setattr(cli, "stack_key", lambda train_config: None)
        alone = self._sweep(monkeypatch, capsys, tmp_path / "alone", 1, argv)
        assert stacks == [[True, True]]

        assert stacked == alone
        assert stacked[0] == EXIT_OK
        assert stacked[2] == "plain-cse seed=1: FAILED (abort run: non-finite loss at epoch 1)\n"
        assert stacked[1].startswith("full seed=1: map_total=")
        assert _sweep_outputs(tmp_path / "stacked") == _sweep_outputs(tmp_path / "alone")

    def test_a_stack_that_warns_is_not_kept(self, monkeypatch, dataset_path):
        """A warning inside a stack makes its runs train alone, each with
        its own warnings, even when every run of the stack finished."""
        from tailprompt import cli
        from tailprompt.data_model import load_dataset

        dataset = load_dataset(dataset_path)
        configs = [cli.default_config().train] * 2
        real_train_stack = cli.train_stack
        assert len(cli._stacked_records(dataset, configs)) == 2

        def warning_train_stack(dataset, train_configs, spare_core=None):
            warnings.warn("overflow encountered in a stacked step", RuntimeWarning)
            return real_train_stack(dataset, train_configs, spare_core)

        monkeypatch.setattr(cli, "train_stack", warning_train_stack)
        assert cli._stacked_records(dataset, configs) is None

    def test_numerics_error_in_every_share(self, tmp_path, config_path):
        # a fresh interpreter, so a hung pool ends in a timeout, not a hung suite
        data = _save_saturated_dataset(tmp_path / "saturated.npz")
        code = "import sys, tailprompt.cli as c; c._usable_cores = lambda: 2; sys.exit(c.main())"
        out = str(tmp_path / "s")
        argv = ["sweep", "--config", config_path, "--data", data, "--out", out]
        done = _python(code, *argv, "--variant", "full", "--seeds", "1,2")
        assert done.returncode == EXIT_NUMERICS
        assert done.stderr.startswith("numerical failure: ") and "infinite bias" in done.stderr
        assert done.stdout == ""
        assert not (tmp_path / "s" / "sweep.csv").exists()

    def test_error_in_a_worker_reraises_here(
        self, monkeypatch, tmp_path, config_path, dataset_path, capsys
    ):
        from tailprompt import cli
        from tailprompt.errors import NumericsError

        real_train, real_train_stack = cli.train, cli.train_stack

        def train_or_fail(dataset, train_config, spare_core=None):
            if train_config.seed == 2:
                raise NumericsError(f"seed {train_config.seed} broke")
            return real_train(dataset, train_config, spare_core)

        def train_stack_or_fail(dataset, train_configs, spare_core=None):
            # a stack holding seed 2 meets its error, and its runs train alone
            if any(c.seed == 2 for c in train_configs):
                raise NumericsError("a stacked run broke")
            return real_train_stack(dataset, train_configs, spare_core)

        monkeypatch.setattr(cli, "train", train_or_fail)
        monkeypatch.setattr(cli, "train_stack", train_stack_or_fail)
        argv = ["--config", config_path, "--data", dataset_path, "--variant", "full"]
        results = [
            self._sweep(monkeypatch, capsys, tmp_path / f"w{w}", w, [*argv, "--seeds", "1,2,3"])
            for w in (1, 2)
        ]
        assert results[0] == results[1]
        code, out, err = results[1]
        assert code == EXIT_NUMERICS
        assert out.startswith("full seed=1: map_total=") and out.count("\n") == 1
        assert err == "numerical failure: seed 2 broke\n"
        assert not (tmp_path / "w2" / "sweep.csv").exists()

    def test_a_share_that_cannot_fork_runs_here(
        self, monkeypatch, tmp_path, config_path, dataset_path, capsys
    ):
        argv = ["--config", config_path, "--data", dataset_path, "--seeds", "1"]
        argv += ["--variant", "full", "--variant", "bce"]
        serial = self._sweep(monkeypatch, capsys, tmp_path / "one", 1, argv)
        refused = []

        def no_process(*args):
            refused.append(args)
            raise OSError("no process to be had")

        monkeypatch.setattr(os, "fork", no_process)
        parallel = self._sweep(monkeypatch, capsys, tmp_path / "two", 2, argv)
        assert refused == [()]
        assert serial[0] == EXIT_OK and parallel == serial
        assert _sweep_outputs(tmp_path / "two") == _sweep_outputs(tmp_path / "one")

    def test_other_error_in_a_child_share_reraises_here(
        self, monkeypatch, tmp_path, config_path, dataset_path, capsys
    ):
        # at two cores, seeds 1 and 2 stack in share 0, trained here, and
        # seed 3 trains alone in share 1, in the child. An error that a
        # sweep does not report as an outcome comes back and is raised here.
        from tailprompt import cli

        real_train, real_train_stack = cli.train, cli.train_stack

        def train_or_fail(dataset, train_config, spare_core=None):
            if train_config.seed == 3:
                raise LookupError(f"seed 3 broke in process {os.getpid()}")
            return real_train(dataset, train_config, spare_core)

        def train_stack_or_fail(dataset, train_configs, spare_core=None):
            # a stack holding seed 3 meets an error, and its runs train alone
            if any(c.seed == 3 for c in train_configs):
                raise NumericsError("a stacked run broke")
            return real_train_stack(dataset, train_configs, spare_core)

        monkeypatch.setattr(cli, "train", train_or_fail)
        monkeypatch.setattr(cli, "train_stack", train_stack_or_fail)
        forks = _count_forks(monkeypatch)
        argv = ["--config", config_path, "--data", dataset_path, "--variant", "full"]
        argv += ["--seeds", "1,2,3"]
        raised = []
        for w in (1, 2):
            with pytest.raises(LookupError, match="seed 3 broke in process") as info:
                self._sweep(monkeypatch, capsys, tmp_path / f"w{w}", w, argv)
            raised.append(int(str(info.value).rsplit(" ", 1)[1]))
            assert capsys.readouterr() == ("", "")
        assert len(forks) == 1
        assert raised[0] == os.getpid() != raised[1]
        _assert_no_child()


def test_importing_the_cli_loads_no_process_pool():
    done = _python("import sys, tailprompt.cli; print('concurrent.futures.process' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


@pytest.mark.parametrize(
    "command, seed_config",
    [
        (["synth", "--seed", "-1", "--out", "ds.npz"], None),
        (["train", "--out", "run"], {"synth": {"seed": -2}}),
        (["gradcheck", "--seed", "-5"], None),
    ],
    ids=["synth", "train-config", "gradcheck"],
)
def test_negative_seed_is_a_config_error(tmp_path, monkeypatch, capsys, command, seed_config):
    monkeypatch.chdir(tmp_path)
    if seed_config is not None:
        (tmp_path / "config.json").write_text(json.dumps(seed_config))
        command = [*command, "--config", "config.json"]
    assert main(command) == EXIT_CONFIG
    assert "seed must be >= 0" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == (["config.json"] if seed_config else [])


@pytest.mark.parametrize("constant", ["NaN", "Infinity"])
@pytest.mark.parametrize("command", ["train", "sweep"])
def test_non_finite_config_constant_is_refused(tmp_path, capsys, command, constant):
    """json.loads reads NaN and Infinity, which are not JSON; a config that
    holds one is refused before anything runs, naming the file."""
    config = tmp_path / "config.json"
    config.write_text('{"train": {"tau": %s}}' % constant)
    out = tmp_path / "out"
    argv = [command, "--config", str(config), "--out", str(out)]
    argv += ["--variant", "full"] if command == "sweep" else []
    assert main(argv) == EXIT_CONFIG
    message = f"config file {config} is not valid JSON: {constant} is not a JSON number"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


class TestExistingOutputRefusedFirst:
    """An existing --out is refused before the dataset is made and before any
    gradcheck, training or evaluation runs."""

    @staticmethod
    def _forbid(monkeypatch, *names):
        from tailprompt import cli

        for name in names:

            def fail(*args, _name=name, **kwargs):
                raise AssertionError(f"cli.{_name} ran before the output check")

            monkeypatch.setattr(cli, name, fail)

    def test_synth(self, monkeypatch, tmp_path, config_path, capsys):
        out = tmp_path / "ds.npz"
        out.write_text("{}")
        self._forbid(monkeypatch, "generate")
        assert main(["synth", "--config", config_path, "--out", str(out)]) == EXIT_CONFIG
        assert "already exists" in capsys.readouterr().err

    def test_train(self, monkeypatch, tmp_path, config_path, dataset_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "notes.txt").write_text("keep")
        self._forbid(monkeypatch, "load_dataset", "generate", "train")
        for data in ([], ["--data", dataset_path]):
            code = main(["train", "--config", config_path, "--out", str(out), *data])
            assert code == EXIT_CONFIG
            err = capsys.readouterr().err
            assert f"output directory {out} is not empty (use --force to overwrite)" in err

    @pytest.mark.parametrize("force", [[], ["--force"]])
    def test_train_out_is_a_file(self, monkeypatch, tmp_path, config_path, capsys, force):
        out = tmp_path / "run"
        out.write_text("keep")
        self._forbid(monkeypatch, "load_dataset", "generate", "train")
        assert main(["train", "--config", config_path, "--out", str(out), *force]) == EXIT_CONFIG
        assert f"output directory {out} is not a directory" in capsys.readouterr().err
        assert out.read_text() == "keep"

    def test_eval(self, monkeypatch, tmp_path, config_path, dataset_path, capsys):
        out = tmp_path / "eval.json"
        out.write_text("{}")
        self._forbid(monkeypatch, "load_dataset", "generate", "checkpoint_from_dict")
        code = main(
            [
                "eval",
                "--config",
                config_path,
                "--data",
                dataset_path,
                "--ckpt",
                str(tmp_path / "missing.json"),
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_CONFIG
        assert "already exists" in capsys.readouterr().err

    @pytest.mark.parametrize("existing", ["sweep.csv", "bce/seed-6/metrics.csv"])
    def test_sweep(self, monkeypatch, tmp_path, config_path, capsys, existing):
        out = tmp_path / "sweep"
        (out / existing).parent.mkdir(parents=True, exist_ok=True)
        (out / existing).write_text("keep")
        self._forbid(monkeypatch, "load_dataset", "generate", "train")
        code = main(
            [
                "sweep",
                "--config",
                config_path,
                "--out",
                str(out),
                "--variant",
                "full",
                "--variant",
                "bce",
                "--seeds",
                "5,6",
            ]
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(out / existing.split("/metrics.csv")[0]) in err
        assert "(use --force to overwrite)" in err

    def test_sweep_root_is_a_file(self, monkeypatch, tmp_path, config_path, capsys):
        out = tmp_path / "sweep"
        out.write_text("keep")
        self._forbid(monkeypatch, "load_dataset", "generate", "train")
        code = main(["sweep", "--config", config_path, "--out", str(out), "--variant", "full"])
        assert code == EXIT_CONFIG
        assert f"output directory {out} is not a directory" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, forbidden",
        [
            (["synth", "--out", "ds", "--force"], ["generate"]),
            (
                ["eval", "--ckpt", "p.json", "--out", "ds", "--force"],
                ["load_dataset", "generate", "checkpoint_from_dict"],
            ),
        ],
        ids=["synth", "eval"],
    )
    def test_file_output_is_a_directory(
        self, monkeypatch, tmp_path, config_path, capsys, command, forbidden
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ds").mkdir()
        self._forbid(monkeypatch, *forbidden)
        assert main([*command, "--config", config_path]) == EXIT_CONFIG
        assert "error: ds is a directory" in capsys.readouterr().err
        assert list((tmp_path / "ds").iterdir()) == []

    @pytest.mark.parametrize(
        "command, forbidden",
        [
            (["synth", "--out", "afile/sub/ds.npz"], ["generate"]),
            (
                ["eval", "--ckpt", "p.json", "--out", "afile/e.json"],
                ["load_dataset", "generate", "checkpoint_from_dict"],
            ),
            (["train", "--out", "afile/run"], ["load_dataset", "generate", "train"]),
            (
                ["sweep", "--out", "afile/sw", "--variant", "full"],
                ["load_dataset", "generate", "train"],
            ),
        ],
        ids=["synth", "eval", "train", "sweep"],
    )
    def test_output_under_a_file(
        self, monkeypatch, tmp_path, config_path, capsys, command, forbidden
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("keep")
        self._forbid(monkeypatch, *forbidden)
        assert main([*command, "--config", config_path]) == EXIT_CONFIG
        assert "(afile is a file)" in capsys.readouterr().err
        assert (tmp_path / "afile").read_text() == "keep"

    def test_missing_parent_directory_is_created(self, tmp_path, config_path, dataset_path):
        data = tmp_path / "new" / "deeper" / "ds.npz"
        assert main(["synth", "--config", config_path, "--out", str(data)]) == EXIT_OK
        assert data.read_bytes() == (tmp_path / "data.npz").read_bytes()
        run = tmp_path / "run"
        args = ["--config", config_path, "--data", str(data)]
        assert main(["train", *args, "--out", str(run), "--skip-gradcheck"]) == EXIT_OK
        summary = tmp_path / "other" / "e.json"
        ckpt = str(run / "prompts.ckpt.json")
        assert main(["eval", *args, "--ckpt", ckpt, "--out", str(summary)]) == EXIT_OK
        assert tuple(json.loads(summary.read_text())) == MAP_KEYS


class TestTopLevel:
    def test_no_subcommand_prints_help(self, capsys):
        assert main([]) == EXIT_CONFIG
        assert "synth" in capsys.readouterr().out

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"foo": 1}))
        code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d.json")])
        assert code == EXIT_CONFIG
        assert "'foo'" in capsys.readouterr().err

    def test_usage_error_maps_to_config_exit(self, tmp_path, capsys):
        # argparse usage problems must not collide with the numerics code
        assert main(["train", "--out"]) == EXIT_CONFIG

    def test_generates_dataset_when_no_data_flag(self, tmp_path, config_path, capsys):
        out = tmp_path / "run"
        code = main(
            ["train", "--config", config_path, "--out", str(out), "--skip-gradcheck"]
        )
        assert code == EXIT_OK
        assert out.exists()


def test_each_subcommand_takes_exactly_these_flags():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        name: sorted(flag for action in p._actions for flag in action.option_strings)
        for name, p in sub.choices.items()
    }
    common = ["--config", "--force", "--out", "-h", "--help"]
    assert flags == {
        "synth": sorted([*common, "--seed", "--classes", "--samples", "--dim"]),
        "train": sorted([*common, "--seed", "--data", "--skip-gradcheck", "--ablation", "--loss"]),
        "eval": sorted([*common, "--data", "--ckpt"]),
        "gradcheck": sorted(["-h", "--help", "--cases", "--seed"]),
        "sweep": sorted([*common, "--data", "--variant", "--seeds"]),
    }


@pytest.mark.parametrize(
    "command, message",
    [
        (["gradcheck", "--tolerance", "1"], "unrecognized arguments: --tolerance 1"),
        (["gradcheck", "--step", "1e-3"], "unrecognized arguments: --step 1e-3"),
        (["gradcheck", "--kink-guard", "0"], "unrecognized arguments: --kink-guard 0"),
        (["eval", "--ckpt", "p.json", "--seed", "3"], "unrecognized arguments: --seed 3"),
        (
            ["sweep", "--out", "s", "--variant", "full", "--seed", "3"],
            "unrecognized arguments: --seed 3",
        ),
        (["train", "--out", "run", "--skip"], "unrecognized arguments: --skip"),
        (["sweep", "--out", "s", "--variant", "full", "--seeds", ""], "--seeds must name at least"),
    ],
    ids=["tolerance", "step", "kink-guard", "eval-seed", "sweep-seed", "abbrev", "empty-seeds"],
)
def test_removed_spelling_is_refused(tmp_path, monkeypatch, capsys, command, message):
    monkeypatch.chdir(tmp_path)
    forbidden = ("generate", "load_dataset", "train", "run_sweep")
    TestExistingOutputRefusedFirst._forbid(monkeypatch, *forbidden)
    assert main(command) == EXIT_CONFIG
    assert f"error: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"train": {"epochs": 2.5}}, "epochs"),
        ({"synth": {"seed": "7"}}, "seed"),
        ({"synth": {"num_classes": 3.0, "num_samples": 60}}, "num_classes"),
        ({"train": {"batch_size": True}}, "batch_size"),
        ({"loss": {"use_reweighting": "no"}}, "use_reweighting"),
        # an int stands for a float, and is echoed as written
        ({**SMALL_CONFIG, "train": {**SMALL_CONFIG["train"], "epochs": 1, "lr0": 2}}, None),
    ],
    ids=["float-epochs", "string-seed", "float-classes", "bool-batch-size", "str-bool", "int-lr0"],
)
def test_config_value_type(tmp_path, capsys, doc, key):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "run"
    code = main(["train", "--config", str(config), "--skip-gradcheck", "--out", str(out)])
    if key is None:
        assert code == EXIT_OK
        assert '"lr0": 2,' in (out / "config.json").read_text()
    else:
        assert code == EXIT_CONFIG
        assert f"error: key {key!r} in section" in capsys.readouterr().err
        assert not out.exists()
