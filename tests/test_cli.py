import argparse
import gc
import json
import os
import re
import subprocess
import sys
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import slrl.cli
from slrl.cli import build_parser, main
from slrl.data import MultiViewDataset, load_dataset, normalize, save_dataset, synth_multiview
from slrl.errors import DegenerateClusterError, DivergenceError, NumericError, ShapeError
from slrl.train import TrainConfig, train

SRC = str(Path(slrl.cli.__file__).resolve().parents[1])


def run_cli(*args):
    return main(list(args))


def test_train_synth_smoke(tmp_path):
    out = tmp_path / "run"
    code = run_cli(
        "train", "--synth", "3x10", "--seed", "7",
        "--latent-dim", "8", "--epochs", "10", "--pretrain-epochs", "5",
        "--k", "3", "--heads", "2", "--out", str(out),
    )
    assert code == 0
    for name in ("run_manifest.json", "loss_log.csv", "metrics.txt", "predictions.txt",
                 "h_pca.csv", "ht_pca.csv"):
        assert (out / name).exists(), name
    assert (out / "checkpoint" / "index.txt").exists()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["latent_dim"] == 8
    assert "completed_at" in manifest


def test_train_rerun_reproduces_metrics(tmp_path):
    args = (
        "train", "--synth", "3x10", "--seed", "3",
        "--latent-dim", "8", "--epochs", "8", "--pretrain-epochs", "4",
        "--k", "3", "--heads", "2",
    )
    assert run_cli(*args, "--out", str(tmp_path / "a")) == 0
    assert run_cli(*args, "--out", str(tmp_path / "b")) == 0
    assert (tmp_path / "a" / "metrics.txt").read_text() == (tmp_path / "b" / "metrics.txt").read_text()
    assert (tmp_path / "a" / "loss_log.csv").read_text() == (tmp_path / "b" / "loss_log.csv").read_text()


def test_train_requires_exactly_one_source(tmp_path):
    assert run_cli("train", "--out", str(tmp_path / "x")) == 2
    assert (
        run_cli("train", "--data", "d", "--synth", "3x5", "--out", str(tmp_path / "y")) == 2
    )


def test_synth_then_train_from_directory(tmp_path):
    data_dir = tmp_path / "data"
    assert run_cli("synth", "--synth", "3x8", "--seed", "1",
                   "--out", str(data_dir)) == 0
    ds = load_dataset(data_dir)
    assert ds.n_samples == 24 and ds.labels is not None
    out = tmp_path / "run"
    code = run_cli(
        "train", "--data", str(data_dir), "--latent-dim", "8", "--epochs", "5",
        "--pretrain-epochs", "3", "--k", "3", "--heads", "2", "--out", str(out),
    )
    assert code == 0


def test_eval_ground_truth_is_perfect(tmp_path):
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n0\n1\n1\n2\n2\n")
    code = run_cli("eval", "--pred", str(labels), "--truth", str(labels))
    assert code == 0


def test_eval_reports_written(tmp_path, capsys):
    pred = tmp_path / "pred.txt"
    truth = tmp_path / "truth.txt"
    pred.write_text("0\n0\n1\n1\n")
    truth.write_text("0\n1\n1\n1\n")
    assert run_cli("eval", "--pred", str(pred), "--truth", str(truth),
                   "--out", str(tmp_path / "m")) == 0
    text = (tmp_path / "m" / "metrics.txt").read_text()
    assert "acc 0.750000" in text
    printed = capsys.readouterr().out
    assert "acc 0.750000" in printed


def test_eval_mismatched_lengths_usage_error(tmp_path):
    pred = tmp_path / "pred.txt"
    truth = tmp_path / "truth.txt"
    pred.write_text("0\n1\n")
    truth.write_text("0\n1\n1\n")
    assert run_cli("eval", "--pred", str(pred), "--truth", str(truth)) == 2


def test_eval_non_integer_label_usage_error(tmp_path, capsys):
    pred = tmp_path / "pred.txt"
    truth = tmp_path / "truth.txt"
    pred.write_text("0\nx\n")
    truth.write_text("0\n1\n")
    assert run_cli("eval", "--pred", str(pred), "--truth", str(truth)) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_ablate_missing_dataset_usage_error(tmp_path):
    assert run_cli("ablate", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")) == 2


def test_ablate_emits_three_rows(tmp_path):
    out = tmp_path / "ab"
    code = run_cli(
        "ablate", "--synth", "3x8", "--seed", "2",
        "--latent-dim", "8", "--epochs", "8", "--pretrain-epochs", "4",
        "--k", "3", "--heads", "2", "--out", str(out),
    )
    assert code == 0
    lines = (out / "ablation.csv").read_text().strip().splitlines()
    assert lines[0] == "mode,acc_mean,acc_std"
    assert len(lines) == 4
    assert lines[1].startswith("(a) X-H,")
    assert lines[2].startswith("(b) X-H-Ht,")
    assert lines[3].startswith("(c) X-H-Ht-P,")


def test_sweep_single_cell_matches_train(tmp_path):
    common = (
        "--synth", "3x10", "--seed", "5", "--latent-dim", "8",
        "--epochs", "8", "--pretrain-epochs", "4", "--k", "3", "--heads", "2",
    )
    assert run_cli("sweep", *common, "--gamma-grid", "10", "--k-grid", "3",
                   "--out", str(tmp_path / "sw")) == 0
    assert run_cli("train", *common, "--gamma", "10", "--out", str(tmp_path / "tr")) == 0
    sweep_lines = (tmp_path / "sw" / "sweep.csv").read_text().strip().splitlines()
    assert sweep_lines[0].startswith("gamma,k,acc_mean")
    acc_sweep = float(sweep_lines[1].split(",")[2])
    metrics = dict(
        line.split() for line in (tmp_path / "tr" / "metrics.txt").read_text().strip().splitlines()
    )
    assert acc_sweep == pytest.approx(float(metrics["acc"]), abs=1e-6)


def test_sweep_empty_grid_usage_error(tmp_path):
    assert run_cli("sweep", "--synth", "3x8", "--gamma-grid", "", "--k-grid", "3",
                   "--out", str(tmp_path / "s")) == 2


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("train", "--view-dims", "8,x"),
        ("train", "--view-dims", "4,,4"),
        ("ablate", "--view-dims", "8,x"),
        ("gradcheck", "--view-dims", "4,,4"),
        ("synth", "--view-dims", "8,x"),
        ("sweep", "--view-dims", "4,,4"),
        ("sweep", "--gamma-grid", "1,zz"),
        ("sweep", "--k-grid", "3,y"),
        # an empty list is an error, not the default dims
        ("train", "--view-dims", ""),
        ("gradcheck", "--view-dims", ""),
        ("synth", "--view-dims", ""),
    ],
)
def test_bad_comma_list_names_the_flag(tmp_path, capsys, command, flag, value):
    out = tmp_path / "o"
    out_flag = [] if command == "gradcheck" else ["--out", str(out)]
    assert run_cli(command, "--synth", "3x8", flag, value, *out_flag) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad {flag} {value!r}"), err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "ablate", "sweep"])
@pytest.mark.parametrize("repeats", ["0", "-1"])
def test_repeats_below_one_usage_error(tmp_path, capsys, command, repeats):
    out = tmp_path / "o"
    assert run_cli(command, "--synth", "3x8", "--repeats", repeats, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: --repeats must be >= 1, got {repeats}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("train", ["--k", "0"], "k must be >= 1"),
        ("train", ["--k", "24"], "k=24 too large for 24 samples"),
        ("train", ["--clusters", "50"], "cluster count 50 outside [2, 24]"),
        ("ablate", ["--clusters", "1"], "cluster count 1 outside [2, 24]"),
        ("sweep", ["--k-grid", "0", "--gamma-grid", "10"], "k must be >= 1"),
        # the first cell fits; the check still runs before any cell trains
        ("sweep", ["--k-grid", "3,30", "--gamma-grid", "10"], "k=30 too large for 24 samples"),
        ("train", ["--lr", "nan"], "learning_rate must be finite and positive"),
        ("train", ["--lr", "inf"], "learning_rate must be finite and positive"),
        ("train", ["--gamma", "nan"], "gamma must be finite and >= 0"),
        ("train", ["--gamma", "inf"], "gamma must be finite and >= 0"),
        ("train", ["--heads", "0"], "need heads >= 1 and gat_layers >= 0"),
        ("train", ["--latent-dim", "1"], "latent_dim must be >= 2"),
        ("train", ["--noise", "nan"], "noise must be finite and >= 0"),
        ("train", ["--noise", "inf"], "noise must be finite and >= 0"),
    ],
)
def test_setting_that_does_not_fit_writes_nothing(tmp_path, capsys, command, flags, message):
    out = tmp_path / "o"
    assert run_cli(command, "--synth", "3x8", *flags, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, flags, out", [
    ("train", ["--k", "3"], "file"),  # the run directory is a file
    ("synth", [], "file/x"),  # a parent of the dataset directory is a file
])
def test_out_that_cannot_be_made_is_one_error_line(tmp_path, capsys, command, flags, out):
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    assert run_cli(command, "--synth", "3x10", *flags, "--out", str(tmp_path / out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == [blocker]
    assert blocker.read_text() == "kept\n"


def test_empty_view_file_is_one_error_line(tmp_path):
    # in a fresh process, so that a numpy warning would reach stderr
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    (data_dir / "manifest.txt").write_text("view a a.txt continuous\n")
    (data_dir / "a.txt").write_text("")
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "slrl.cli", "train", "--data", str(data_dir), "--out", str(out)],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: {data_dir / 'a.txt'}: no values\n"
    assert not out.exists()


def test_sweep_without_labels_usage_error(tmp_path, capsys):
    data_dir = tmp_path / "data"
    save_dataset(replace(synth_multiview(3, 8, [4, 4], seed=0), labels=None), data_dir)
    out = tmp_path / "o"
    code = run_cli("sweep", "--data", str(data_dir), "--clusters", "3",
                   "--gamma-grid", "10", "--k-grid", "3", "--out", str(out))
    assert code == 2
    assert "sweep needs labels" in capsys.readouterr().err
    assert not out.exists()


# Prints [scipy modules after the CLI import, exit code of a small in-process
# training, scipy modules after it, whether a forward pass over a 300-node
# graph loaded scipy.sparse] as the last line.
_SCIPY_PROBE = """
import json, sys
import numpy as np
import slrl.cli
from slrl import gat

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

after_import = scipy_modules()
code = slrl.cli.main(["train", "--synth", "3x10", "--out", {out!r}])
after_train = scipy_modules()
n = 300
stack = gat.init_gat_stack(1, 2, 2, heads=1, seed=0)
gat.stack_forward(stack, np.ones((n, 2)), (np.arange(n + 1), np.arange(n)))
print(json.dumps([after_import, code, after_train, "scipy.sparse" in sys.modules]))
"""


def test_cli_import_loads_no_scipy_optimize(tmp_path):
    # ACC's assignment is in-house and attention runs on numpy products, so
    # neither the CLI import, nor a small training, nor attention over a
    # larger graph loads any scipy module.
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE.format(out=str(tmp_path / "o"))],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], 0, [], False]


def test_gradcheck_exit_code_zero():
    assert run_cli("gradcheck", "--seed", "0") == 0


def test_gradcheck_threshold_controls_exit():
    # an absurdly tight tolerance must flip the exit code
    assert run_cli("gradcheck", "--seed", "0", "--tol", "1e-16") == 1


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf", "-inf"])
def test_gradcheck_bad_tol_is_one_error_line(capsys, monkeypatch, tol):
    # rejected before any gradient is computed, not reported as a failed check
    def no_gradients(*args):
        raise AssertionError("gradcheck ran")

    monkeypatch.setattr(slrl.cli, "run_gradcheck", no_gradients)
    assert run_cli("gradcheck", f"--tol={tol}") == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --tol must be finite and positive, got {float(tol):g}\n"
    assert captured.out == ""


def test_view_dims_alone_set_the_view_count(tmp_path, capsys):
    assert run_cli("synth", "--synth", "3x5", "--view-dims", "4,5,6",
                   "--out", str(tmp_path / "d")) == 0
    assert load_dataset(tmp_path / "d").dims == [4, 5, 6]
    out = tmp_path / "run"
    assert run_cli("train", "--synth", "3x6", "--view-dims", "4,4,4", "--latent-dim", "4",
                   "--k", "2", "--heads", "1", "--pretrain-epochs", "1", "--epochs", "1",
                   "--out", str(out)) == 0
    dataset = json.loads((out / "run_manifest.json").read_text())["dataset"]
    assert (dataset["views"], dataset["view_dims"]) == (3, "4,4,4")


@pytest.mark.parametrize("view_dims", ["0,4", "1,4"])
def test_zero_views_usage_error(tmp_path, capsys, view_dims):
    out = tmp_path / "o"
    assert run_cli("train", "--synth", "3x5", "--view-dims", view_dims, "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: each view needs dimension >= 2\n"
    assert not out.exists()


def test_synth_that_cannot_separate_its_centers_writes_nothing(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli("synth", "--synth", "50x2", "--view-dims", "2,2", "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        "error: no draw of 50 cluster centers in 2 generator dimensions kept them 0.5 apart;"
        " use fewer clusters or larger view dims\n"
    )
    assert not out.exists()


def _subparser(command: str) -> argparse.ArgumentParser:
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return subparsers.choices[command]


CONFIG_FIELDS = {f.name for f in fields(TrainConfig)}
MODEL_FLAGS = {
    "--latent-dim": "latent_dim", "--k": "k", "--gamma": "gamma", "--heads": "heads",
    "--layers": "gat_layers", "--clusters": "clusters", "--seed": "seed",
}


@pytest.mark.parametrize("command", ["train", "ablate", "sweep"])
def test_every_config_field_has_one_run_flag(command):
    dests = [action.dest for action in _subparser(command)._actions]
    for name in CONFIG_FIELDS - {"early_stop_min_epochs"}:
        assert dests.count(name) == 1, name
    assert "early_stop_min_epochs" not in dests


def test_gradcheck_takes_exactly_the_model_flags():
    config_flags = {
        action.option_strings[0]: action.dest
        for action in _subparser("gradcheck")._actions
        if action.dest in CONFIG_FIELDS
    }
    assert config_flags == MODEL_FLAGS


MODEL_ARGV = [
    "--latent-dim", "7", "--k", "4", "--gamma", "2.5", "--heads", "3", "--layers", "2",
    "--clusters", "5", "--seed", "11",
]
RUN_ARGV = [
    "--lr", "0.03", "--epochs", "17", "--pretrain-epochs", "6", "--repeats", "2", "--out", "o",
]
MODEL_CONFIG = TrainConfig(
    latent_dim=7, k=4, gamma=2.5, heads=3, gat_layers=2, clusters=5, seed=11,
)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["train", *MODEL_ARGV, *RUN_ARGV], None),
        (["ablate", *RUN_ARGV, *MODEL_ARGV], None),
        (["sweep", *MODEL_ARGV, *RUN_ARGV, "--gamma-grid", "1", "--k-grid", "3"], None),
        (["gradcheck", *MODEL_ARGV, "--tol", "1e-3"], MODEL_CONFIG),
        (["gradcheck"], TrainConfig(latent_dim=5, k=3, heads=2)),
        (["train"], TrainConfig()),
    ],
)
def test_flags_parse_to_the_config(argv, expected):
    if expected is None:
        expected = replace(MODEL_CONFIG, learning_rate=0.03, epochs=17, pretrain_epochs=6)
    assert slrl.cli._config_from_args(build_parser().parse_args(argv)) == expected


def _projection_reference(proj, labels) -> str:
    # the row-by-row writer that _write_projection replaced
    lines = ["x,y" + (",label" if labels is not None else "")]
    for i in range(proj.shape[0]):
        row = f"{proj[i, 0]:.9g},{proj[i, 1]:.9g}"
        if labels is not None:
            row += f",{int(labels[i])}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def test_projection_bytes_match_the_row_writer(tmp_path):
    rng = np.random.default_rng(0)
    for trial in range(40):
        n = int(rng.integers(3, 30))
        x = rng.normal(size=(n, 4)) * 10.0 ** rng.integers(-12, 12)
        labels = None if trial % 2 else rng.integers(-3, 1000, size=n)
        path = tmp_path / f"p{trial}.csv"
        slrl.cli._write_projection(path, x, labels)
        assert path.read_text() == _projection_reference(slrl.cli._pca_2d(x), labels)


def test_bad_synth_spec_usage_error(tmp_path):
    assert run_cli("train", "--synth", "banana", "--out", str(tmp_path / "x")) == 2


@pytest.mark.parametrize("command", ["train", "gradcheck"])
def test_empty_synth_spec_is_an_error_not_the_default(tmp_path, capsys, command):
    out = tmp_path / "o"
    out_flag = [] if command == "gradcheck" else ["--out", str(out)]
    assert run_cli(command, "--synth", "", *out_flag) == 2
    assert capsys.readouterr().err.startswith("error: bad --synth spec ''")
    assert not out.exists()


def test_train_dumps_graph_and_distributions(tmp_path):
    out = tmp_path / "run"
    run_cli(
        "train", "--synth", "3x6", "--seed", "1",
        "--latent-dim", "8", "--epochs", "4", "--pretrain-epochs", "2",
        "--k", "3", "--heads", "2", "--out", str(out),
    )
    q = np.loadtxt(out / "q.csv", delimiter=",")
    p = np.loadtxt(out / "p.csv", delimiter=",")
    assert q.shape == (18, 3) and p.shape == (18, 3)
    assert np.max(np.abs(q.sum(axis=1) - 1.0)) < 1e-6
    for line in (out / "graph.txt").read_text().strip().splitlines():
        i, j, _ = line.split()
        assert int(i) < int(j)


def test_projection_csv_shape(tmp_path):
    out = tmp_path / "run"
    run_cli(
        "train", "--synth", "3x6", "--seed", "9",
        "--latent-dim", "8", "--epochs", "4", "--pretrain-epochs", "2",
        "--k", "3", "--heads", "2", "--out", str(out),
    )
    lines = (out / "h_pca.csv").read_text().strip().splitlines()
    assert lines[0] == "x,y,label"
    assert len(lines) == 1 + 18


def test_diverging_run_is_a_clean_error(tmp_path, capsys, recwarn):
    # a step size this large blows H up to non-finite values
    out = str(tmp_path / "x")
    code = run_cli("train", "--synth", "3x20", "--lr", "50", "--k", "3", "--out", out)
    assert code == 2
    # the overflowed gradient is caught before its step is applied
    last = capsys.readouterr().err.splitlines()[-1]
    pattern = r"error: (pretrain|joint) epoch \d+: non-finite gradient in group '\w+' \(.+\)"
    assert re.fullmatch(pattern, last)
    # and numpy prints no overflow or invalid-value warnings on the way
    assert [str(w.message) for w in recwarn if issubclass(w.category, RuntimeWarning)] == []


def test_overflowing_run_is_one_error_line_naming_the_epoch(tmp_path, capsys, recwarn):
    out = str(tmp_path / "x")
    assert run_cli("train", "--synth", "3x20", "--k", "3", "--gamma", "1e300", "--out", out) == 2
    err = capsys.readouterr().err
    message = "h is too large: its squared distances overflow"
    assert re.fullmatch(rf"error: joint epoch \d+: {message}\n", err)
    assert [str(w.message) for w in recwarn if issubclass(w.category, RuntimeWarning)] == []


def test_run_that_fails_in_training_records_its_error(tmp_path, capsys):
    out = tmp_path / "x"
    argv = ["--synth", "3x4", "--view-dims", "3,3", "--epochs", "1", "--pretrain-epochs", "0"]
    assert run_cli("train", *argv, "--gamma", "1e300", "--out", str(out)) == 2
    message = "final state after 1 joint epochs: h is too large: its squared distances overflow"
    assert capsys.readouterr().err == f"error: {message}\n"
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["status"] == "error" and manifest["error"] == message
    assert "completed_at" not in manifest
    assert run_cli("train", *argv, "--out", str(tmp_path / "y")) == 0
    manifest = json.loads((tmp_path / "y" / "run_manifest.json").read_text())
    assert manifest["status"] == "ok" and "completed_at" in manifest and "error" not in manifest


def test_each_repeat_report_is_released(tmp_path, monkeypatch):
    # only the final metrics of a repeat outlive it: repeat 0's report and
    # arrays are gone by the time repeat 2 trains
    train, refs = slrl.cli.run_train, []

    def recording_train(ds, cfg):
        if len(refs) == 2:
            gc.collect()
            assert [ref() for ref in refs[0]] == [None, None]
        report = train(ds, cfg)
        refs.append((weakref.ref(report), weakref.ref(report.h)))
        return report

    monkeypatch.setattr(slrl.cli, "run_train", recording_train)
    argv = ["--synth", "3x5", "--epochs", "2", "--pretrain-epochs", "1", "--k", "3"]
    assert run_cli("train", *argv, "--repeats", "3", "--out", str(tmp_path / "x")) == 0
    assert len(refs) == 3


@pytest.mark.parametrize(
    "exc", [NumericError, DegenerateClusterError, DivergenceError, ShapeError]
)
def test_training_failures_map_to_exit_2(tmp_path, capsys, monkeypatch, exc):
    def fail(ds, cfg):
        raise exc("training failed")

    monkeypatch.setattr(slrl.cli, "run_train", fail)
    code = run_cli("train", "--synth", "3x5", "--out", str(tmp_path / "x"))
    assert code == 2
    assert capsys.readouterr().err == "error: training failed\n"
    manifest = json.loads((tmp_path / "x" / "run_manifest.json").read_text())
    assert manifest["status"] == "error" and manifest["error"] == "training failed"


@pytest.fixture
def data_dir(tmp_path):
    path = tmp_path / "data"
    save_dataset(synth_multiview(3, 5, [4, 4], seed=0), path)
    return path


@pytest.mark.parametrize(
    "argv, flag, source",
    [
        (["train", "--data", "DATA", "--view-dims", "3,3", "--noise", "5"], "--view-dims", "--synth"),
        (["train", "--data", "DATA", "--noise", "5"], "--noise", "--synth"),
        (["ablate", "--data", "DATA", "--view-dims", "4,4"], "--view-dims", "--synth"),
        (["sweep", "--data", "DATA", "--noise", "0.05"], "--noise", "--synth"),
        (["gradcheck", "--data", "DATA", "--view-dims", "4,4"], "--view-dims", "--synth"),
        (["train", "--synth", "3x6", "--no-normalize"], "--no-normalize", "--data"),
        (["gradcheck", "--no-normalize"], "--no-normalize", "--data"),
    ],
)
def test_data_flag_of_the_other_source_is_one_error_line(
    tmp_path, capsys, data_dir, argv, flag, source
):
    out = tmp_path / "o"
    argv = [str(data_dir) if a == "DATA" else a for a in argv]
    out_flag = [] if argv[0] == "gradcheck" else ["--out", str(out)]
    assert run_cli(*argv, *out_flag) == 2
    assert capsys.readouterr().err == f"error: {flag} applies only to {source}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--synth", "3x5"],
        ["train", "--data", "DATA"],
        ["ablate", "--data", "DATA"],
        ["synth"],
        ["gradcheck"],
    ],
)
def test_negative_seed_is_one_error_line(tmp_path, capsys, data_dir, argv):
    out = tmp_path / "o"
    argv = [str(data_dir) if a == "DATA" else a for a in argv]
    out_flag = [] if argv[0] == "gradcheck" else ["--out", str(out)]
    assert run_cli(*argv, "--seed", "-1", *out_flag) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


class _Checked(Exception):
    """Carries the dataset gradcheck was handed."""


def test_gradcheck_instance_takes_the_synthetic_flags(monkeypatch):
    def capture(ds, cfg):
        raise _Checked(ds)

    monkeypatch.setattr(slrl.cli, "run_gradcheck", capture)
    for argv, expected in [
        (["--seed", "2"], synth_multiview(3, 4, [4, 3], noise=0.1, seed=2)),
        (["--view-dims", "5,5,5", "--noise", "0.2"], synth_multiview(3, 4, [5, 5, 5], noise=0.2)),
        (["--synth", "2x5"], synth_multiview(2, 5, [4, 3], noise=0.1)),
    ]:
        with pytest.raises(_Checked) as checked:
            run_cli("gradcheck", *argv)
        ds = checked.value.args[0]
        assert ds.dims == expected.dims, argv
        for got, want in zip(ds.views, expected.views):
            assert np.array_equal(got, want), argv


@pytest.mark.parametrize("normalized", [True, False])
def test_no_normalize_trains_on_the_views_as_read(tmp_path, normalized):
    ds = synth_multiview(3, 6, [4, 4], seed=0)
    raw = tmp_path / "data"
    save_dataset(MultiViewDataset(views=[5.0 * v - 2.0 for v in ds.views], labels=ds.labels), raw)
    ds = load_dataset(raw)
    assert min(v.min() for v in ds.views) < 0.0 < 1.0 < max(v.max() for v in ds.views)
    cfg = TrainConfig(latent_dim=4, k=2, heads=1, pretrain_epochs=2, epochs=3, seed=0)
    flags = ["--latent-dim", "4", "--k", "2", "--heads", "1", "--pretrain-epochs", "2",
             "--epochs", "3", "--seed", "0"]
    flags += [] if normalized else ["--no-normalize"]
    out = tmp_path / "run"
    assert run_cli("train", "--data", str(raw), *flags, "--out", str(out)) == 0
    want, other = train(normalize(ds), cfg), train(ds, cfg)
    if not normalized:
        want, other = other, want
    assert not np.array_equal(want.q, other.q)  # the two inputs train apart
    assert np.array_equal(np.loadtxt(out / "predictions.txt", dtype=np.int64), want.labels_pred)
    np.savetxt(tmp_path / "q.csv", want.q, fmt="%.9g", delimiter=",")
    assert (out / "q.csv").read_text() == (tmp_path / "q.csv").read_text()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["dataset"]["normalized"] is normalized


@pytest.mark.parametrize("noise, recorded", [([], 0.05), (["--noise", "0.2"], 0.2)])
def test_manifest_records_the_noise_in_force(tmp_path, noise, recorded):
    out = tmp_path / "run"
    assert run_cli("train", "--synth", "3x6", *noise, "--latent-dim", "4", "--k", "2",
                   "--heads", "1", "--pretrain-epochs", "0", "--epochs", "0",
                   "--out", str(out)) == 0
    assert json.loads((out / "run_manifest.json").read_text())["dataset"]["noise"] == recorded


def test_eval_several_labels_on_a_line_is_one_error_line(tmp_path, capsys):
    pred = tmp_path / "pred.txt"
    truth = tmp_path / "truth.txt"
    pred.write_text("0 1\n1 0\n")
    truth.write_text("0\n1\n1\n0\n")
    out = tmp_path / "m"
    assert run_cli("eval", "--pred", str(pred), "--truth", str(truth), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {pred}: 2 values on a line, expected one label\n"
    assert not out.exists()


# Prints the environment variables that `import slrl` added, removed or changed.
_ENV_PROBE = """
import json, os
before = dict(os.environ)
import slrl
print(json.dumps(sorted(set(os.environ.items()) ^ set(before.items()))))
"""


def test_import_sets_no_environment_variable():
    # a thread cap is the BLAS's own variable; the package sets none
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env.update(SLRL_THREADS="1", PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _ENV_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize("argv, message", [
    (["train", "--k", "x"], "error: slrl train: argument --k: invalid int value: 'x'"),
    (["train", "--bogus"], "error: slrl: unrecognized arguments: --bogus"),
    ([], "error: slrl: the following arguments are required: command"),
], ids=["bad value", "unknown flag", "no subcommand"])
def test_usage_error_is_one_error_line(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    argv = argv + ["--out", str(out)] if argv else argv
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "ablate", "sweep"])
@pytest.mark.parametrize("flag, value", [("--kernel", "dot"), ("--sigma", "0.5")])
def test_kernel_and_sigma_flags_are_gone(tmp_path, capsys, command, flag, value):
    # every graph has Gaussian weights at the median-distance sigma
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--synth", "3x8", flag, value, "--out", str(out))
    assert exc.value.code == 2
    message = f"error: slrl: unrecognized arguments: {flag} {value}\n"
    assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["train", "--help"]])
def test_help_is_the_usage_block(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: slrl") and captured.err == ""
