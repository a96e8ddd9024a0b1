"""Property tests for the CLI's data flags and its model and run flags: any argv
over them exits 0, or exits 2 with exactly one ``error:`` line and no output
directory, unless the run failed in training."""

import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slrl.cli import main
from slrl.data import save_dataset, synth_multiview

# each argv runs in-process, on a tiny instance with at most one epoch per phase
FUZZ = settings(derandomize=True, max_examples=200, deadline=None)


def values(good, bad):
    """Half the draws from the values that fit, half from those that do not."""
    return st.one_of(st.sampled_from(good), st.sampled_from(bad))


DATA_DIRS = st.sampled_from(["data", "missing"])
SPEC = values(["3x4", "2x5", "4x3"], ["1x6", "3x1", "0x4", "3x", "banana", ""])
SYNTH_FLAGS = {
    "--view-dims": values(["4,3", "5", "2,2,2"], ["1,4", "0,4", "4,,4", "x", ""]),
    "--noise": values(["0", "0.1", "5"], ["-1", "nan", "inf"]),
    "--seed": values(["0", "1", "3"], ["-1", "-2"]),
}
# exactly one source, most of the time
SOURCES = st.sampled_from([["--data"], ["--synth"]] * 2 + [["--data", "--synth"], []])
COMMANDS = ["train", "ablate", "sweep", "gradcheck", "synth"]
# a small grid, so that a sweep trains two cells
SWEEP_GRID = ["--gamma-grid", "1", "--k-grid", "2,3"]
MODEL_FLAGS = ["--latent-dim", "2", "--k", "2", "--heads", "1"]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(COMMANDS))
    argv = [command, *(SWEEP_GRID if command == "sweep" else [])]
    if command == "synth":
        sources, flags = ["--synth"], SYNTH_FLAGS
    else:
        sources, flags = draw(SOURCES), {**SYNTH_FLAGS, "--no-normalize": st.just(None)}
    for source in sources:
        argv += [source, draw(SPEC if source == "--synth" else DATA_DIRS)]
    for flag, value in draw(st.fixed_dictionaries({}, optional=flags)).items():
        argv += [flag] if value is None else [flag, value]
    if command == "synth":
        return argv
    argv += MODEL_FLAGS
    if command != "gradcheck":
        epochs = st.sampled_from(["0", "1"])
        argv += ["--epochs", draw(epochs), "--pretrain-epochs", draw(epochs)]
    return argv


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_fuzz")
    save_dataset(synth_multiview(3, 4, [3, 3], seed=0), path / "data")
    return path


def run(argv) -> tuple:
    """Exit status and stderr of ``argv`` run in-process; a usage error exits
    through ``SystemExit``. Exit 0 writes nothing to stderr, and exit 2 one
    ``error:`` line."""
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    err = stderr.getvalue()
    if code == 0:
        assert err == "", (argv, err)
    else:
        assert code == 2, (argv, code, err)
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    return code, err


@FUZZ
@given(argv=argvs())
def test_data_flags_exit_0_or_one_error_line(root, argv):
    argv = [str(root / a) if a in ("data", "missing") else a for a in argv]
    out = Path(tempfile.mkdtemp(dir=root)) / "o"
    if argv[0] != "gradcheck":
        argv += ["--out", str(out)]
    code, _ = run(argv)
    if code:
        assert not out.exists(), argv


ILL_TYPED = ["x", "", "1.5", "1e3.0"]
# (values that fit, values that do not) per flag; those that fit stay small:
# N = 12, at most one epoch per phase, a grid of at most two cells
RUN_FLAGS = {
    "--epochs": (["0", "1"], ["-1", *ILL_TYPED]),
    "--pretrain-epochs": (["0", "1"], ["-1", *ILL_TYPED]),
    "--latent-dim": (["2", "3"], ["1", "0", "-1", *ILL_TYPED]),
    "--k": (["1", "2", "3"], ["0", "-1", "11", "12", *ILL_TYPED]),
    "--gamma": (["0", "1", "10", "1e300"], ["-1", "nan", "inf", "x", ""]),
    "--heads": (["1", "2"], ["0", "-1", *ILL_TYPED]),
    "--layers": (["0", "1", "2"], ["-1", *ILL_TYPED]),
    "--clusters": (["2", "3"], ["1", "0", "13", "-1", *ILL_TYPED]),
    "--seed": (["0", "1"], ["-1", *ILL_TYPED]),
    "--lr": (["0.01", "0.1", "50"], ["0", "-1", "nan", "inf", "x", ""]),
    "--repeats": (["1", "2"], ["0", "-1", *ILL_TYPED]),
}
GRID_FLAGS = {
    "--gamma-grid": (["1", "0,1"], ["x", "", "1,,2", "nan", "-1"]),
    "--k-grid": (["2", "2,3"], ["0", "x", "", "2,,3", "12"]),
}
# gone: every graph has Gaussian weights at the median-distance sigma, and every
# attention layer averages its heads and applies a sigmoid
REMOVED_FLAGS = {
    "--kernel": ["gaussian", "dot", "x"],
    "--sigma": ["1", "0.5", "nan", "x"],
    "--activation": ["sigmoid", "elu"],
    "--combine": ["average", "concat"],
}


@st.composite
def run_argvs(draw):
    """A train, ablate or sweep argv on a 3x4 synthetic dataset; at most one flag,
    in half the draws, takes a value that does not fit or is a removed flag."""
    command = draw(st.sampled_from(["train", "ablate", "sweep"]))
    table = {**RUN_FLAGS, **(GRID_FLAGS if command == "sweep" else {})}
    optional = sorted(set(table) - {"--epochs", "--pretrain-epochs"})
    flags = ["--epochs", "--pretrain-epochs", *draw(st.lists(st.sampled_from(optional), unique=True))]
    if command == "sweep":
        flags += [f for f in GRID_FLAGS if f not in flags]
    bad = draw(st.none() | st.sampled_from(flags + sorted(REMOVED_FLAGS)))
    argv = [command, "--synth", "3x4", "--view-dims", "3,3"]
    for flag in flags:
        good, wrong = table[flag]
        argv += [flag, draw(st.sampled_from(wrong if flag == bad else good))]
    if bad in REMOVED_FLAGS:
        argv += [bad, draw(st.sampled_from(REMOVED_FLAGS[bad]))]
    return argv


@FUZZ
@given(argv=run_argvs())
def test_model_and_run_flags_exit_0_or_one_error_line(root, argv):
    out = Path(tempfile.mkdtemp(dir=root)) / "o"
    code, err = run(argv + ["--out", str(out)])
    if code and out.exists():
        # only a run that failed in training leaves its directory: the manifest,
        # written before training, never stamped complete, and holding the error
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert "completed_at" not in manifest, (argv, err)
        assert manifest["status"] == "error" and err == f"error: {manifest['error']}\n", argv
        assert re.match(r"error: (pretrain epoch|joint epoch|final state)", err), (argv, err)
