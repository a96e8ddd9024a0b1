"""Property test for the CLI's data flags: any argv over them exits 0, or exits 2
with exactly one ``error:`` line and no output directory."""

import io
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


@FUZZ
@given(argv=argvs())
def test_data_flags_exit_0_or_one_error_line(root, argv):
    argv = [str(root / a) if a in ("data", "missing") else a for a in argv]
    out = Path(tempfile.mkdtemp(dir=root)) / "o"
    if argv[0] != "gradcheck":
        argv += ["--out", str(out)]
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        code = main(argv)
    err = stderr.getvalue()
    if code == 0:
        assert err == "", (argv, err)
    else:
        assert code == 2, (argv, code, err)
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert not out.exists(), argv
