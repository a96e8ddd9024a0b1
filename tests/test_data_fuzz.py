"""Property tests for the readers: any bytes give either a value or a FormatError."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slrl.data import (
    MAGIC,
    MultiViewDataset,
    load_dataset,
    read_labels,
    read_matrix,
    save_dataset,
    write_matrix,
)
from slrl.errors import FormatError

# a reader answers bad input with a FormatError, never with a warning
pytestmark = pytest.mark.filterwarnings("error::UserWarning")

# every example writes into its own fresh directory under the shared tmp_path
FUZZ = settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

NUMERIC_TEXT = st.text(alphabet="0123456789.-+eE ,\t\n#xinfa", max_size=80).map(str.encode)
# headers of any size, including rows * cols * 8 far past the index range,
# followed by at most a few values: nothing here may size a large allocation
DIM = st.one_of(st.integers(0, 6), st.integers(0, 2**64 - 1))
MVM = st.builds(
    lambda rows, cols, payload: MAGIC + struct.pack("<QQ", rows, cols) + payload,
    DIM,
    DIM,
    st.binary(max_size=72),
)
ANY_BYTES = st.one_of(
    st.binary(max_size=120), NUMERIC_TEXT, MVM, st.binary(max_size=20).map(MAGIC.__add__)
)


def fresh_dir(tmp_path) -> Path:
    """A new directory per example (rewriting one file costs a disk flush on some
    file systems)."""
    return Path(tempfile.mkdtemp(dir=tmp_path))


def outcome(read, path):
    """The reader's value, or None for a FormatError; anything else propagates."""
    try:
        return read(path)
    except FormatError:
        return None


@FUZZ
@given(ANY_BYTES)
def test_read_matrix_any_bytes(tmp_path, blob):
    path = fresh_dir(tmp_path) / "m.mvm"
    path.write_bytes(blob)
    m = outcome(read_matrix, path)
    if m is not None:
        assert isinstance(m, np.ndarray) and m.ndim == 2 and m.dtype == np.float64


@FUZZ
@given(st.one_of(st.binary(max_size=120), NUMERIC_TEXT))
def test_read_labels_any_bytes(tmp_path, blob):
    path = fresh_dir(tmp_path) / "labels.txt"
    path.write_bytes(blob)
    labels = outcome(read_labels, path)
    if labels is not None:
        assert isinstance(labels, np.ndarray) and labels.ndim == 1 and labels.dtype == np.int64


MANIFEST_LINE = st.one_of(
    st.sampled_from(
        [
            "view a a.txt continuous",
            "view b a.mvm discrete",
            "view a a.txt",
            "view a a.txt sparse",
            "labels labels.txt",
            "labels",
            "# comment",
            "",
            "   ",
            "bogus line",
        ]
    ),
    st.text(max_size=20).filter(lambda s: "\n" not in s and "\r" not in s),
)
MANIFEST = st.one_of(
    st.lists(MANIFEST_LINE, max_size=5).map(lambda lines: "\n".join(lines).encode()),
    st.binary(max_size=80),
)


@FUZZ
@given(MANIFEST, ANY_BYTES, MVM, st.one_of(st.binary(max_size=40), NUMERIC_TEXT))
def test_load_dataset_any_bytes(tmp_path, manifest, text_view, binary_view, labels):
    """Every file the manifest can name exists, so only FormatError may come out."""
    root = fresh_dir(tmp_path)
    for name, blob in [
        ("manifest.txt", manifest),
        ("a.txt", text_view),
        ("a.mvm", binary_view),
        ("labels.txt", labels),
    ]:
        (root / name).write_bytes(blob)
    ds = outcome(load_dataset, root)
    if ds is not None:
        assert isinstance(ds, MultiViewDataset)
        assert all(v.shape[0] == ds.n_samples for v in ds.views)


@pytest.mark.parametrize(
    "rows, cols",
    [
        (2**63, 4),  # rows * cols * 8 overflows an index
        (2**40, 2**30),
        (3, 1000),  # claims more values than the file holds
        (2**64 - 1, 0),  # no values, but a shape numpy cannot hold
    ],
)
def test_read_matrix_header_past_file_size_is_format_error(tmp_path, rows, cols):
    path = tmp_path / "m.mvm"
    path.write_bytes(MAGIC + struct.pack("<QQ", rows, cols) + bytes(16))
    with pytest.raises(FormatError):
        read_matrix(path)


def test_read_matrix_bytes_past_the_declared_block_are_format_error(tmp_path):
    path = tmp_path / "m.mvm"
    write_matrix(path, np.eye(2))
    with open(path, "ab") as fh:
        fh.write(bytes(24))
    with pytest.raises(FormatError, match="2x2 matrix declared"):
        read_matrix(path)


@pytest.mark.parametrize("text", ["", "\n\n", "# only a comment\n"])
@pytest.mark.parametrize("read", [read_matrix, read_labels])
def test_text_file_without_values_is_format_error(tmp_path, text, read):
    path = tmp_path / "empty.txt"
    path.write_text(text)
    with pytest.raises(FormatError, match="no values"):
        read(path)


# any view name and kind, most of them ones the manifest cannot hold
FINITE = st.floats(allow_nan=False, allow_infinity=False)
NAME = st.one_of(st.text(max_size=6), st.sampled_from(["a", "x/y", "view1"]))
KIND = st.one_of(st.sampled_from(["continuous", "discrete"]), st.text(max_size=10))


@st.composite
def datasets(draw):
    n, n_views = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    views = []
    for _ in range(n_views):
        cols = draw(st.integers(1, 3))
        row = st.lists(FINITE, min_size=cols, max_size=cols)
        views.append(draw(st.lists(row, min_size=n, max_size=n)))
    names = draw(st.lists(NAME, min_size=n_views, max_size=n_views))
    kinds = draw(st.lists(KIND, min_size=n_views, max_size=n_views))
    labels = draw(st.none() | st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n))
    return views, labels, names, kinds


@FUZZ
@given(datasets())
def test_every_dataset_the_constructor_accepts_round_trips(tmp_path, parts):
    views, labels, names, kinds = parts
    try:
        ds = MultiViewDataset(views=views, labels=labels, view_names=names, kinds=kinds)
    except FormatError:
        return
    root = fresh_dir(tmp_path)
    save_dataset(ds, root)
    back = load_dataset(root)
    assert all(np.array_equal(a, b) for a, b in zip(back.views, ds.views, strict=True))
    assert (back.labels is None) == (ds.labels is None)
    assert ds.labels is None or np.array_equal(back.labels, ds.labels)
    assert (back.view_names, back.kinds) == (ds.view_names, ds.kinds)
