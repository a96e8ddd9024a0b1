import re

import numpy as np
import pytest

from slrl.cluster import init_centroids
from slrl.data import (
    MultiViewDataset,
    load_dataset,
    normalize,
    read_matrix,
    save_dataset,
    synth_multiview,
    write_matrix,
)
from slrl.errors import FormatError, ParameterError
from slrl.metrics import evaluate


def write_text_matrix(path, m):
    with open(path, "w") as fh:
        for row in m:
            fh.write(" ".join(str(v) for v in row) + "\n")


def test_load_single_view_manifest(tmp_path):
    m = np.arange(8.0).reshape(4, 2)
    write_text_matrix(tmp_path / "a.txt", m)
    (tmp_path / "manifest.txt").write_text("view a a.txt continuous\n")
    ds = load_dataset(tmp_path)
    assert ds.n_samples == 4 and ds.n_views == 1 and ds.dims == [2]
    assert np.array_equal(ds.views[0], m)
    assert ds.labels is None


def test_row_count_mismatch_rejected(tmp_path):
    write_text_matrix(tmp_path / "a.txt", np.zeros((10, 2)))
    write_text_matrix(tmp_path / "b.txt", np.zeros((9, 2)))
    (tmp_path / "manifest.txt").write_text("view a a.txt continuous\nview b b.txt continuous\n")
    with pytest.raises(FormatError):
        load_dataset(tmp_path)


def test_non_finite_entry_rejected(tmp_path):
    write_text_matrix(tmp_path / "a.txt", [[1.0, float("nan")]])
    (tmp_path / "manifest.txt").write_text("view a a.txt continuous\n")
    with pytest.raises(FormatError):
        load_dataset(tmp_path)


def test_missing_file_is_io_error(tmp_path):
    (tmp_path / "manifest.txt").write_text("view a missing.txt continuous\n")
    with pytest.raises(OSError):
        load_dataset(tmp_path)


def test_non_integer_label_is_format_error(tmp_path):
    write_text_matrix(tmp_path / "a.txt", np.zeros((3, 2)))
    (tmp_path / "labels.txt").write_text("0\n1\nbanana\n")
    (tmp_path / "manifest.txt").write_text("view a a.txt continuous\nlabels labels.txt\n")
    with pytest.raises(FormatError):
        load_dataset(tmp_path)


def test_several_labels_on_a_line_is_format_error(tmp_path):
    # four values for four samples, but two per line: not one label per sample
    write_text_matrix(tmp_path / "a.txt", np.zeros((4, 2)))
    (tmp_path / "labels.txt").write_text("0 1\n1 0\n")
    (tmp_path / "manifest.txt").write_text("view a a.txt continuous\nlabels labels.txt\n")
    with pytest.raises(FormatError, match=re.escape(str(tmp_path / "labels.txt"))):
        load_dataset(tmp_path)


@pytest.mark.parametrize("labels", [[[0, 1], [1, 0]], [[0], [1], [1], [0]], 3])
def test_labels_that_are_not_a_vector_are_a_format_error(labels):
    # a 2x2 or 4x1 array over 4 samples used to pass, flattened, as four labels
    with pytest.raises(FormatError, match="labels must be a vector, got shape"):
        MultiViewDataset(views=[np.zeros((4, 2))], labels=np.array(labels))


@pytest.mark.parametrize(
    "labels", [[0.5, 1.7, 2.2], [0.0, np.nan, 1.0], ["a", "b", "c"], [1e20, 0.0, 1.0], [1, None, 2]]
)
def test_labels_that_are_not_integers_are_a_format_error(labels):
    # 0.5, 1.7 and 2.2 used to pass, truncated, as 0, 1 and 2
    with pytest.raises(FormatError, match="^labels must be integers"):
        MultiViewDataset(views=[np.zeros((3, 2))], labels=labels)


@pytest.mark.parametrize(
    "labels", [[2, 0, 1], [2.0, 0.0, 1.0], np.array([2, 0, 1], dtype=np.uint8), np.array([2, 0, 1])]
)
def test_integer_valued_labels_are_kept(labels):
    ds = MultiViewDataset(views=[np.zeros((3, 2))], labels=labels)
    assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [2, 0, 1]


def test_a_view_that_is_not_numeric_is_a_format_error():
    for view in ([["a", "b"], ["c", "d"]], [[1.0, 2.0], [3.0]]):
        with pytest.raises(FormatError, match="^view 1 is not a numeric matrix$"):
            MultiViewDataset(views=[np.zeros((2, 2)), view])


def test_truncated_binary_header_is_format_error(tmp_path):
    (tmp_path / "m.mvm").write_bytes(b"MVM1" + b"\x03\x00\x00")
    with pytest.raises(FormatError):
        read_matrix(tmp_path / "m.mvm")


def test_unparsable_text_matrix_is_format_error(tmp_path):
    (tmp_path / "m.txt").write_text("1.0 2.0\n3.0 oops\n")
    with pytest.raises(FormatError):
        read_matrix(tmp_path / "m.txt")


def test_binary_matrix_round_trip(tmp_path):
    m = np.random.default_rng(0).normal(size=(7, 3))
    write_matrix(tmp_path / "m.mvm", m)
    assert np.array_equal(read_matrix(tmp_path / "m.mvm"), m)


def test_synth_save_load_round_trip(tmp_path):
    ds = synth_multiview(3, 5, [4, 6], noise=0.1, seed=9)
    save_dataset(ds, tmp_path / "d")
    back = load_dataset(tmp_path / "d")
    assert back.n_views == 2 and back.view_names == ds.view_names
    for a, b in zip(ds.views, back.views):
        assert np.max(np.abs(a - b)) < 1e-12
    assert np.array_equal(back.labels, ds.labels)
    assert sorted(p.name for p in (tmp_path / "d").iterdir()) == [
        "labels.txt", "manifest.txt", "view0.mvm", "view1.mvm",
    ]


@pytest.mark.parametrize("names", [["a", "a"], ["x/y", "../z"], ["#", "\u00e9t\u00e9"]])
def test_view_files_are_named_by_index(tmp_path, names):
    # repeated names, and names that are no file name, keep their views apart
    views = [np.full((2, 1), 1.0), np.full((2, 3), 2.0)]
    ds = MultiViewDataset(views=views, view_names=names, kinds=["discrete", "continuous"])
    save_dataset(ds, tmp_path / "d")
    back = load_dataset(tmp_path / "d")
    assert back.view_names == names and back.kinds == ["discrete", "continuous"]
    assert all(np.array_equal(a, b) for a, b in zip(back.views, views, strict=True))


@pytest.mark.parametrize("meta, message", [
    (dict(view_names=["a b"]), "view name 'a b' is not one printable word"),
    (dict(view_names=[""]), "view name '' is not one printable word"),
    (dict(view_names=["a\tb"]), "view name 'a\\tb' is not one printable word"),
    (dict(view_names=[3]), "view name 3 is not one printable word"),
    (dict(kinds=["sparse"]), "view kind 'sparse' is not one of continuous, discrete"),
])
def test_view_metadata_the_manifest_cannot_hold_is_a_format_error(meta, message):
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        MultiViewDataset(views=[np.ones((2, 2))], **meta)


def test_normalize_column_scaling():
    ds = MultiViewDataset(views=[np.array([[0.0], [5.0], [10.0]])])
    out = normalize(ds)
    assert np.array_equal(out.views[0].ravel(), [0.0, 0.5, 1.0])


def test_normalize_constant_column_maps_to_zero():
    ds = MultiViewDataset(views=[np.array([[3.0], [3.0], [3.0]])])
    assert np.array_equal(normalize(ds).views[0], np.zeros((3, 1)))


def test_normalize_idempotent():
    rng = np.random.default_rng(4)
    ds = MultiViewDataset(views=[rng.normal(size=(6, 3)), rng.normal(size=(6, 2))])
    once = normalize(ds)
    twice = normalize(once)
    for a, b in zip(once.views, twice.views):
        assert np.array_equal(a, b)


def test_normalize_preserves_shape_and_finiteness():
    rng = np.random.default_rng(5)
    ds = MultiViewDataset(views=[rng.normal(size=(9, 4)) * 100])
    out = normalize(ds)
    assert out.views[0].shape == (9, 4)
    assert np.isfinite(out.views[0]).all()


def test_synth_zero_noise_collapses_clusters():
    ds = synth_multiview(3, 4, [5, 3], noise=0.0, seed=2)
    for view in ds.views:
        for c in range(3):
            rows = view[ds.labels == c]
            assert np.max(np.abs(rows - rows[0])) == 0.0


def test_synth_deterministic():
    a = synth_multiview(3, 10, [4, 4], noise=0.05, seed=31)
    b = synth_multiview(3, 10, [4, 4], noise=0.05, seed=31)
    for va, vb in zip(a.views, b.views):
        assert np.array_equal(va, vb)
    assert np.array_equal(a.labels, b.labels)


def test_synth_kmeans_on_concatenated_views_recovers_clusters():
    # generator quality gate: plain k-means on stacked views must reach 0.9
    ds = synth_multiview(3, 50, [8, 8], noise=0.05, seed=0)
    x = np.hstack(ds.views)
    centers = init_centroids(x, 3, seed=0)
    labels = np.argmin(((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2), axis=1)
    assert evaluate(labels, ds.labels).acc >= 0.9


def test_synth_validates_arguments():
    with pytest.raises(ParameterError):
        synth_multiview(1, 5, [4], noise=0.0, seed=0)
    with pytest.raises(ParameterError):
        synth_multiview(3, 5, [1], noise=0.0, seed=0)
    with pytest.raises(ParameterError):
        synth_multiview(3, 5, [4], noise=-0.1, seed=0)


def test_synth_centers_keep_their_separation_or_fail():
    # 50 centers in 2 dimensions: no draw of 100 keeps them 0.5 apart
    with pytest.raises(ParameterError, match="^no draw of 50 cluster centers in 2 generator"):
        synth_multiview(50, 2, [2, 2], seed=0)


def test_joint_row_permutation_permutes_outputs():
    ds = synth_multiview(2, 6, [3, 4], noise=0.1, seed=8)
    perm = np.random.default_rng(0).permutation(ds.n_samples)
    permuted = MultiViewDataset(views=[v[perm] for v in ds.views], labels=ds.labels[perm])
    base = normalize(ds)
    out = normalize(permuted)
    for v_base, v_out in zip(base.views, out.views):
        assert np.array_equal(v_base[perm], v_out)
    assert np.array_equal(base.labels[perm], out.labels)
