import tracemalloc

import numpy as np
import pytest

from slrl.errors import ParameterError
from slrl import graph
from slrl.graph import (
    NeighborGraph,
    build_dot,
    build_gaussian,
    build_graph,
    dump_edges,
    knn_indices,
)
from slrl.numerics import make_rng

from oracles import dot_adjacency, gaussian_adjacency, knn_bruteforce, neighborhoods_oracle


def graph_to_dense(g):
    a = np.zeros((g.n, g.n))
    for i in range(g.n):
        a[i, g.nbrs[i]] = g.wts[i]
    return a


def test_knn_tie_break_toward_smaller_index():
    h = np.arange(5.0).reshape(-1, 1)  # points 0..4 on a line
    nn = knn_indices(h, 1)
    assert nn[2][0] == 1  # node 2 is equidistant from 1 and 3


def test_knn_full_neighborhood():
    h = make_rng(0).normal(size=(6, 3))
    nn = knn_indices(h, 5)
    for i, ids in enumerate(nn):
        assert sorted(ids.tolist()) == [j for j in range(6) if j != i]


def test_knn_matches_bruteforce_sort_oracle():
    h = make_rng(1).normal(size=(20, 3))
    nn = knn_indices(h, 4)
    expected = knn_bruteforce(h, 4)
    for got, want in zip(nn, expected):
        assert np.array_equal(got, want)


def test_knn_range_validation():
    h = np.zeros((4, 2))
    with pytest.raises(ParameterError):
        knn_indices(h, 0)
    with pytest.raises(ParameterError):
        knn_indices(h, 4)


def test_gaussian_identical_points_weight_one():
    h = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0]])
    g = build_gaussian(h, k=1, sigma=1.0)
    assert g.weight(0, 1) == 1.0


def test_gaussian_analytic_value_at_2_sigma_sq():
    sigma = 0.7
    d = np.sqrt(2.0) * sigma  # so that d^2 = 2 sigma^2
    h = np.array([[0.0], [d], [10.0]])
    g = build_gaussian(h, k=1, sigma=sigma)
    assert g.weight(0, 1) == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_gaussian_matches_direct_evaluation_oracle():
    for seed in range(20):
        h = make_rng(seed).normal(size=(10, 3))
        sigma = 0.8 + 0.1 * seed
        g = build_gaussian(h, k=3, sigma=sigma)
        assert np.max(np.abs(graph_to_dense(g) - gaussian_adjacency(h, 3, sigma))) < 1e-9


def test_gaussian_degenerate_sigma_heuristic_rejected():
    h = np.ones((5, 2))
    with pytest.raises(ParameterError, match="sigma"):
        build_gaussian(h, k=2)


@pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf])
def test_gaussian_rejects_a_sigma_that_is_not_finite_and_positive(sigma):
    h = make_rng(2).normal(size=(6, 2))
    with pytest.raises(ParameterError, match="sigma must be finite and positive"):
        build_gaussian(h, k=2, sigma=sigma)


def test_dot_unit_vectors():
    h = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    g = build_dot(h, k=1)
    assert g.weight(0, 1) == pytest.approx(1.0)


def test_dot_orthogonal_edge_present_with_zero_weight():
    h = np.array([[1.0, 0.0], [0.0, 1.0]])
    g = build_dot(h, k=1)
    assert 1 in g.nbrs[0]
    assert g.weight(0, 1) == 0.0


def test_dot_matches_direct_evaluation_oracle():
    for seed in range(20):
        h = make_rng(100 + seed).normal(size=(9, 4))
        g = build_dot(h, k=3)
        assert np.max(np.abs(graph_to_dense(g) - dot_adjacency(h, 3))) < 1e-9


def test_symmetry_exact():
    h = make_rng(5).normal(size=(15, 3))
    for g in (build_gaussian(h, 4), build_dot(h, 4)):
        dense = graph_to_dense(g)
        assert np.array_equal(dense, dense.T)


def test_no_self_edges_and_degree_invariants():
    h = make_rng(6).normal(size=(12, 2))
    g = build_gaussian(h, 3)
    nn = knn_indices(h, 3)
    degrees = [g.degree(i) for i in range(g.n)]
    assert max(degrees) >= g.k
    assert min(degrees) >= 1
    for i in range(g.n):
        assert i not in g.nbrs[i]
        for j in nn[i]:  # every selected neighbor is adjacent
            assert j in g.nbrs[i]


def test_gaussian_weights_in_unit_interval():
    h = make_rng(7).normal(size=(10, 3))
    g = build_gaussian(h, 3)
    for w in g.wts:
        assert np.all(w > 0.0) and np.all(w <= 1.0)


def test_gaussian_translation_invariance():
    # edge structure must match exactly; weights agree to rounding (a shifted
    # coordinate system perturbs float differences in the last ulps)
    h = make_rng(8).normal(size=(11, 3))
    g1 = build_gaussian(h, 3)
    g2 = build_gaussian(h + np.array([5.0, -2.0, 1.0]), 3)
    for i in range(g1.n):
        assert np.array_equal(g1.nbrs[i], g2.nbrs[i])
        assert np.max(np.abs(g1.wts[i] - g2.wts[i])) < 1e-12


def test_dump_edges_format():
    h = np.array([[0.0], [1.0], [9.0]])
    g = build_gaussian(h, 1, sigma=1.0)
    lines = dump_edges(g).strip().splitlines()
    for line in lines:
        i, j, w = line.split()
        assert int(i) < int(j)
        assert float(w) == pytest.approx(g.weight(int(i), int(j)))


def test_neighborhoods_include_self():
    h = make_rng(9).normal(size=(6, 2))
    g = build_gaussian(h, 2)
    indptr, indices = g.neighborhoods()
    for i in range(g.n):
        row = indices[indptr[i] : indptr[i + 1]]
        assert i in row
        assert np.array_equal(row, np.sort(row))


def grid_points(n, side, seed):
    """n points on a small integer grid: many exactly equal distances, some duplicates."""
    return make_rng(seed).integers(0, side, size=(n, 2)).astype(float)


def straddling_rows(h, k):
    """Rows whose k-th and (k+1)-th nearest distances tie, so the cut splits a tie."""
    d = np.sum((h[:, None, :] - h[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(d, np.inf)
    d.sort(axis=1)
    return np.flatnonzero(d[:, k - 1] == d[:, k])


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_knn_ties_straddling_the_kth_distance_match_oracle(k):
    h = grid_points(40, 5, seed=k)
    assert straddling_rows(h, k).size > 0
    for got, want in zip(knn_indices(h, k), knn_bruteforce(h, k)):
        assert np.array_equal(got, want)
    dense_g = graph_to_dense(build_gaussian(h, k, sigma=1.3))
    dense_d = graph_to_dense(build_dot(h, k))
    assert np.max(np.abs(dense_g - gaussian_adjacency(h, k, 1.3))) < 1e-12
    assert np.max(np.abs(dense_d - dot_adjacency(h, k))) < 1e-12


def test_knn_across_row_blocks_matches_oracle():
    n, k = graph._ROW_BLOCK + 45, 4
    h = grid_points(n, 9, seed=11)
    assert straddling_rows(h, k)[-1] >= graph._ROW_BLOCK  # ties in the second block too
    for got, want in zip(knn_indices(h, k), knn_bruteforce(h, k)):
        assert np.array_equal(got, want)
    g = build_gaussian(h, k, sigma=2.0)
    assert np.max(np.abs(graph_to_dense(g) - gaussian_adjacency(h, k, 2.0))) < 1e-12


def edge_set(nbrs):
    return {(i, int(j)) for i, ids in enumerate(nbrs) for j in ids}


def test_blocked_build_matches_oracles_on_random_input():
    # no ties here: three row blocks, the last one partial
    n, k = 2 * graph._ROW_BLOCK + 40, 5
    h = make_rng(12).normal(size=(n, 3))
    want = knn_bruteforce(h, k)
    union = edge_set(want)
    union |= {(j, i) for i, j in union}
    g = build_gaussian(h, k)
    assert edge_set(g.nbrs) == union
    kept = [np.sqrt(np.sum((h[i] - h[j]) ** 2)) for i, ids in enumerate(want) for j in ids]
    assert g.sigma == pytest.approx(np.median(kept), rel=1e-12)
    assert np.max(np.abs(graph_to_dense(g) - gaussian_adjacency(h, k, g.sigma))) < 1e-12
    d = build_dot(h, k)
    assert edge_set(d.nbrs) == union
    assert np.max(np.abs(graph_to_dense(d) - dot_adjacency(h, k))) < 1e-12


@pytest.mark.parametrize("kernel", ["gaussian", "dot"])
def test_build_holds_no_n_by_n_array(kernel):
    n = 4 * graph._ROW_BLOCK
    h = make_rng(13).normal(size=(n, 8))
    tracemalloc.start()
    try:
        build_graph(h, 10, kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # blocks of _ROW_BLOCK rows hold a few (N / 4, N) arrays, never one N x N matrix
    assert peak < n * n * 8


def csr_of(g, include_self):
    """The self-looped CSR from ``neighborhoods()``, or the stored one without self loops."""
    return g.neighborhoods() if include_self else (g.indptr, g.indices)


@pytest.mark.parametrize("include_self", [True, False])
def test_neighborhoods_match_row_by_row_transcription(include_self):
    for seed in range(5):
        g = build_gaussian(grid_points(30, 4, seed), 3, sigma=1.0)
        got = csr_of(g, include_self)
        want = neighborhoods_oracle(g.nbrs, include_self)
        assert all(np.array_equal(a, b) and a.dtype == np.int64 for a, b in zip(got, want))
    # empty lists, and a node whose id is larger than all of its neighbors'
    nbrs = [np.array([2]), np.zeros(0, dtype=np.int64), np.array([0, 3]), np.array([2])]
    indptr = np.array([0, 1, 1, 3, 4], dtype=np.int64)
    indices = np.array([2, 0, 3, 2], dtype=np.int64)
    g = NeighborGraph(
        n=4, k=1, kernel="dot", sigma=None, indptr=indptr, indices=indices, weights=np.ones(4)
    )
    assert all(np.array_equal(a, b) for a, b in zip(g.nbrs, nbrs, strict=True))
    got = csr_of(g, include_self)
    want = neighborhoods_oracle(nbrs, include_self)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
