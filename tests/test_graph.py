import tracemalloc

import numpy as np
import pytest

from slrl.errors import NumericError, ParameterError
from slrl import graph
from slrl.gat import init_gat_stack, stack_forward
from slrl.graph import NeighborGraph, build_graph, dump_edges, knn_indices
from slrl.numerics import make_rng

from oracles import gaussian_adjacency, knn_bruteforce, neighborhoods_oracle


def graph_to_dense(g):
    a = np.zeros((g.n, g.n))
    a[np.repeat(np.arange(g.n), np.diff(g.indptr)), g.indices] = g.weights
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
    # two pairs, so that the median selected distance is 1, not 0
    h = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0], [6.0, 5.0]])
    g = build_graph(h, k=1)
    assert graph_to_dense(g)[0, 1] == 1.0


def test_gaussian_analytic_value_at_2_sigma_sq():
    # three pairs: two at distance 1 set sigma = 1, and one at sqrt(2) has d^2 = 2 sigma^2
    h = np.array([[0.0], [np.sqrt(2.0)], [10.0], [11.0], [20.0], [21.0]])
    g = build_graph(h, k=1)
    assert g.sigma == 1.0
    assert graph_to_dense(g)[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_gaussian_matches_direct_evaluation_oracle():
    for seed in range(20):
        h = make_rng(seed).normal(size=(10, 3))
        g = build_graph(h, k=3)
        assert np.max(np.abs(graph_to_dense(g) - gaussian_adjacency(h, 3, g.sigma))) < 1e-9


def test_gaussian_degenerate_sigma_heuristic_rejected():
    h = np.ones((5, 2))
    # the union graph builds, each node selecting the smallest other ids; only its
    # weights have no sigma
    g = build_graph(h, k=2)
    assert g.sigma == 0.0 and np.array_equal(np.diff(g.indptr), [4, 4, 2, 2, 2])
    with pytest.raises(ParameterError, match="degenerate neighbor distances"):
        g.weights


def test_gaussian_sigma_that_squares_to_zero_rejected(recwarn):
    # a duplicate pair and a pair at the smallest subnormal squared distance:
    # sigma is 1.1e-162, half of sqrt(5e-324), and 2 sigma^2 rounds to 0
    h = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, np.sqrt(5e-324)]])
    g = build_graph(h, k=1)
    assert 0.0 < g.sigma < 1e-161
    with pytest.raises(ParameterError, match="degenerate neighbor distances"):
        g.weights
    assert [str(w.message) for w in recwarn] == []


def test_mostly_identical_latent_builds_and_attends(recwarn):
    # 15 of 20 rows coincide, so the median selected distance is 0: the graph
    # and attention over it work, and only the weights (graph.txt) are an error
    h = make_rng(14).normal(size=(20, 4))
    h[:15] = h[0]
    g = build_graph(h, k=3)
    union = edge_set(knn_bruteforce(h, 3))
    assert edge_set(g.nbrs) == union | {(j, i) for i, j in union}
    assert g.sigma == 0.0 and g.dist.shape == g.indices.shape
    stack = init_gat_stack(1, 4, 4, 2, seed=0)
    ht, _ = stack_forward(stack, h, g.neighborhoods())
    assert np.isfinite(ht).all()
    for read in (lambda: g.weights, lambda: dump_edges(g)):
        with pytest.raises(ParameterError, match="degenerate neighbor distances"):
            read()
    assert [str(w.message) for w in recwarn] == []


@pytest.mark.parametrize("build", [knn_indices, build_graph])
def test_distances_that_overflow_are_a_numeric_error(build, recwarn):
    # sq_0 + sq_1 and 2 h_0 h_1 both overflow, so the distance of 0 and 1 would be
    # nan, and node 0 would select itself
    h = np.array([[1.2e154], [1.3e154], [0.0]])
    with pytest.raises(NumericError, match="^h is too large: its squared distances overflow$"):
        build(h, 2)
    assert [str(w.message) for w in recwarn] == []


def test_gaussian_keeps_a_graph_where_only_far_edges_underflow():
    # a tight triple and a tight pair 1000 apart: most selections are near, so
    # sigma is 0.1; the union joins the groups, and the far edges weigh 0
    h = np.array([[0.0], [0.1], [0.2], [1000.0], [1000.1]])
    g = build_graph(h, k=2)
    dense = graph_to_dense(g)
    assert dense[0, 1] == pytest.approx(np.exp(-0.5))
    assert dense[3, 4] == pytest.approx(np.exp(-0.5))
    assert 3 in g.indices[g.indptr[2] : g.indptr[3]] and dense[2, 3] == 0.0


def test_symmetry_exact():
    h = make_rng(5).normal(size=(15, 3))
    dense = graph_to_dense(build_graph(h, 4))
    assert np.array_equal(dense, dense.T)


def test_no_self_edges_and_degree_invariants():
    h = make_rng(6).normal(size=(12, 2))
    g = build_graph(h, 3)
    nn = knn_indices(h, 3)
    degrees = np.diff(g.indptr)
    assert max(degrees) >= g.k
    assert min(degrees) >= 1
    for i in range(g.n):
        assert i not in g.nbrs[i]
        for j in nn[i]:  # every selected neighbor is adjacent
            assert j in g.nbrs[i]


def test_gaussian_weights_in_unit_interval():
    h = make_rng(7).normal(size=(10, 3))
    g = build_graph(h, 3)
    assert np.all(g.weights > 0.0) and np.all(g.weights <= 1.0)


def test_gaussian_translation_invariance():
    # edge structure must match exactly; weights agree to rounding (a shifted
    # coordinate system perturbs float differences in the last ulps)
    h = make_rng(8).normal(size=(11, 3))
    g1 = build_graph(h, 3)
    g2 = build_graph(h + np.array([5.0, -2.0, 1.0]), 3)
    assert np.array_equal(g1.indptr, g2.indptr) and np.array_equal(g1.indices, g2.indices)
    assert np.max(np.abs(g1.weights - g2.weights)) < 1e-12


def test_dump_edges_format():
    h = np.array([[0.0], [1.0], [9.0]])
    g = build_graph(h, 1)
    dense = graph_to_dense(g)
    lines = dump_edges(g).strip().splitlines()
    for line in lines:
        i, j, w = line.split()
        assert int(i) < int(j)
        assert float(w) == pytest.approx(dense[int(i), int(j)])


def test_neighborhoods_include_self():
    h = make_rng(9).normal(size=(6, 2))
    g = build_graph(h, 2)
    indptr, indices = g.neighborhoods()
    for i in range(g.n):
        row = indices[indptr[i] : indptr[i + 1]]
        assert i in row
        assert np.array_equal(row, np.sort(row))


def grid_points(n, side, seed):
    """n points on a small integer grid: many exactly equal distances, some duplicates."""
    return make_rng(seed).integers(0, side, size=(n, 2)).astype(float)


def tie_graph(h, k, sigma):
    """``build_graph``'s selection and union at a given sigma, so that ``weights``
    weighs ``dist`` at that sigma. On the tie grids, most selected pairs are
    duplicates at distance 0, so the median sigma of ``build_graph`` is 0 and its
    weights raise."""
    return graph._union(*graph._nearest(h, k), sigma)


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
    dense_g = graph_to_dense(tie_graph(h, k, 1.3))
    assert np.max(np.abs(dense_g - gaussian_adjacency(h, k, 1.3))) < 1e-12


def test_knn_across_row_blocks_matches_oracle():
    n, k = graph._ROW_BLOCK + 45, 4
    h = grid_points(n, 9, seed=11)
    assert straddling_rows(h, k)[-1] >= graph._ROW_BLOCK  # ties in the second block too
    for got, want in zip(knn_indices(h, k), knn_bruteforce(h, k)):
        assert np.array_equal(got, want)
    g = tie_graph(h, k, 2.0)
    assert np.max(np.abs(graph_to_dense(g) - gaussian_adjacency(h, k, 2.0))) < 1e-12


@pytest.mark.parametrize("n", [graph._ROW_BLOCK // 2, graph._ROW_BLOCK + 1])
def test_knn_ties_in_a_partial_workspace_match_oracle(n):
    # a single block smaller than the workspace's row count, and a last block of one row
    k = 3
    h = grid_points(n, 7, seed=20)
    assert straddling_rows(h, k)[-1] == n - 1  # the last row splits a tie
    for got, want in zip(knn_indices(h, k), knn_bruteforce(h, k)):
        assert np.array_equal(got, want)
    dense_g = graph_to_dense(tie_graph(h, k, 1.3))
    assert np.max(np.abs(dense_g - gaussian_adjacency(h, k, 1.3))) < 1e-12


def edge_set(nbrs):
    return {(i, int(j)) for i, ids in enumerate(nbrs) for j in ids}


def test_blocked_build_matches_oracles_on_random_input():
    # no ties here: three row blocks, the last one partial
    n, k = 2 * graph._ROW_BLOCK + 40, 5
    h = make_rng(12).normal(size=(n, 3))
    want = knn_bruteforce(h, k)
    union = edge_set(want)
    union |= {(j, i) for i, j in union}
    g = build_graph(h, k)
    assert edge_set(g.nbrs) == union
    kept = [np.sqrt(np.sum((h[i] - h[j]) ** 2)) for i, ids in enumerate(want) for j in ids]
    assert g.sigma == pytest.approx(np.median(kept), rel=1e-12)
    assert np.max(np.abs(graph_to_dense(g) - gaussian_adjacency(h, k, g.sigma))) < 1e-12


def test_build_holds_no_n_by_n_array():
    n = 4 * graph._ROW_BLOCK
    h = make_rng(13).normal(size=(n, 8))
    tracemalloc.start()
    try:
        build_graph(h, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # blocks of _ROW_BLOCK rows hold a few (N / 4, N) arrays, never one N x N matrix
    assert peak < n * n * 8


def test_nearest_holds_one_score_slab():
    # one (B, N) slab of scores; row k-th scores come from a small partition buffer
    n = 4 * graph._ROW_BLOCK
    h = make_rng(14).normal(size=(n, 8))
    tracemalloc.start()
    try:
        graph._nearest(h, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * graph._ROW_BLOCK * n * 8


def csr_of(g, include_self):
    """The self-looped CSR from ``neighborhoods()``, or the stored one without self loops."""
    return g.neighborhoods() if include_self else (g.indptr, g.indices)


@pytest.mark.parametrize("include_self", [True, False])
def test_neighborhoods_match_row_by_row_transcription(include_self):
    for seed in range(5):
        g = tie_graph(grid_points(30, 4, seed), 3, 1.0)
        got = csr_of(g, include_self)
        want = neighborhoods_oracle(g.nbrs, include_self)
        assert all(np.array_equal(a, b) and a.dtype == np.int64 for a, b in zip(got, want))
    # empty lists, and a node whose id is larger than all of its neighbors'
    nbrs = [np.array([2]), np.zeros(0, dtype=np.int64), np.array([0, 3]), np.array([2])]
    indptr = np.array([0, 1, 1, 3, 4], dtype=np.int64)
    indices = np.array([2, 0, 3, 2], dtype=np.int64)
    g = NeighborGraph(n=4, k=1, sigma=1.0, indptr=indptr, indices=indices, dist=np.zeros(4))
    assert all(np.array_equal(a, b) for a, b in zip(g.nbrs, nbrs, strict=True))
    got = csr_of(g, include_self)
    want = neighborhoods_oracle(nbrs, include_self)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
