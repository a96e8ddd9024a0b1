"""Symmetric k-nearest-neighbor graph over the latent representation.

Edges follow the union rule: (i, j) is present iff i is among the k nearest
neighbors of j or vice versa. Weights come from either a Gaussian kernel,

    w_ij = exp(-||h_i - h_j||^2 / (2 sigma^2)),

or the raw dot product h_j^T h_i. The attention layer consumes only the
edge set; weights are retained for inspection and debugging dumps.

A graph is stored once, as CSR arrays with rows and the ids within each row
in ascending order (no self loops); ``neighborhoods()`` inserts the self
loops attention uses.

Neighbor search is exact and deterministic, and no build holds an N x N
array. It works through blocks of at most ``_ROW_BLOCK`` rows: for a block I
it computes the squared distances ``sq_I + sq - 2 h_I h^T`` and selects each
row's k nearest with ``np.partition``; where the k-th distance ties past the
k-th place, the smaller indices win. Only the k ids per row, their squared
distances and their dot products are kept, so memory is O(N * _ROW_BLOCK).
The union is the sorted set of unique codes ``i * N + j`` over both
directions of every selected pair, which is already the CSR order. Both
directions of an edge take their weight from the pair's first selection in
row order, so the adjacency is exactly symmetric. The default sigma and the
weights come from the kept values, with no second distance pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .numerics import as_matrix

__all__ = [
    "NeighborGraph",
    "knn_indices",
    "build_gaussian",
    "build_dot",
    "build_graph",
    "dump_edges",
]

_ROW_BLOCK = 256


@dataclass
class NeighborGraph:
    """Symmetric weighted adjacency in CSR form, rows in ascending id order."""

    n: int
    k: int
    kernel: str  # "gaussian" | "dot"
    sigma: float | None
    indptr: np.ndarray  # (n + 1,) int64 row offsets into indices
    indices: np.ndarray  # neighbor ids, ascending within each row, no self
    weights: np.ndarray  # edge weights aligned with indices

    @property
    def nbrs(self) -> list:
        """Per-node neighbor id arrays (views of ``indices``)."""
        return np.split(self.indices, self.indptr[1:-1])

    @property
    def wts(self) -> list:
        """Per-node weight arrays aligned with ``nbrs`` (views of ``weights``)."""
        return np.split(self.weights, self.indptr[1:-1])

    def degree(self, i: int) -> int:
        return int(self.indptr[i + 1] - self.indptr[i])

    def weight(self, i: int, j: int) -> float:
        """Edge weight, 0.0 for absent pairs."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        pos = lo + np.searchsorted(self.indices[lo:hi], j)
        if pos < hi and self.indices[pos] == j:
            return float(self.weights[pos])
        return 0.0

    def neighborhoods(self):
        """CSR (indptr, indices) with each node's own id inserted into its sorted row."""
        # node i goes after those of its neighbors with smaller ids
        row = np.repeat(np.arange(self.n), np.diff(self.indptr))
        pos = self.indptr[:-1] + np.bincount(row[self.indices < row], minlength=self.n)
        indices = np.insert(self.indices, pos, np.arange(self.n))
        return self.indptr + np.arange(self.n + 1), indices


def _block_nearest(h: np.ndarray, sq: np.ndarray, start: int, k: int):
    """Rows ``start : start + _ROW_BLOCK`` of ``_nearest``; the block's (rows, N)
    arrays are freed on return."""
    gram2 = h[start : start + _ROW_BLOCK] @ h.T
    gram2 *= 2.0
    d = np.add.outer(sq[start : start + _ROW_BLOCK], sq)
    d -= gram2
    np.maximum(d, 0.0, out=d)
    np.fill_diagonal(d[:, start:], np.inf)
    kth = np.partition(d, k - 1, axis=1)[:, k - 1 : k].copy()
    sel = d <= kth
    # rows where the k-th distance ties past the k-th place keep the smaller ids
    for i in np.flatnonzero(np.count_nonzero(sel, axis=1) > k):
        ties = np.flatnonzero(d[i] == kth[i])
        sel[i, ties[k - np.count_nonzero(d[i] < kth[i]) :]] = False
    ids = np.flatnonzero(sel).reshape(-1, k) % sel.shape[1]
    return ids, np.take_along_axis(d, ids, axis=1), np.take_along_axis(gram2, ids, axis=1) / 2.0


def _nearest(h: np.ndarray, k: int):
    """Each row's k nearest other rows, the smaller id winning a tie: ids (N, k),
    ascending within a row, with their squared distances and dot products."""
    n = h.shape[0]
    if not 1 <= k <= n - 1:
        raise ParameterError(f"k={k} outside [1, {n - 1}]")
    sq = np.sum(h * h, axis=1)
    blocks = [_block_nearest(h, sq, s, k) for s in range(0, n, _ROW_BLOCK)]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _union(ids: np.ndarray, values: np.ndarray, **fields) -> NeighborGraph:
    """Union-rule graph over the selections ``ids`` (N, k); an edge weighs
    ``values`` at the first selection of its pair in row order."""
    n, k = ids.shape
    rows = np.repeat(np.arange(n), k)
    cols = ids.ravel()
    # both directions of each selection, side by side: a unique code's first
    # occurrence is then the first selection of its pair, for either direction
    codes = np.column_stack([rows * n + cols, cols * n + rows]).ravel()
    codes, first = np.unique(codes, return_index=True)
    rows, indices = np.divmod(codes, n)
    indptr = np.searchsorted(rows, np.arange(n + 1))
    weights = values.ravel()[first // 2]
    return NeighborGraph(n=n, k=k, indptr=indptr, indices=indices, weights=weights, **fields)


def knn_indices(h, k: int) -> list:
    """For each node, the k nearest other nodes by Euclidean distance.

    Ties are broken toward the smaller index. Returns a list of int64 arrays
    in ascending-distance order.
    """
    ids, dist, _ = _nearest(as_matrix(h, "h"), k)
    # ids ascend within each row, so a stable sort by distance keeps index order on ties
    order = np.argsort(dist, axis=1, kind="stable")
    return list(np.take_along_axis(ids, order, axis=1))


def build_gaussian(h, k: int, sigma: float | None = None) -> NeighborGraph:
    """Union-kNN graph with Gaussian kernel weights.

    When ``sigma`` is not given it defaults to the median distance over all
    selected kNN pairs; degenerate data (all points identical) makes that
    heuristic collapse, in which case an explicit sigma is required.
    """
    ids, dist, _ = _nearest(as_matrix(h, "h"), k)
    if sigma is None:
        sigma = float(np.median(np.sqrt(dist)))
        if sigma <= 0.0:
            raise ParameterError(
                "sigma heuristic degenerate (all selected neighbor distances are zero); "
                "pass an explicit sigma"
            )
    elif not 0.0 < sigma < np.inf:  # false for nan too
        raise ParameterError("sigma must be finite and positive")
    scale = 2.0 * sigma * sigma
    return _union(ids, np.exp(-dist / scale), kernel="gaussian", sigma=float(sigma))


def build_dot(h, k: int) -> NeighborGraph:
    """Union-kNN graph with dot-product weights (may be negative)."""
    ids, _, dots = _nearest(as_matrix(h, "h"), k)
    return _union(ids, dots, kernel="dot", sigma=None)


def build_graph(h, k: int, kernel: str = "gaussian", sigma: float | None = None) -> NeighborGraph:
    if kernel == "gaussian":
        return build_gaussian(h, k, sigma)
    if kernel == "dot":
        return build_dot(h, k)
    raise ParameterError(f"unknown kernel {kernel!r}")


def dump_edges(g: NeighborGraph) -> str:
    """Text dump, one ``i j weight`` line per undirected edge with i < j."""
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    upper = rows < g.indices
    edges = zip(rows[upper].tolist(), g.indices[upper].tolist(), g.weights[upper].tolist())
    return "".join(f"{i} {j} {w:.17g}\n" for i, j, w in edges)
