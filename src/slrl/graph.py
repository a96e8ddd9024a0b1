"""Symmetric k-nearest-neighbor graph over the latent representation.

Edges follow the union rule: (i, j) is present iff i is among the k nearest
neighbors of j or vice versa. Weights come from either a Gaussian kernel,

    w_ij = exp(-||h_i - h_j||^2 / (2 sigma^2)),

or the raw dot product h_j^T h_i. The attention layer consumes only the
edge set; weights are retained for inspection and debugging dumps.

A graph is stored once, as the CSR arrays ``np.nonzero`` gives for the union
mask (no self loops); ``neighborhoods()`` inserts the self loops attention uses.

Neighbor search is exact and deterministic. A build computes one matrix of
squared distances and selects each node's k nearest with ``np.partition``
over blocks of at most ``_ROW_BLOCK`` rows; where the k-th distance ties past
the k-th place, the smaller indices win. ``mask | mask.T`` is the union, and
the weights and the default sigma are read off the same matrix.
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


def _knn(h: np.ndarray, k: int, gram: np.ndarray):
    """Squared distances (inf diagonal, written over ``gram`` = h h^T) and a mask
    of each row's k nearest columns, the smaller column winning a tie."""
    n = h.shape[0]
    if not 1 <= k <= n - 1:
        raise ParameterError(f"k={k} outside [1, {n - 1}]")
    sq = np.sum(h * h, axis=1)
    d = np.add.outer(sq, sq)
    d -= np.multiply(gram, 2.0, out=gram)
    np.maximum(d, 0.0, out=d)
    # force exact symmetry so both directions of an edge share one distance
    d = np.add(d, d.T, out=gram)
    d /= 2.0
    np.fill_diagonal(d, np.inf)
    mask = np.empty(d.shape, dtype=bool)
    for s in range(0, n, _ROW_BLOCK):
        blk, sel = d[s : s + _ROW_BLOCK], mask[s : s + _ROW_BLOCK]
        kth = np.partition(blk, k - 1, axis=1)[:, k - 1 : k]
        np.less_equal(blk, kth, out=sel)
        # rows where the k-th distance ties past the k-th place keep the smaller ids
        for i in np.flatnonzero(np.count_nonzero(sel, axis=1) > k):
            ties = np.flatnonzero(blk[i] == kth[i])
            sel[i, ties[k - np.count_nonzero(blk[i] < kth[i]) :]] = False
    return d, mask


def knn_indices(h, k: int) -> list:
    """For each node, the k nearest other nodes by Euclidean distance.

    Ties are broken toward the smaller index. Returns a list of int64 arrays
    in ascending-distance order.
    """
    h = as_matrix(h, "h")
    d, mask = _knn(h, k, h @ h.T)
    cols = np.nonzero(mask)[1].reshape(-1, k)
    # cols ascend within each row, so a stable sort by distance keeps index order on ties
    order = np.argsort(np.take_along_axis(d, cols, axis=1), axis=1, kind="stable")
    return list(np.take_along_axis(cols, order, axis=1))


def _union_graph(mask: np.ndarray, weight, **fields) -> NeighborGraph:
    """Union-rule graph over the selection mask; ``weight(rows, cols)`` gives edge weights."""
    rows, cols = np.nonzero(mask | mask.T)
    indptr = np.searchsorted(rows, np.arange(mask.shape[0] + 1))
    return NeighborGraph(
        n=mask.shape[0], indptr=indptr, indices=cols, weights=weight(rows, cols), **fields
    )


def build_gaussian(h, k: int, sigma: float | None = None) -> NeighborGraph:
    """Union-kNN graph with Gaussian kernel weights.

    When ``sigma`` is not given it defaults to the median distance over all
    selected kNN pairs; degenerate data (all points identical) makes that
    heuristic collapse, in which case an explicit sigma is required.
    """
    h = as_matrix(h, "h")
    d, mask = _knn(h, k, h @ h.T)
    if sigma is None:
        sigma = float(np.median(np.sqrt(d[mask])))
        if sigma <= 0.0:
            raise ParameterError(
                "sigma heuristic degenerate (all selected neighbor distances are zero); "
                "pass an explicit sigma"
            )
    elif sigma <= 0.0:
        raise ParameterError("sigma must be positive")
    scale = 2.0 * sigma * sigma
    return _union_graph(
        mask, lambda r, c: np.exp(-d[r, c] / scale), k=k, kernel="gaussian", sigma=float(sigma)
    )


def build_dot(h, k: int) -> NeighborGraph:
    """Union-kNN graph with dot-product weights (may be negative)."""
    h = as_matrix(h, "h")
    gram = h @ h.T
    _, mask = _knn(h, k, gram.copy())
    return _union_graph(
        mask, lambda r, c: (gram[r, c] + gram[c, r]) / 2.0, k=k, kernel="dot", sigma=None
    )


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
