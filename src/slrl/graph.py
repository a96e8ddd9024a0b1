"""Symmetric k-nearest-neighbor graph over the latent representation.

Edges follow the union rule: (i, j) is present iff i is among the k nearest
neighbors of j or vice versa. ``build_graph`` builds every graph. It keeps
each edge's squared length and sigma, the median distance over all selected
kNN pairs; the Gaussian edge weights

    w_ij = exp(-||h_i - h_j||^2 / (2 sigma^2))

are computed when ``weights`` is read. The attention layer consumes only the
edge set, so the weights serve inspection and debugging dumps alone, and a
sigma of zero (say, mostly identical points) is an error only there.

A graph is stored once, as CSR arrays with rows and the ids within each row
in ascending order (no self loops); ``neighborhoods()`` inserts the self
loops attention uses.

Neighbor search is exact and deterministic, and no build holds an N x N
array. It works through blocks of at most ``_ROW_BLOCK`` rows. Row i ranks
the candidates j on the row-shifted score ``sq_j - 2 h_i . h_j``, its squared
distance less the row constant ``sq_i`` (the ranking of FAISS
``IndexFlatL2``, Johnson et al., arXiv:1702.08734). For a block I the scores
are one GEMM against ``-2 h``, an exact scaling, plus ``sq`` added along each
row. ``np.partition`` selects each row's k best; where the k-th score ties
past the k-th place, the smaller indices win. Only the k ids per row and
their scores are kept, so memory is O(N * _ROW_BLOCK), and the squared
distances ``max(score + sq_i, 0)`` are formed for the kept pairs alone.
Every block works in one workspace the build allocates once, which each
block overwrites: one (_ROW_BLOCK, N) slab for the scores, and a
(_PART_ROWS, N) buffer in which copies of ``_PART_ROWS`` score rows at a
time are partitioned to find each row's k-th score. That score is the same
value whichever rows share a partition call, so the buffer's size changes
no edge. Fresh arrays per block would each be returned to the kernel on
free and faulted in again. Rows so large that a squared distance
could overflow are a ``NumericError``: an infinite or nan score would select
a node as its own neighbor.
The union is the sorted set of unique codes ``i * N + j`` over both
directions of every selected pair, which is already the CSR order. Both
directions of an edge take their length from the pair's first selection in
row order, so the adjacency is exactly symmetric. Sigma and the weights come
from the kept distances, with no second distance pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError
from .numerics import as_matrix

__all__ = ["NeighborGraph", "knn_indices", "build_graph", "dump_edges"]

_ROW_BLOCK = 256
# rows of a block partitioned at a time, in a copy, to find their k-th scores
_PART_ROWS = 16
# the largest squared row norm whose squared distances stay finite
_SQ_MAX = np.finfo(np.float64).max / 4.0


@dataclass
class NeighborGraph:
    """Symmetric weighted adjacency in CSR form, rows in ascending id order."""

    n: int
    k: int
    sigma: float  # median distance over all selected kNN pairs
    indptr: np.ndarray  # (n + 1,) int64 row offsets into indices
    indices: np.ndarray  # neighbor ids, ascending within each row, no self
    dist: np.ndarray  # squared edge lengths aligned with indices

    @property
    def weights(self) -> np.ndarray:
        """Gaussian edge weights ``exp(-dist / (2 sigma^2))`` aligned with ``indices``,
        computed on each read; a sigma of zero (say, all points identical) is an error."""
        two_s2 = 2.0 * self.sigma * self.sigma
        if two_s2 <= 0.0:  # a sigma under about 1e-162 squares to 0 too
            raise ParameterError(
                "degenerate neighbor distances: the median selected distance, "
                f"sigma={self.sigma:g}, is zero or squares to zero"
            )
        with np.errstate(over="ignore"):  # far pairs may underflow to weight 0
            return np.exp(-self.dist / two_s2)

    @property
    def nbrs(self) -> list:
        """Per-node neighbor id arrays (views of ``indices``)."""
        return np.split(self.indices, self.indptr[1:-1])

    def neighborhoods(self):
        """CSR (indptr, indices) with each node's own id inserted into its sorted row."""
        # node i goes after those of its neighbors with smaller ids
        row = np.repeat(np.arange(self.n), np.diff(self.indptr))
        pos = self.indptr[:-1] + np.bincount(row[self.indices < row], minlength=self.n)
        indices = np.insert(self.indices, pos, np.arange(self.n))
        return self.indptr + np.arange(self.n + 1), indices


def _block_nearest(h: np.ndarray, m2h: np.ndarray, sq: np.ndarray, start: int, k: int, work):
    """Rows ``start : start + _ROW_BLOCK`` of ``_nearest``, ranked on the scores
    ``sq_j - 2 h_i.h_j`` (``m2h`` is -2 h) in the build's workspace ``work``: a
    (B, N) score slab and a (_PART_ROWS, N) partition buffer, which the next
    block overwrites. Returns the ids and their scores."""
    stop = min(start + _ROW_BLOCK, h.shape[0])
    slab, part = work
    d = slab[: stop - start]
    np.matmul(h[start:stop], m2h.T, out=d)
    d += sq
    np.fill_diagonal(d[:, start:], np.inf)
    # each row's k-th score, from partitioned copies of a few rows at a time
    kth = np.empty((d.shape[0], 1))
    for r in range(0, d.shape[0], _PART_ROWS):
        p = part[: min(_PART_ROWS, d.shape[0] - r)]
        np.copyto(p, d[r : r + p.shape[0]])
        p.partition(k - 1, axis=1)
        kth[r : r + p.shape[0], 0] = p[:, k - 1]
    sel = d <= kth
    # rows where the k-th score ties past the k-th place keep the smaller ids
    for i in np.flatnonzero(np.count_nonzero(sel, axis=1) > k):
        ties = np.flatnonzero(d[i] == kth[i])
        sel[i, ties[k - np.count_nonzero(d[i] < kth[i]) :]] = False
    ids = np.flatnonzero(sel).reshape(-1, k) % sel.shape[1]
    return ids, np.take_along_axis(d, ids, axis=1)


def _nearest(h: np.ndarray, k: int):
    """Each row's k nearest other rows, the smaller id winning a tie: ids (N, k),
    ascending within a row, and their squared distances (N, k)."""
    n = h.shape[0]
    if not 1 <= k <= n - 1:
        raise ParameterError(f"k={k} outside [1, {n - 1}]")
    sq = np.sum(h * h, axis=1)
    # no score exceeds 3 max(sq) in size, and no distance 4 max(sq)
    if not sq.max() <= _SQ_MAX:
        raise NumericError("h is too large: its squared distances overflow")
    # one workspace for every block: the scores and a buffer to partition copies in
    work = np.empty((min(_ROW_BLOCK, n), n)), np.empty((min(_PART_ROWS, n), n))
    m2h = -2.0 * h
    blocks = [_block_nearest(h, m2h, sq, s, k, work) for s in range(0, n, _ROW_BLOCK)]
    ids, dist = (np.concatenate(parts) for parts in zip(*blocks))
    dist += sq[:, None]
    return ids, np.maximum(dist, 0.0, out=dist)


def _union(ids: np.ndarray, dist: np.ndarray, sigma: float) -> NeighborGraph:
    """Union-rule graph over the selections ``ids`` (N, k); an edge's length is
    ``dist`` at the first selection of its pair in row order."""
    n, k = ids.shape
    rows = np.repeat(np.arange(n), k)
    cols = ids.ravel()
    # both directions of each selection, side by side: a unique code's first
    # occurrence is then the first selection of its pair, for either direction
    codes = np.column_stack([rows * n + cols, cols * n + rows]).ravel()
    codes, first = np.unique(codes, return_index=True)
    rows, indices = np.divmod(codes, n)
    indptr = np.searchsorted(rows, np.arange(n + 1))
    dist = dist.ravel()[first // 2]
    return NeighborGraph(n=n, k=k, sigma=sigma, indptr=indptr, indices=indices, dist=dist)


def knn_indices(h, k: int) -> list:
    """For each node, the k nearest other nodes by Euclidean distance.

    Ties are broken toward the smaller index. Returns a list of int64 arrays
    in ascending-distance order.
    """
    ids, dist = _nearest(as_matrix(h, "h"), k)
    # ids ascend within each row, so a stable sort by distance keeps index order on ties
    order = np.argsort(dist, axis=1, kind="stable")
    return list(np.take_along_axis(ids, order, axis=1))


def build_graph(h, k: int) -> NeighborGraph:
    """Union-kNN graph over the rows of h, whose Gaussian edge weights take sigma
    at the median distance over all selected kNN pairs."""
    ids, dist = _nearest(as_matrix(h, "h"), k)
    return _union(ids, dist, sigma=float(np.median(np.sqrt(dist))))


def dump_edges(g: NeighborGraph) -> str:
    """Text dump, one ``i j weight`` line per undirected edge with i < j; it raises
    where reading ``g.weights`` does."""
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    upper = rows < g.indices
    edges = zip(rows[upper].tolist(), g.indices[upper].tolist(), g.weights[upper].tolist())
    return "".join(f"{i} {j} {w:.17g}\n" for i, j, w in edges)
