"""Multi-head graph attention over the neighbor graph, forward and backward.

For head k with linear map W^k (F' x F) and scoring vector a^k (2F'), the
attention of node i over its neighborhood N_i (in training, i is in N_i) is

    alpha_ij = softmax_{j in N_i} LeakyReLU(a^kT [W^k h_i || W^k h_j]),

each head aggregates g_i^k = sum_{j in N_i} alpha_ij^k W^k h_j, and the layer
outputs the sigmoid of the heads' mean, sigma((1/K) sum_k g_i^k): GAT's
output-layer recipe. Every layer is F' wide, so layers chain F' -> F'.
Softmax rows are max-shifted for overflow safety.

Neighborhoods arrive as one CSR pair ``(indptr, indices)`` whose row i lists
N_i as given; an empty row aggregates to zero.

The backward pass is an exact vector-Jacobian product through the sigmoid,
head mean, aggregation, softmax, LeakyReLU, and linear maps; the test suite
checks it against central differences. A layer's cache keeps only what
cannot be rebuilt cheaply: the layer input, the sigmoid's output (its
derivative is a function of it), the adjacency, and ``row_sums``, a (K, N)
array of each head's attention row sums. No per-head array is kept, and no
per-edge array beyond the adjacency's own: the forward pass aggregates each
head as soon as its projection, edge scores and coefficients exist, and the
backward pass rebuilds them, one head at a time, from the cached input by
the same call (``_head_scores``), so bit for bit. The backward pass
therefore reads the layer input and the parameters as they were at the
forward pass. The per-head aggregates and the sigmoid's input are not kept
either.

Attention needs three products over the graph, each weighted by one head's
coefficients: the aggregate sum_j alpha_ij z_j, its transpose, and the
per-edge dots x_i . y_j. One adjacency object per ``stack_forward`` call
provides them in one of two layouts, picked by the node count N:

- N <= ``_DENSE_MAX_N``: a dense (N, N) matrix per product, so that each is
  one BLAS call (``A @ z``, ``A.T @ d``, ``(d @ z.T)[row, col]``). The
  per-edge dots cost N^2 F' instead of E F', which pays only while N is
  small.
- Above it: one scipy CSR matrix and its CSC transpose, whose ``data`` each
  product swaps for the head's coefficients, and per-edge dots gathered
  ``_EDGE_CHUNK`` edges at a time, so that no (E, F') array exists. Only
  this side imports ``scipy.sparse``; a process whose graphs are all small
  never loads scipy.

The switch sits at the measured crossover: in trainings with F' = 64 and
k = 10, forward plus backward took about as long on either side at N = 256,
the dense side was 1.3x faster at N = 150 and the CSR side 1.5x faster at
N = 512. Scores, softmax, head mean and every gradient are the same code
on both sides; the sums inside the products run in a different order, so
the two layouts agree to rounding, not bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .numerics import as_matrix, make_rng

__all__ = [
    "LEAKY_SLOPE",
    "GatParams",
    "init_gat_stack",
    "attention_coeffs",
    "stack_forward",
    "stack_backward",
]

# negative-side slope of the LeakyReLU on attention scores, as in GAT
LEAKY_SLOPE = 0.2
# graphs of at most this many nodes attend through dense (N, N) matrices
_DENSE_MAX_N = 256
# edges per gather in the CSR side's per-edge dot products
_EDGE_CHUNK = 512


@dataclass
class GatParams:
    """Parameters of one attention layer."""

    w: list  # per head: (F', F)
    a: list  # per head: (2 F',)

    def __post_init__(self):
        if not self.w or len(self.w) != len(self.a):
            raise ShapeError("need one scoring vector per head")
        fp, f = self.w[0].shape
        for wk, ak in zip(self.w, self.a):
            if wk.shape != (fp, f):
                raise ShapeError("heads must share the same W shape")
            if ak.shape != (2 * fp,):
                raise ShapeError(f"scoring vector must have length {2 * fp}")

    @property
    def heads(self) -> int:
        return len(self.w)

    @property
    def f_in(self) -> int:
        return self.w[0].shape[1]

    @property
    def f_prime(self) -> int:
        return self.w[0].shape[0]


def init_gat_stack(layers: int, f_in: int, f_prime: int, heads: int, seed: int) -> list:
    """A stack of attention layers, f_in -> F' and then F' -> F'; [] when layers=0.
    A single layer is ``init_gat_stack(1, ...)[0]``.

    One generator draws, layer by layer, every head's W and then every head's a:
    He-uniform head weights (fan-in only) and Glorot-uniform scoring vectors.
    The fan-in rule keeps the post-attention sigmoid inputs at a usable
    contrast; Glorot-width scoring vectors keep the initial attention
    close to uniform.
    """
    rng = make_rng(seed)
    sa = np.sqrt(6.0 / (2 * f_prime + 1))
    stack = []
    for i in range(layers):
        fan_in = f_prime if i else f_in
        sw = np.sqrt(6.0 / fan_in)
        w = [rng.uniform(-sw, sw, size=(f_prime, fan_in)) for _ in range(heads)]
        a = [rng.uniform(-sa, sa, size=2 * f_prime) for _ in range(heads)]
        stack.append(GatParams(w=w, a=a))
    return stack


def _sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _check_neighborhoods(nbhd, n: int):
    """The CSR pair ``(indptr, indices)`` as int64 arrays, checked against n nodes."""
    indptr, indices = (np.asarray(x, dtype=np.int64) for x in nbhd)
    if indptr.ndim != 1 or indptr.shape[0] != n + 1:
        raise ShapeError(f"indptr must have {n + 1} entries for {n} nodes, got {indptr.shape}")
    ends_ok = indptr[0] == 0 and indptr[-1] == indices.size
    if indices.ndim != 1 or not ends_ok or np.any(np.diff(indptr) < 0):
        raise ShapeError(f"indptr must not decrease from 0 to len(indices)={indices.size}")
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise ShapeError(f"neighbor ids must lie in [0, {n})")
    return indptr, indices


class _Adjacency:
    """A neighborhood CSR and the three products attention takes over it, each
    weighted by one head's per-edge ``alpha``: ``aggregate`` gives
    sum_j alpha_ij z_j, ``aggregate_t`` gives sum_i alpha_ij d_i, and
    ``edge_dots`` gives x_i . y_j for every edge (i, j)."""

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        self.indptr, self.indices = indptr, indices
        self.n = indptr.shape[0] - 1
        self.row = np.repeat(np.arange(self.n), np.diff(indptr))  # CSR row id of each edge


class _DenseAdjacency(_Adjacency):
    """One dense (N, N) matrix per product, so that BLAS does the work."""

    def __init__(self, indptr, indices):
        super().__init__(indptr, indices)
        self.code = self.row * self.n + indices

    def _matrix(self, alpha):
        # a row that lists a neighbor twice sums both entries, as a CSR product does
        return np.bincount(self.code, alpha, minlength=self.n * self.n).reshape(self.n, self.n)

    def aggregate(self, alpha, z):
        return self._matrix(alpha) @ z

    def aggregate_t(self, alpha, d):
        return self._matrix(alpha).T @ d

    def edge_dots(self, x, y):
        return (x @ y.T).ravel()[self.code]


class _SparseAdjacency(_Adjacency):
    """One CSR matrix and its CSC transpose; a product swaps in the head's weights."""

    def __init__(self, indptr, indices):
        super().__init__(indptr, indices)
        import scipy.sparse as sp  # only graphs above _DENSE_MAX_N nodes load scipy

        self.csr = sp.csr_matrix((np.zeros(indices.size), indices, indptr), shape=(self.n,) * 2)
        self.csc_t = self.csr.T

    def aggregate(self, alpha, z):
        self.csr.data = alpha
        return self.csr @ z

    def aggregate_t(self, alpha, d):
        self.csc_t.data = alpha
        return self.csc_t @ d

    def edge_dots(self, x, y):
        # ``_EDGE_CHUNK`` edges at a time, so that no (E, F) gather exists
        out = np.empty(self.indices.shape[0])
        for s in range(0, out.shape[0], _EDGE_CHUNK):
            e = slice(s, s + _EDGE_CHUNK)
            xe, ye = np.take(x, self.row[e], axis=0), np.take(y, self.indices[e], axis=0)
            out[e] = np.einsum("ef,ef->e", xe, ye)
        return out


def _adjacency(indptr, indices) -> _Adjacency:
    dense = indptr.shape[0] - 1 <= _DENSE_MAX_N
    return (_DenseAdjacency if dense else _SparseAdjacency)(indptr, indices)


@dataclass(slots=True)
class _LayerCache:
    adj: _Adjacency
    row_sums: np.ndarray  # (K, N): each head's per-node attention row sums
    out: np.ndarray  # the layer's activated output
    h_in: np.ndarray


def _segment_reduce(ufunc, x, indptr) -> np.ndarray:
    """``ufunc`` over each CSR row segment of ``x``; 0 for empty rows, which
    ``reduceat`` would give the next row's first element (or fail past the end)."""
    out = np.zeros(indptr.shape[0] - 1)
    nonempty = indptr[:-1] < indptr[1:]
    out[nonempty] = ufunc.reduceat(x, indptr[:-1][nonempty])
    return out


def _head_scores(params: GatParams, k: int, h, adj: _Adjacency):
    """Head k's projection z = W^k h, its per-edge scores t before the LeakyReLU
    and its coefficients alpha: the forward pass makes them, and the backward
    pass and gradcheck rebuild them from the layer input by this same call."""
    fp = params.f_prime
    row, indptr = adj.row, adj.indptr
    z = h @ params.w[k].T
    t = (z @ params.a[k][:fp])[row] + (z @ params.a[k][fp:])[adj.indices]
    e = np.where(t > 0, t, LEAKY_SLOPE * t)
    ex = np.exp(e - _segment_reduce(np.maximum, e, indptr)[row])
    alpha = ex / _segment_reduce(np.add, ex, indptr)[row]
    return z, t, alpha


def _layer_forward(params: GatParams, h, adj: _Adjacency):
    # each head is aggregated while its projection and coefficients exist; only
    # one head's arrays live at a time
    row_sums = np.empty((params.heads, adj.n))
    pre = np.zeros((h.shape[0], params.f_prime))
    for k in range(params.heads):
        z, _, alpha = _head_scores(params, k, h, adj)
        row_sums[k] = np.bincount(adj.row, alpha, minlength=adj.n)
        pre += adj.aggregate(alpha, z)  # from zero, in head order, as ``sum`` over heads adds
        del z, alpha
    pre /= params.heads
    out = _sigmoid(pre)
    return out, _LayerCache(adj=adj, row_sums=row_sums, out=out, h_in=h)


def _layer_backward(params: GatParams, cache: _LayerCache, upstream):
    h, adj = cache.h_in, cache.adj
    indptr, indices, row = adj.indptr, adj.indices, adj.row
    fp = params.f_prime
    grad_h = np.zeros_like(h)
    grad_w, grad_a = [], []
    # the sigmoid's derivative is out (1 - out); each head's aggregate feeds the mean
    d_agg = upstream * (cache.out * (1.0 - cache.out))
    d_agg /= params.heads
    for k in range(params.heads):
        # the forward pass's projection, scores and coefficients, rebuilt bit for bit
        z, t, alpha = _head_scores(params, k, h, adj)
        d_alpha = adj.edge_dots(d_agg, z)
        dz = adj.aggregate_t(alpha, d_agg)
        # softmax rows: d e_ij = alpha_ij (d alpha_ij - sum_j' alpha_ij' d alpha_ij')
        dot = _segment_reduce(np.add, alpha * d_alpha, indptr)
        d_e = alpha * (d_alpha - dot[row])
        d_t = d_e * np.where(t > 0, 1.0, LEAKY_SLOPE)
        del t, alpha, d_alpha, d_e
        # t_ij = a_src . z_i + a_dst . z_j, so sum d_t over rows and over columns
        row_dt = _segment_reduce(np.add, d_t, indptr)
        col_dt = np.bincount(indices, weights=d_t, minlength=adj.n)
        grad_a.append(np.concatenate([row_dt @ z, col_dt @ z]))
        del z, d_t  # gone before the two outer products of dz
        dz += np.outer(row_dt, params.a[k][:fp])
        dz += np.outer(col_dt, params.a[k][fp:])
        grad_w.append(dz.T @ h)
        grad_h += dz @ params.w[k]
    return GatParams(w=grad_w, a=grad_a), grad_h


def attention_coeffs(params: GatParams, head: int, h, nbhd) -> list:
    """Per-node attention coefficient arrays for one head.

    Entry i is aligned with row i of the ``(indptr, indices)`` pair ``nbhd``
    and sums to 1 unless the row is empty.
    """
    h = as_matrix(h, "h")
    if not 0 <= head < params.heads:
        raise ParameterError(f"head {head} outside [0, {params.heads})")
    indptr, indices = _check_neighborhoods(nbhd, h.shape[0])
    _, _, alpha = _head_scores(params, head, h, _adjacency(indptr, indices))
    return [alpha[indptr[i] : indptr[i + 1]] for i in range(h.shape[0])]


def stack_forward(stack: list, h, nbhd):
    """Forward through a layer stack (one layer is the stack ``[params]``);
    identity for an empty stack.

    Returns (output, caches); caches feed ``stack_backward`` and expose the
    per-layer attention row sums.
    """
    h = as_matrix(h, "h")
    if not stack:
        return h, []
    adj = _adjacency(*_check_neighborhoods(nbhd, h.shape[0]))
    caches = []
    x = h
    for layer in stack:
        if x.shape[1] != layer.f_in:
            raise ShapeError(f"layer expects {layer.f_in} features, got {x.shape[1]}")
        x, cache = _layer_forward(layer, x, adj)
        caches.append(cache)
    return x, caches


def stack_backward(stack: list, caches: list, upstream):
    """Backward through a layer stack; returns (per-layer grads, grad_h).

    ``caches`` come from the ``stack_forward`` call whose output ``upstream``
    is the gradient of. per-layer grads is one ``GatParams`` of gradients per
    layer, in ``stack`` order. For an empty stack the upstream passes through unchanged.
    """
    upstream = as_matrix(upstream, "upstream")
    if len(caches) != len(stack):
        raise ShapeError(f"need one cache per layer: {len(stack)} layers, {len(caches)} caches")
    if not stack:
        return [], upstream
    want = (caches[-1].h_in.shape[0], stack[-1].f_prime)
    if upstream.shape != want:
        raise ShapeError(f"upstream shape {upstream.shape} does not match output {want}")
    grads, g_out = [None] * len(stack), upstream
    for idx in range(len(stack) - 1, -1, -1):
        grads[idx], g_out = _layer_backward(stack[idx], caches[idx], g_out)
    return grads, g_out
