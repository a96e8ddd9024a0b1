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

Every head attends over the same edges, so the layer works on all K heads at
once. With b_src^k = W^kT a_src^k and b_dst^k = W^kT a_dst^k, the scores are
one (E, K) array h_i . b_src^k + h_j . b_dst^k, from two (N, K) products and
no projection W^k h, and the aggregate is reassociated as sum_k (A^k h) W^kT,
where A^k holds head k's coefficients.

The backward pass is an exact vector-Jacobian product through the sigmoid,
head mean, aggregation, softmax, LeakyReLU, and linear maps; the test suite
checks it against central differences. With d the gradient at the heads'
aggregates, edge (i, j) gets (d_i W^k) . h_j, and C^k = A^kT d feeds both
the W^k gradient (C^kT h) and the input gradient (C^k W^k); the scoring
vectors' terms are rank one, from (N, K) products. A layer's cache keeps
only the layer input, the sigmoid's output (its derivative is a function of
it), the adjacency, and ``row_sums``, a (K, N) array of each head's
attention row sums. The backward pass rebuilds scores and coefficients from
the cached input by the forward pass's own calls, so bit for bit; it
therefore reads the layer input and the parameters as they were at the
forward pass.

The aggregate, the per-edge dots and the transposed aggregates A^kT d run
over padded-ELL pieces: rows grouped by degree up a ladder of widths
``_WIDTH_STEP`` apart and cut into pieces of about ``_PIECE_SLOTS`` edge slots,
whose pad slots point at a zero coefficient. Each piece gathers h (or d) once
for every head and writes its rows of the result, so no (E, F') array exists.
The column pieces of A^kT d come from one stable argsort of ``indices``, cut
within blocks of ``_NODE_BLOCK`` consecutive nodes: the backward pass builds
C^k = A^kT d a block at a time, adds its C^kT h into W's gradient and writes
its C^k W^k into the block's rows of the input gradient, so neither pass holds
an (N, K, F) array. Splitting a product's rows keeps its bits, so only W's
gradient, a sum over blocks, rounds differently when there are several. Every
piece and block holds at least two rows, since numpy runs a one-row product as
matrix-vector, which rounds differently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError, ShapeError
from .numerics import as_int, as_ints, as_matrix, make_rng

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
# edge slots (rows x width) per ELL piece, and the ratio of consecutive widths
_PIECE_SLOTS = 512
_WIDTH_STEP = 1.25
# nodes per block of the backward pass's transposed aggregates A^kT d
_NODE_BLOCK = 256


@dataclass
class GatParams:
    """Parameters of one attention layer, every head's stacked on the first axis."""

    w: np.ndarray  # (K, F', F): head k's linear map is w[k]
    a: np.ndarray  # (K, 2 F'): head k's scoring vector is a[k]

    def __post_init__(self):
        try:  # per-head lists stack here; ragged ones cannot
            self.w, self.a = (np.asarray(x, dtype=np.float64) for x in (self.w, self.a))
        except ValueError:
            raise ShapeError("the heads of a layer must share their shapes") from None
        if self.w.ndim != 3 or not self.heads or self.a.shape != (self.heads, 2 * self.f_prime):
            got = f"w {self.w.shape} and a {self.a.shape}"
            raise ShapeError(f"need w (K, F', F) and a (K, 2F') for K >= 1 heads, got {got}")

    @property
    def heads(self) -> int:
        return self.w.shape[0]

    @property
    def f_in(self) -> int:
        return self.w.shape[2]

    @property
    def f_prime(self) -> int:
        return self.w.shape[1]


def init_gat_stack(layers: int, f_in: int, f_prime: int, heads: int, seed: int) -> list:
    """A stack of attention layers, f_in -> F' and then F' -> F'; [] when layers=0.
    A single layer is ``init_gat_stack(1, ...)[0]``.

    One generator draws, layer by layer, every head's W and then every head's a:
    He-uniform head weights (fan-in only) and Glorot-uniform scoring vectors.
    The fan-in rule keeps the post-attention sigmoid inputs at a usable
    contrast; Glorot-width scoring vectors keep the initial attention
    close to uniform.
    """
    layers, heads = as_int(layers, "layers", least=0), as_int(heads, "heads", least=1)
    f_in, f_prime = as_int(f_in, "f_in", least=1), as_int(f_prime, "f_prime", least=1)
    rng = make_rng(seed)
    sa = np.sqrt(6.0 / (2 * f_prime + 1))
    stack = []
    for i in range(layers):
        fan_in = f_prime if i else f_in
        sw = np.sqrt(6.0 / fan_in)
        w = rng.uniform(-sw, sw, size=(heads, f_prime, fan_in))
        stack.append(GatParams(w=w, a=rng.uniform(-sa, sa, size=(heads, 2 * f_prime))))
    return stack


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function of ``x``, which it overwrites with e = exp(-|x|): the
    result is 1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere."""
    upper = x >= 0
    e = np.abs(x, out=x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(upper, 1.0, e)
    out /= 1.0 + e
    return out


def _spans(n: int, size: int) -> list:
    """``(start, stop)`` of consecutive runs of ``size`` from range(n), the last
    taking a one-item remainder, so that no run of a longer range has one item:
    numpy runs a one-row product as matrix-vector, which rounds differently."""
    cuts = list(range(size, n - 1, size))
    return list(zip([0] + cuts, cuts + [n]))


def _width_ladder(top: int) -> list:
    """ELL row widths from 1 up to at least ``top``, each ``_WIDTH_STEP`` times the last."""
    widths = [1]
    while widths[-1] < top:
        widths.append(int(np.ceil(widths[-1] * _WIDTH_STEP)))
    return widths


def _pieces(ptr, edges, ids) -> list:
    """ELL pieces of the segments ``ptr`` cuts from ``edges`` (edge positions) and
    ``ids`` (neighbor ids): ``(nodes, slots, nbrs)`` per piece, where row r of the
    (rows, width) arrays ``slots`` and ``nbrs`` lists segment ``nodes[r]``. Pad
    slots hold ``len(edges)``, the zero row that ``_coefficients`` appends, and
    neighbor 0. Empty segments are in no piece."""
    deg = np.diff(ptr)
    pieces, lower = [], 0
    for width in _width_ladder(int(deg.max(initial=0))):
        nodes = np.flatnonzero((deg > lower) & (deg <= width))
        lower = width
        if not nodes.size:
            continue
        pos = ptr[nodes, None] + np.arange(width)
        pad = pos >= ptr[nodes + 1, None]
        pos[pad] = 0
        slots = np.where(pad, edges.shape[0], edges[pos])
        nbrs = np.where(pad, 0, ids[pos])
        # at least two rows per piece: a row takes numpy's one-row
        # (matrix-vector) path only when alone at its width, whatever the piece size
        for s, e in _spans(nodes.size, max(2, _PIECE_SLOTS // width)):
            pieces.append((nodes[s:e], slots[s:e], nbrs[s:e]))
    return pieces


class _Adjacency:
    """A neighborhood CSR and the three products attention takes over it, for
    every head k at once from the (E + 1, K) coefficients ``alpha`` of
    ``_coefficients``: ``aggregate`` gives sum_k (A^k h) W^kT, ``edge_dots``
    gives the (E, K) dots (d_i W^k) . h_j of every edge (i, j), and
    ``aggregate_t`` gives, from C^k = A^kT d, W's gradient part C^kT h and the
    input gradient's part sum_k C^k W^k. They run over ELL pieces over rows
    (``rows``) and over columns (``col_blocks``, cut within each node block;
    ``cols`` lists them flat), each built on first use. The CSR pair ``nbhd``
    is kept as int64 arrays, checked against n nodes."""

    def __init__(self, nbhd, n: int):
        indptr, indices = (as_ints(x, "neighborhood CSR entries") for x in nbhd)
        if indptr.ndim != 1 or indptr.shape[0] != n + 1:
            raise ShapeError(f"indptr must have {n + 1} entries for {n} nodes, got {indptr.shape}")
        ends_ok = indptr[0] == 0 and indptr[-1] == indices.size
        if indices.ndim != 1 or not ends_ok or np.any(np.diff(indptr) < 0):
            raise ShapeError(f"indptr must not decrease from 0 to len(indices)={indices.size}")
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise ShapeError(f"neighbor ids must lie in [0, {n})")
        self.indptr, self.indices, self.n = indptr, indices, n
        self.row = np.repeat(np.arange(n), np.diff(indptr))  # CSR row id of each edge

    @cached_property
    def rows(self) -> list:
        return _pieces(self.indptr, np.arange(self.indices.shape[0]), self.indices)

    @cached_property
    def col_blocks(self) -> list:
        # (start, stop, pieces) per node block, the pieces' node ids counted from
        # start; the edges in column order make column j's a segment like a row's
        order = np.argsort(self.indices, kind="stable")
        ptr = np.concatenate([[0], np.cumsum(np.bincount(self.indices, minlength=self.n))])
        nbrs = self.row[order]
        spans = _spans(self.n, _NODE_BLOCK)
        return [(s, e, _pieces(ptr[s : e + 1], order, nbrs)) for s, e in spans]

    @property
    def cols(self) -> list:  # every column piece, with absolute node ids
        return [(nodes + s, *rest) for s, _, pieces in self.col_blocks for nodes, *rest in pieces]

    def aggregate(self, alpha, h, w):
        w_cat = w.transpose(0, 2, 1).reshape(-1, w.shape[1])  # W^kT stacked: (K F, F')
        out = np.zeros((self.n, w.shape[1]))
        for nodes, slots, nbrs in self.rows:
            coef = np.take(alpha, slots, axis=0).transpose(0, 2, 1)
            agg = coef @ np.take(h, nbrs, axis=0)  # (rows, K, F)
            out[nodes] = agg.reshape(nodes.shape[0], -1) @ w_cat
        return out

    def edge_dots(self, d, h, w):
        w_rows = w.transpose(1, 0, 2).reshape(w.shape[1], -1)  # (F', K F): d_i W^k side by side
        out = np.empty((self.indices.shape[0] + 1, w.shape[0]))  # the last row takes pads
        for nodes, slots, nbrs in self.rows:
            dw = (np.take(d, nodes, axis=0) @ w_rows).reshape(nodes.shape[0], w.shape[0], -1)
            out[slots] = np.take(h, nbrs, axis=0) @ dw.transpose(0, 2, 1)
        return out[:-1]

    def aggregate_t(self, alpha, d, h, w):
        heads, fp, f = w.shape
        w_flat = w.reshape(heads * fp, f)  # W^k stacked: (K F', F)
        grad_w, grad_h = np.zeros((heads * fp, f)), np.zeros((self.n, f))
        for start, stop, pieces in self.col_blocks:
            c = np.zeros((stop - start, heads, fp))
            for nodes, slots, nbrs in pieces:
                coef = np.take(alpha, slots, axis=0).transpose(0, 2, 1)
                c[nodes] = coef @ np.take(d, nbrs, axis=0)  # (rows, K, F')
            c = c.reshape(stop - start, heads * fp)  # A^kT d, heads side by side
            grad_w += c.T @ h[start:stop]
            grad_h[start:stop] = c @ w_flat
        return grad_w.reshape(w.shape), grad_h


@dataclass(slots=True)
class _LayerCache:
    adj: _Adjacency
    row_sums: np.ndarray  # (K, N): each head's per-node attention row sums
    out: np.ndarray  # the layer's activated output
    h_in: np.ndarray


def _segment_reduce(ufunc, x, indptr) -> np.ndarray:
    """``ufunc`` over each CSR row segment of the (E, K) array ``x``: (N, K), 0 for
    empty rows, which ``reduceat`` would give the next row's first element (or
    fail past the end)."""
    out = np.zeros((indptr.shape[0] - 1, x.shape[1]))
    nonempty = indptr[:-1] < indptr[1:]
    out[nonempty] = ufunc.reduceat(x, indptr[:-1][nonempty], axis=0)
    return out


def _score_vectors(w, a):
    """(F, K) matrices whose column k is W^kT a_src^k, and W^kT a_dst^k, from the
    heads' weights w (K, F', F) and scoring vectors a (K, 2F') stacked."""
    fp = w.shape[1]
    return np.einsum("kpf,kp->fk", w, a[:, :fp]), np.einsum("kpf,kp->fk", w, a[:, fp:])


def _scores(params: GatParams, h, adj: _Adjacency):
    """Every head's per-edge scores before the LeakyReLU, (E, K): the forward pass
    makes them, and the backward pass and gradcheck rebuild them from the layer
    input by this same call."""
    src, dst = _score_vectors(params.w, params.a)
    t = np.take(h @ src, adj.row, axis=0)
    t += np.take(h @ dst, adj.indices, axis=0)
    return t


def _coefficients(t, adj: _Adjacency):
    """Every head's attention coefficients from the scores ``t``, (E + 1, K): the
    last row is zero, the coefficient of every ELL pad slot."""
    alpha = np.empty((t.shape[0] + 1, t.shape[1]))
    alpha[-1] = 0.0
    e = alpha[:-1]
    np.multiply(t, LEAKY_SLOPE, out=e)
    np.maximum(e, t, out=e)  # the LeakyReLU, as the slope is below 1
    e -= np.take(_segment_reduce(np.maximum, e, adj.indptr), adj.row, axis=0)
    np.exp(e, out=e)
    e /= np.take(_segment_reduce(np.add, e, adj.indptr), adj.row, axis=0)
    return alpha


def _layer_forward(params: GatParams, h, adj: _Adjacency):
    alpha = _coefficients(_scores(params, h, adj), adj)
    row_sums = _segment_reduce(np.add, alpha[:-1], adj.indptr).T
    pre = adj.aggregate(alpha, h, params.w)
    del alpha
    pre /= params.heads
    out = _sigmoid(pre)  # overwrites pre
    return out, _LayerCache(adj=adj, row_sums=row_sums, out=out, h_in=h)


def _layer_backward(params: GatParams, cache: _LayerCache, upstream):
    h, adj = cache.h_in, cache.adj
    heads, fp = params.heads, params.f_prime
    w, a = params.w, params.a
    # the sigmoid's derivative is out (1 - out); each head's aggregate feeds the mean
    d_agg = upstream * (cache.out * (1.0 - cache.out))
    d_agg /= heads
    # the forward pass's scores and coefficients, rebuilt bit for bit
    t = _scores(params, h, adj)
    alpha = _coefficients(t, adj)
    neg = t <= 0  # where the LeakyReLU takes its slope
    del t
    d_alpha = adj.edge_dots(d_agg, h, w)
    # softmax rows: d e_ij = alpha_ij (d alpha_ij - sum_j' alpha_ij' d alpha_ij')
    dot = _segment_reduce(np.add, alpha[:-1] * d_alpha, adj.indptr)
    d_t = d_alpha
    d_t -= np.take(dot, adj.row, axis=0)
    d_t *= alpha[:-1]
    d_t *= np.where(neg, LEAKY_SLOPE, 1.0)
    del neg, dot
    # t_ij = h_i . src_k + h_j . dst_k: sum d_t over rows and over columns
    row_dt = _segment_reduce(np.add, d_t, adj.indptr)
    code = (adj.indices[:, None] * heads + np.arange(heads)).ravel()
    col_dt = np.bincount(code, d_t.ravel(), minlength=adj.n * heads).reshape(adj.n, heads)
    del code, d_t, d_alpha
    grad_w, grad_h = adj.aggregate_t(alpha, d_agg, h, w)
    del alpha
    # src_k = W^kT a_src^k and dst_k = W^kT a_dst^k, whose gradients are (K, F)
    src, dst = _score_vectors(w, a)
    g_src, g_dst = row_dt.T @ h, col_dt.T @ h
    grad_w += a[:, :fp, None] * g_src[:, None, :]
    grad_w += a[:, fp:, None] * g_dst[:, None, :]
    grad_a = np.concatenate([w @ g_src[..., None], w @ g_dst[..., None]], axis=1)[..., 0]
    grad_h += row_dt @ src.T
    grad_h += col_dt @ dst.T
    return GatParams(w=grad_w, a=grad_a), grad_h


def attention_coeffs(params: GatParams, head: int, h, nbhd) -> list:
    """Per-node attention coefficient arrays for one head.

    Entry i is aligned with row i of the ``(indptr, indices)`` pair ``nbhd``
    and sums to 1 unless the row is empty.
    """
    h, head = as_matrix(h, "h"), as_int(head, "head")
    if not 0 <= head < params.heads:
        raise ParameterError(f"head {head} outside [0, {params.heads})")
    adj = _Adjacency(nbhd, h.shape[0])  # scores build no pieces
    alpha = _coefficients(_scores(params, h, adj), adj)[:-1, head]
    return [alpha[s:e] for s, e in zip(adj.indptr[:-1], adj.indptr[1:])]


def stack_forward(stack: list, h, nbhd):
    """Forward through a layer stack (one layer is the stack ``[params]``);
    identity for an empty stack.

    Returns (output, caches); caches feed ``stack_backward`` and expose the
    per-layer attention row sums.
    """
    h = as_matrix(h, "h")
    if not stack:
        return h, []
    adj = _Adjacency(nbhd, h.shape[0])
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
