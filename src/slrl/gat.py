"""Multi-head graph attention over the neighbor graph, forward and backward.

For head k with linear map W^k (F' x F) and scoring vector a^k (2F'), the
attention of node i over its neighborhood N_i (in training, i is in N_i) is

    alpha_ij = softmax_{j in N_i} LeakyReLU(a^kT [W^k h_i || W^k h_j]),

each head aggregates g_i^k = sum_{j in N_i} alpha_ij^k W^k h_j, and heads
combine either by averaging pre-activations (output dim F', activation
applied after the average) or by concatenating activated head outputs
(output dim K F'). Softmax rows are max-shifted for overflow safety.

Neighborhoods arrive as one CSR pair ``(indptr, indices)`` whose row i lists
N_i as given; an empty row aggregates to zero.

The backward pass is an exact vector-Jacobian product through the
activation, aggregation, softmax, LeakyReLU, and linear maps; the test
suite checks it against central differences. Its per-edge dot products
gather ``_EDGE_CHUNK`` edges at a time, so it holds no (E, F') array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError, ShapeError
from .numerics import as_matrix, make_rng

__all__ = [
    "LEAKY_SLOPE",
    "GatParams",
    "init_gat",
    "init_gat_stack",
    "attention_coeffs",
    "gat_forward",
    "gat_backward",
    "stack_forward",
    "stack_backward",
]

# negative-side slope of the LeakyReLU on attention scores, as in GAT
LEAKY_SLOPE = 0.2
# edges per gather in the backward pass's per-edge dot products
_EDGE_CHUNK = 4096


@dataclass
class GatParams:
    """Parameters of one attention layer."""

    w: list  # per head: (F', F)
    a: list  # per head: (2 F',)
    activation: str = "sigmoid"  # "sigmoid" | "elu"
    combine: str = "average"  # "average" | "concat"

    def __post_init__(self):
        if not self.w or len(self.w) != len(self.a):
            raise ShapeError("need one scoring vector per head")
        fp, f = self.w[0].shape
        for wk, ak in zip(self.w, self.a):
            if wk.shape != (fp, f):
                raise ShapeError("heads must share the same W shape")
            if ak.shape != (2 * fp,):
                raise ShapeError(f"scoring vector must have length {2 * fp}")
        if self.activation not in ("sigmoid", "elu"):
            raise ParameterError(f"unknown activation {self.activation!r}")
        if self.combine not in ("average", "concat"):
            raise ParameterError(f"unknown combine mode {self.combine!r}")

    @property
    def heads(self) -> int:
        return len(self.w)

    @property
    def f_in(self) -> int:
        return self.w[0].shape[1]

    @property
    def f_prime(self) -> int:
        return self.w[0].shape[0]

    @property
    def f_out(self) -> int:
        return self.f_prime if self.combine == "average" else self.heads * self.f_prime


def init_gat(
    f_in: int,
    f_prime: int,
    heads: int,
    rng: np.random.Generator,
    activation: str = "sigmoid",
    combine: str = "average",
) -> GatParams:
    """He-uniform head weights (fan-in only) and Glorot-uniform scoring vectors.

    The fan-in rule keeps the post-attention sigmoid inputs at a usable
    contrast; Glorot-width scoring vectors keep the initial attention
    close to uniform.
    """
    sw = np.sqrt(6.0 / f_in)
    sa = np.sqrt(6.0 / (2 * f_prime + 1))
    return GatParams(
        w=[rng.uniform(-sw, sw, size=(f_prime, f_in)) for _ in range(heads)],
        a=[rng.uniform(-sa, sa, size=2 * f_prime) for _ in range(heads)],
        activation=activation,
        combine=combine,
    )


def init_gat_stack(
    layers: int,
    f_in: int,
    f_prime: int,
    heads: int,
    seed: int,
    activation: str = "sigmoid",
    combine: str = "average",
) -> list:
    """A stack of attention layers with chained dimensions; [] when layers=0."""
    rng = make_rng(seed)
    stack = []
    dim = f_in
    for _ in range(layers):
        layer = init_gat(dim, f_prime, heads, rng, activation, combine)
        stack.append(layer)
        dim = layer.f_out
    return stack


def _activate(params: GatParams, x: np.ndarray) -> np.ndarray:
    if params.activation == "sigmoid":
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out
    return np.where(x > 0, x, np.exp(np.minimum(x, 0.0)) - 1.0)


def _activate_deriv(params: GatParams, x: np.ndarray) -> np.ndarray:
    if params.activation == "sigmoid":
        s = _activate(params, x)
        return s * (1.0 - s)
    return np.where(x > 0, 1.0, np.exp(np.minimum(x, 0.0)))


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


@dataclass(slots=True)
class _HeadCache:
    z: np.ndarray
    t: np.ndarray
    alpha: np.ndarray
    agg: np.ndarray


@dataclass(slots=True)
class _LayerCache:
    indptr: np.ndarray
    indices: np.ndarray
    row: np.ndarray  # CSR row id of each edge
    heads: list
    pre_combine: np.ndarray | None
    h_in: np.ndarray

    def alpha_row_sums(self) -> np.ndarray:
        """Per-head per-node attention row sums (should all be 1)."""
        n = self.indptr.shape[0] - 1
        return np.array([np.bincount(self.row, head.alpha, minlength=n) for head in self.heads])


def _segment_reduce(ufunc, x, indptr) -> np.ndarray:
    """``ufunc`` over each CSR row segment of ``x``; 0 for empty rows, which
    ``reduceat`` would give the next row's first element (or fail past the end)."""
    out = np.zeros(indptr.shape[0] - 1)
    nonempty = indptr[:-1] < indptr[1:]
    out[nonempty] = ufunc.reduceat(x, indptr[:-1][nonempty])
    return out


def _edge_dots(x, y, row, indices) -> np.ndarray:
    """x[row[e]] . y[indices[e]] for every edge e, gathered ``_EDGE_CHUNK`` edges
    at a time so that no (E, F) gather exists."""
    out = np.empty(indices.shape[0])
    for s in range(0, out.shape[0], _EDGE_CHUNK):
        e = slice(s, s + _EDGE_CHUNK)
        out[e] = np.einsum("ef,ef->e", x[row[e]], y[indices[e]])
    return out


def _head_forward(params: GatParams, k: int, h, indptr, indices, row):
    fp = params.f_prime
    z = h @ params.w[k].T
    t = (z @ params.a[k][:fp])[row] + (z @ params.a[k][fp:])[indices]
    e = np.where(t > 0, t, LEAKY_SLOPE * t)
    ex = np.exp(e - _segment_reduce(np.maximum, e, indptr)[row])
    alpha = ex / _segment_reduce(np.add, ex, indptr)[row]
    agg = sp.csr_matrix((alpha, indices, indptr), shape=(h.shape[0],) * 2) @ z
    return _HeadCache(z=z, t=t, alpha=alpha, agg=agg)


def _layer_forward(params: GatParams, h, indptr, indices):
    row = np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))
    heads = [_head_forward(params, k, h, indptr, indices, row) for k in range(params.heads)]
    if params.combine == "average":
        pre = sum(hc.agg for hc in heads) / params.heads
        out = _activate(params, pre)
    else:
        pre = None
        out = np.concatenate([_activate(params, hc.agg) for hc in heads], axis=1)
    cache = _LayerCache(indptr=indptr, indices=indices, row=row, heads=heads, pre_combine=pre, h_in=h)
    return out, cache


def _layer_backward(params: GatParams, cache: _LayerCache, upstream):
    h = cache.h_in
    indptr, indices, row = cache.indptr, cache.indices, cache.row
    n = h.shape[0]
    fp = params.f_prime
    grad_h = np.zeros_like(h)
    grad_w, grad_a = [], []
    if params.combine == "average":
        d_pre = upstream * _activate_deriv(params, cache.pre_combine)
    for k, hc in enumerate(cache.heads):
        if params.combine == "average":
            d_agg = d_pre / params.heads
        else:
            u_k = upstream[:, k * fp : (k + 1) * fp]
            d_agg = u_k * _activate_deriv(params, hc.agg)
        d_alpha = _edge_dots(d_agg, hc.z, row, indices)
        dz = sp.csr_matrix((hc.alpha, indices, indptr), shape=(n, n)).T @ d_agg
        # softmax rows: d e_ij = alpha_ij (d alpha_ij - sum_j' alpha_ij' d alpha_ij')
        dot = _segment_reduce(np.add, hc.alpha * d_alpha, indptr)
        d_e = hc.alpha * (d_alpha - dot[row])
        d_t = d_e * np.where(hc.t > 0, 1.0, LEAKY_SLOPE)
        # t_ij = a_src . z_i + a_dst . z_j, so sum d_t over rows and over columns
        row_dt = _segment_reduce(np.add, d_t, indptr)
        col_dt = np.bincount(indices, weights=d_t, minlength=n)
        dz += np.outer(row_dt, params.a[k][:fp])
        dz += np.outer(col_dt, params.a[k][fp:])
        grad_a.append(np.concatenate([row_dt @ hc.z, col_dt @ hc.z]))
        grad_w.append(dz.T @ h)
        grad_h += dz @ params.w[k]
    return grad_w, grad_a, grad_h


def attention_coeffs(params: GatParams, head: int, h, nbhd) -> list:
    """Per-node attention coefficient arrays for one head.

    Entry i is aligned with row i of the ``(indptr, indices)`` pair ``nbhd``
    and sums to 1 unless the row is empty.
    """
    h = as_matrix(h, "h")
    if not 0 <= head < params.heads:
        raise ParameterError(f"head {head} outside [0, {params.heads})")
    indptr, indices = _check_neighborhoods(nbhd, h.shape[0])
    row = np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))
    hc = _head_forward(params, head, h, indptr, indices, row)
    return [hc.alpha[indptr[i] : indptr[i + 1]] for i in range(h.shape[0])]


def gat_forward(params: GatParams, h, nbhd) -> np.ndarray:
    """Structured representation: one attention layer applied to h."""
    h = as_matrix(h, "h")
    if h.shape[1] != params.f_in:
        raise ShapeError(f"layer expects {params.f_in} features, got {h.shape[1]}")
    indptr, indices = _check_neighborhoods(nbhd, h.shape[0])
    out, _ = _layer_forward(params, h, indptr, indices)
    return out


def gat_backward(params: GatParams, h, nbhd, upstream):
    """Gradients of sum(upstream * gat_forward(...)) for W^k, a^k, and h.

    Returns (grad_w, grad_a, grad_h) with grad_w/grad_a as per-head lists.
    """
    h = as_matrix(h, "h")
    upstream = as_matrix(upstream, "upstream")
    indptr, indices = _check_neighborhoods(nbhd, h.shape[0])
    out, cache = _layer_forward(params, h, indptr, indices)
    if upstream.shape != out.shape:
        raise ShapeError(f"upstream shape {upstream.shape} does not match output {out.shape}")
    return _layer_backward(params, cache, upstream)


def stack_forward(stack: list, h, nbhd):
    """Forward through a layer stack; identity for an empty stack.

    Returns (output, caches); caches feed ``stack_backward`` and expose the
    per-layer attention row sums.
    """
    h = as_matrix(h, "h")
    if not stack:
        return h, []
    indptr, indices = _check_neighborhoods(nbhd, h.shape[0])
    caches = []
    x = h
    for layer in stack:
        if x.shape[1] != layer.f_in:
            raise ShapeError(f"layer expects {layer.f_in} features, got {x.shape[1]}")
        x, cache = _layer_forward(layer, x, indptr, indices)
        caches.append(cache)
    return x, caches


def stack_backward(stack: list, caches: list, upstream):
    """Backward through a layer stack; returns (per-layer grads, grad_h).

    per-layer grads is a list of (grad_w, grad_a) matching ``stack`` order.
    For an empty stack the upstream passes through unchanged.
    """
    if not stack:
        return [], np.asarray(upstream, dtype=np.float64)
    grads = [None] * len(stack)
    g_out = upstream
    for idx in range(len(stack) - 1, -1, -1):
        grad_w, grad_a, g_out = _layer_backward(stack[idx], caches[idx], g_out)
        grads[idx] = (grad_w, grad_a)
    return grads, g_out
