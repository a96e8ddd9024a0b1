"""Common latent representation and per-view reconstruction networks.

The latent matrix H, a plain (N, F) array with one free row per sample, is
optimized directly; each view v is reconstructed from it by a small decoder

    x_hat = relu(H W1^T + b1) W2^T + b2

with one hidden layer of width max(2F, d_v). The reconstruction loss sums
squared errors over views and averages over samples,

    L_r = (1/N) sum_n sum_v ||f_v(h_n) - x_n^(v)||^2,

so its value is comparable across dataset sizes. Gradients are exact
(hand-derived backward pass), which the test suite verifies against
central differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import MultiViewDataset
from .errors import ParameterError, ShapeError
from .numerics import as_matrix, make_rng

__all__ = [
    "DecoderParams",
    "init_latent",
    "init_decoder",
    "init_decoders",
    "decode",
    "reconstruction_loss",
    "per_sample_reconstruction",
    "reconstruction_grads",
]

INIT_HALF_WIDTH = 0.05  # latent entries start i.i.d. uniform on [-0.05, 0.05]


@dataclass
class DecoderParams:
    """One view's reconstruction network: affine, ReLU, affine."""

    w1: np.ndarray  # (hidden, F)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (d_v, hidden)
    b2: np.ndarray  # (d_v,)

    def check_chain(self, f: int) -> None:
        if self.w1.shape[1] != f:
            raise ShapeError(f"decoder expects latent dim {self.w1.shape[1]}, got {f}")
        if self.w1.shape[0] != self.b1.shape[0] or self.w2.shape[1] != self.w1.shape[0]:
            raise ShapeError("decoder layer shapes do not chain")
        if self.w2.shape[0] != self.b2.shape[0]:
            raise ShapeError("decoder output bias does not match output dim")


def init_latent(n: int, f: int, seed: int) -> np.ndarray:
    """The (N, F) latent matrix, entries drawn i.i.d. uniform on [-0.05, 0.05]."""
    if n < 1 or f < 2:
        raise ParameterError(f"need n >= 1 and f >= 2, got n={n}, f={f}")
    rng = make_rng(seed)
    return rng.uniform(-INIT_HALF_WIDTH, INIT_HALF_WIDTH, size=(n, f))


def _glorot(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=(fan_out, fan_in))


def init_decoder(f: int, d_v: int, rng: np.random.Generator) -> DecoderParams:
    """Glorot-uniform weights, zero biases, hidden width max(2F, d_v)."""
    hidden = max(2 * f, d_v)
    return DecoderParams(
        w1=_glorot(rng, hidden, f),
        b1=np.zeros(hidden),
        w2=_glorot(rng, d_v, hidden),
        b2=np.zeros(d_v),
    )


def init_decoders(f: int, dims, seed: int) -> list:
    rng = make_rng(seed)
    return [init_decoder(f, d_v, rng) for d_v in dims]


def decode(theta: DecoderParams, h) -> np.ndarray:
    """Forward pass of one view's decoder."""
    h = as_matrix(h, "h")
    theta.check_chain(h.shape[1])
    hid = h @ theta.w1.T
    hid += theta.b1
    out = np.maximum(hid, 0.0, out=hid) @ theta.w2.T
    out += theta.b2
    return out


def _sample_count(h, params, ds: MultiViewDataset) -> int:
    """The row count of h, checked to be one row per sample and one decoder per view."""
    n = np.shape(h)[0]
    if ds.n_samples != n:
        raise ShapeError(f"dataset has {ds.n_samples} samples, latent has {n}")
    if len(params) != ds.n_views:
        raise ShapeError(f"{len(params)} decoders for {ds.n_views} views")
    return n


def per_sample_reconstruction(h, params, ds: MultiViewDataset) -> np.ndarray:
    """Vector of per-sample reconstruction errors sum_v ||f_v(h_n) - x_n^(v)||^2."""
    n = _sample_count(h, params, ds)
    total = np.zeros(n)
    for theta, x in zip(params, ds.views):
        err = decode(theta, h)
        err -= x
        err *= err
        total += np.sum(err, axis=1)
    return total


def reconstruction_loss(h, params, ds: MultiViewDataset) -> float:
    """Mean over samples of the summed per-view squared errors."""
    return float(per_sample_reconstruction(h, params, ds).mean())


def reconstruction_grads(h, params, ds: MultiViewDataset):
    """Exact gradients of ``reconstruction_loss`` for H and every decoder.

    Returns (grad_h, grads) where grads[v] is a DecoderParams of gradients.
    """
    n = _sample_count(h, params, ds)
    h = as_matrix(h, "h")
    grad_h = np.zeros_like(h)
    grads = []
    for theta, x in zip(params, ds.views):
        theta.check_chain(h.shape[1])
        grad, grad_h_v = _view_grads(theta, h, x, n)
        grads.append(grad)
        grad_h += grad_h_v
    return grad_h, grads


def _view_grads(theta: DecoderParams, h: np.ndarray, x: np.ndarray, n: int):
    """One view's decoder gradients and its share of grad_h. The backward pass
    runs in place, in two (N, hidden) buffers and one (N, d_v) buffer, which
    are freed on return."""
    hid = h @ theta.w1.T
    hid += theta.b1
    mask = hid > 0.0
    np.maximum(hid, 0.0, out=hid)
    d_out = hid @ theta.w2.T
    d_out += theta.b2
    d_out -= x
    d_out *= 2.0 / n
    grad_w2 = d_out.T @ hid
    del hid
    d_pre = d_out @ theta.w2
    d_pre *= mask
    grad = DecoderParams(w1=d_pre.T @ h, b1=d_pre.sum(axis=0), w2=grad_w2, b2=d_out.sum(axis=0))
    return grad, d_pre @ theta.w1
