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

One decoder forward pass serves both: ``reconstruct`` fills a
``Reconstruction`` with every view's ReLU layer and residual f_v(H) - X_v,
``reconstruction_loss`` reduces the residuals, and ``reconstruction_grads``
runs the backward pass in place over them, into the workspace's gradient
arrays. Passing an earlier ``Reconstruction`` back to ``reconstruct`` as
``out`` reuses all of its arrays, so a loop of forward and backward passes
needs them only once.
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
    "Reconstruction",
    "reconstruct",
    "reconstruction_loss",
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


@dataclass
class Reconstruction:
    """Every view's decoder forward pass at one latent matrix, as ``reconstruct``
    leaves it, and the arrays its backward pass writes. ``reconstruction_loss``
    reads it; ``reconstruction_grads`` spends it, overwriting ``res`` with the
    output gradients and ``hid`` with the pre-activation ones."""

    hid: list  # per view, (N, hidden): the ReLU layer
    res: list  # per view, (N, d_v): the residual f_v(h) - x
    grads: list  # per view, a DecoderParams of gradients
    spent: bool = False


def reconstruct(h, params, ds: MultiViewDataset, out: Reconstruction | None = None):
    """The forward pass of every view's decoder: its ReLU layer and its residual
    f_v(h) - x. Passing an earlier return value as ``out`` reuses its arrays."""
    n = np.shape(h)[0]
    if ds.n_samples != n:
        raise ShapeError(f"dataset has {ds.n_samples} samples, latent has {n}")
    if len(params) != ds.n_views:
        raise ShapeError(f"{len(params)} decoders for {ds.n_views} views")
    h = as_matrix(h, "h")
    for theta in params:
        theta.check_chain(h.shape[1])
    if out is None:
        out = Reconstruction(
            [np.empty((n, theta.w1.shape[0])) for theta in params],
            [np.empty((n, theta.w2.shape[0])) for theta in params],
            [DecoderParams(*map(np.empty_like, vars(theta).values())) for theta in params],
        )
    for theta, x, hid, res in zip(params, ds.views, out.hid, out.res, strict=True):
        np.matmul(h, theta.w1.T, out=hid)
        hid += theta.b1
        np.maximum(hid, 0.0, out=hid)
        np.matmul(hid, theta.w2.T, out=res)
        res += theta.b2
        res -= x
    out.spent = False
    return out


def _unspent(rec: Reconstruction) -> int:
    """The sample count of ``rec``, checked to be unspent."""
    if rec.spent:
        raise ParameterError("reconstruction already spent by its backward pass; reconstruct again")
    return rec.res[0].shape[0]


def reconstruction_loss(rec: Reconstruction) -> float:
    """Mean over samples of the summed per-view squared errors."""
    total = np.zeros(_unspent(rec))
    for res in rec.res:
        total += np.sum(res * res, axis=1)
    return float(total.mean())


def reconstruction_grads(h, params, rec: Reconstruction):
    """Exact gradients of ``reconstruction_loss`` for H and every decoder, at the
    ``h`` and ``params`` that ``rec`` was made from.

    Returns (grad_h, grads) where grads[v] is a DecoderParams of gradients. The
    backward pass runs in place over ``rec``, which it spends; grads are
    ``rec``'s own arrays, and grad_h is a fresh one.
    """
    n = _unspent(rec)
    rec.spent = True
    grad_h = np.zeros_like(h)
    for theta, hid, d_out, grad in zip(params, rec.hid, rec.res, rec.grads, strict=True):
        d_out *= 2.0 / n
        np.matmul(d_out.T, hid, out=grad.w2)
        # after the ReLU, hid > 0 exactly where the pre-activation is
        mask = hid > 0.0
        d_pre = np.matmul(d_out, theta.w2, out=hid)
        d_pre *= mask
        np.matmul(d_pre.T, h, out=grad.w1)
        np.sum(d_pre, axis=0, out=grad.b1)
        np.sum(d_out, axis=0, out=grad.b2)
        grad_h += d_pre @ theta.w1
    return grad_h, rec.grads
