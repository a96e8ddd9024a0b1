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

``reconstruct`` is the whole decoder pass, one view at a time: a view's
ReLU layer and residual f_v(H) - X_v fill one view-sized workspace, its
squared errors join the loss, and its backward pass runs in place over the
same buffers before the next view reuses them. ``reconstruction_loss`` and
``reconstruction_grads`` return what the pass computed. Passing an earlier
``Reconstruction`` back as ``out`` reuses all of its arrays.

Given a step ``scale``, the pass also steps each view's decoder as soon as
that view's backward pass ends, so one gradient workspace sized for the
largest view serves every view in turn. Only the gradient of H, a sum over
all views, is left for the caller to step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import MultiViewDataset
from .errors import ParameterError, ShapeError
from .numerics import as_matrix, descend, make_rng

__all__ = [
    "DecoderParams",
    "init_latent",
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


def init_decoders(f: int, dims, seed: int) -> list:
    """One decoder per view: Glorot-uniform weights, zero biases, hidden width max(2F, d_v)."""
    rng = make_rng(seed)
    decoders = []
    for d_v in dims:
        hidden = max(2 * f, d_v)
        w1, w2 = _glorot(rng, hidden, f), _glorot(rng, d_v, hidden)
        decoders.append(DecoderParams(w1, np.zeros(hidden), w2, np.zeros(d_v)))
    return decoders


@dataclass
class Reconstruction:
    """The loss and gradients of one decoder pass, and its one-view workspace."""

    hid: np.ndarray  # flat, N * max(hidden): a view's ReLU layer, then its pre-activation gradient
    res: np.ndarray  # flat, N * max(d_v): a view's residual f_v(h) - x, then its output gradient
    grad_h: np.ndarray  # (N, F)
    grads: list  # per view, a DecoderParams of gradients; empty after a stepped pass
    # a stepped pass's gradient workspace: a DecoderParams of flat arrays, each
    # sized for the largest view, that holds one view's gradients until its step
    work: DecoderParams | None = None
    loss: float = np.nan
    # the pass the arrays were sized for: whether it steps, the shape of h and
    # the shape of every decoder array
    made_for: tuple = ()


def _view_forward(h, theta: DecoderParams, x, hid, res) -> None:
    """One view's forward pass: its ReLU layer into ``hid``, f_v(h) - x into ``res``."""
    np.matmul(h, theta.w1.T, out=hid)
    hid += theta.b1
    np.maximum(hid, 0.0, out=hid)
    np.matmul(hid, theta.w2.T, out=res)
    res += theta.b2
    res -= x


def _shaped(work: DecoderParams, theta: DecoderParams) -> DecoderParams:
    """The leading part of each flat array of ``work``, shaped like ``theta``'s."""
    return DecoderParams(
        *(w[: p.size].reshape(p.shape) for w, p in zip(vars(work).values(), vars(theta).values()))
    )


def reconstruct(h, params, ds: MultiViewDataset, out: Reconstruction | None = None, scale=None):
    """The whole decoder pass: for each view in turn, its forward pass, its
    squared errors added into the loss, and its backward pass in place over the
    same workspace. Passing an earlier return value as ``out`` reuses its arrays;
    it must come from a pass that was given a ``scale`` too, or neither was, over
    arrays of the same shapes, else ``ShapeError`` is raised before any array is
    written.

    Without ``scale`` the pass keeps every view's decoder gradients. With it,
    each of a view's decoder arrays steps by ``numerics.descend`` at ``scale``
    right after that view's backward pass; a non-finite step raises there,
    after the earlier views' decoders have stepped.
    """
    n = np.shape(h)[0]
    if ds.n_samples != n:
        raise ShapeError(f"dataset has {ds.n_samples} samples, latent has {n}")
    if len(params) != ds.n_views:
        raise ShapeError(f"{len(params)} decoders for {ds.n_views} views")
    h = as_matrix(h, "h")
    for theta in params:
        theta.check_chain(h.shape[1])
    made_for = (scale is not None, h.shape, [p.shape for t in params for p in vars(t).values()])
    if out is None:
        out = Reconstruction(
            np.empty(n * max(theta.w1.shape[0] for theta in params)),
            np.empty(n * max(theta.w2.shape[0] for theta in params)),
            np.empty_like(h),
            [],
            made_for=made_for,
        )
        if scale is None:
            out.grads = [DecoderParams(*map(np.empty_like, vars(t).values())) for t in params]
        else:
            sizes = zip(*([p.size for p in vars(t).values()] for t in params))
            out.work = DecoderParams(*(np.empty(max(s)) for s in sizes))
    elif out.made_for != made_for:
        raise ShapeError("out must come from a pass of the same kind, with a scale or without, "
                         "over a latent matrix and decoders of the same shapes")
    grads = out.grads if scale is None else [_shaped(out.work, theta) for theta in params]
    total, grad_h = np.zeros(n), out.grad_h
    grad_h.fill(0.0)
    for v, (theta, x, grad) in enumerate(zip(params, ds.views, grads, strict=True)):
        hid = out.hid[: n * theta.w1.shape[0]].reshape(n, -1)
        d_out = out.res[: n * theta.w2.shape[0]].reshape(n, -1)
        _view_forward(h, theta, x, hid, d_out)
        total += np.sum(d_out * d_out, axis=1)
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
        if scale is not None:  # every read of this view's weights is done
            for (name, value), g in zip(vars(theta).items(), vars(grad).values()):
                descend(value, g, scale, f"group 'decoders' (decoder{v}.{name})")
    out.loss = float(total.mean())
    return out


def reconstruction_loss(rec: Reconstruction) -> float:
    """Mean over samples of the summed per-view squared errors."""
    return rec.loss


def reconstruction_grads(rec: Reconstruction):
    """Exact gradients of ``reconstruction_loss`` for H and every decoder, at the
    ``h`` and ``params`` that ``rec`` was made from.

    Returns (grad_h, grads), grads[v] a DecoderParams: ``rec``'s own arrays,
    which the next pass given ``rec`` as ``out`` rewrites. After a stepped
    pass, whose decoders have already descended, ``grads`` is empty.
    """
    return rec.grad_h, rec.grads
