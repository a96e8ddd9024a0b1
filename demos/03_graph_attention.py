#!/usr/bin/env python3
"""Multi-head graph attention, forward and backward.

Builds a small graph, inspects the attention rows (they always sum to 1),
runs the layer in both combine modes, and verifies the hand-derived
backward pass against central differences.
"""

import numpy as np

from slrl import build_gaussian, gat_backward, gat_forward, init_gat
from slrl.gat import attention_coeffs
from slrl.numerics import finite_diff_grad, make_rng, relative_error

rng = make_rng(3)
h = rng.normal(size=(7, 4))
nbhd = build_gaussian(h, k=2, sigma=1.0).neighborhoods()  # CSR rows with self loops

params = init_gat(f_in=4, f_prime=4, heads=2, rng=make_rng(0))
alphas = attention_coeffs(params, head=0, h=h, nbhd=nbhd)
print("attention row sums:", [round(float(a.sum()), 12) for a in alphas])
print("node 0 attends over", len(alphas[0]), "neighbors (self included)")

out_avg = gat_forward(params, h, nbhd)
print("\naverage combine: output", out_avg.shape, "in (0,1):",
      bool(out_avg.min() > 0 and out_avg.max() < 1))

params_cat = init_gat(4, 4, heads=2, rng=make_rng(0), combine="concat")
out_cat = gat_forward(params_cat, h, nbhd)
print("concat combine: output", out_cat.shape)

# gradient of a random scalar functional of the output, wrt the inputs
upstream = rng.normal(size=out_avg.shape)
grad_w, grad_a, grad_h = gat_backward(params, h, nbhd, upstream)

num = finite_diff_grad(
    lambda v: float(np.sum(upstream * gat_forward(params, v.reshape(h.shape), nbhd))),
    h.ravel(),
)
print("\nbackward check (inputs):   rel err %.2e" % relative_error(grad_h.ravel(), num))

num_w = finite_diff_grad(
    lambda v: float(
        np.sum(
            upstream
            * gat_forward(
                type(params)(
                    w=[v.reshape(4, 4), params.w[1]], a=params.a, combine=params.combine
                ),
                h,
                nbhd,
            )
        )
    ),
    params.w[0].ravel(),
)
print("backward check (head 0 W): rel err %.2e" % relative_error(grad_w[0].ravel(), num_w))
