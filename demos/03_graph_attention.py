#!/usr/bin/env python3
"""Multi-head graph attention, forward and backward.

Builds a small graph, inspects the attention rows (they always sum to 1),
runs the layer (the sigmoid of the heads' mean aggregate), and verifies the
hand-derived backward pass against central differences. Every layer runs through
``stack_forward``/``stack_backward``; a single layer is the stack ``[params]``.
"""

import numpy as np

from slrl import build_graph, init_gat_stack, stack_backward, stack_forward
from slrl.gat import attention_coeffs
from slrl.numerics import finite_diff_grad, make_rng, relative_error

rng = make_rng(3)
h = rng.normal(size=(7, 4))
nbhd = build_graph(h, k=2).neighborhoods()  # CSR rows with self loops

params = init_gat_stack(1, f_in=4, f_prime=4, heads=2, seed=0)[0]
alphas = attention_coeffs(params, head=0, h=h, nbhd=nbhd)
print("attention row sums:", [round(float(a.sum()), 12) for a in alphas])
print("node 0 attends over", len(alphas[0]), "neighbors (self included)")

out, caches = stack_forward([params], h, nbhd)
print("\nlayer output", out.shape, "in (0,1):", bool(out.min() > 0 and out.max() < 1))

# gradient of a random scalar functional of the output, wrt the inputs
upstream = rng.normal(size=out.shape)
[grads], grad_h = stack_backward([params], caches, upstream)

num = finite_diff_grad(
    lambda v: float(np.sum(upstream * stack_forward([params], v.reshape(h.shape), nbhd)[0])),
    h.ravel(),
)
print("\nbackward check (inputs):   rel err %.2e" % relative_error(grad_h.ravel(), num))


def with_head0_w(v):
    return type(params)(w=[v.reshape(4, 4), params.w[1]], a=params.a)


num_w = finite_diff_grad(
    lambda v: float(np.sum(upstream * stack_forward([with_head0_w(v)], h, nbhd)[0])),
    params.w[0].ravel(),
)
print("backward check (head 0 W): rel err %.2e" % relative_error(grads.w[0].ravel(), num_w))
