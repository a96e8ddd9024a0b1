"""Structured latent representation learning for multi-view clustering.

The pipeline: learn a common latent matrix by reconstructing every view
from it, build a kNN graph over that latent space, refine it with
multi-head graph attention, and sharpen cluster structure with a
KL-divergence self-training head. Everything runs on dense float64
numpy, fully seeded, with exact hand-derived gradients.
"""

from .cluster import (
    cluster_grads,
    init_centroids,
    kl_loss,
    soft_assign,
    target_distribution,
)
from .data import (
    MultiViewDataset,
    load_dataset,
    normalize,
    save_dataset,
    synth_multiview,
)
from .encoder import (
    DecoderParams,
    init_decoders,
    init_latent,
    reconstruct,
    reconstruction_grads,
    reconstruction_loss,
)
from .gat import (
    GatParams,
    attention_coeffs,
    init_gat_stack,
    stack_backward,
    stack_forward,
)
from .graph import NeighborGraph, build_graph, knn_indices
from .metrics import MetricsReport, evaluate
from .numerics import finite_diff_grad, make_rng, relative_error
from .train import TrainConfig, TrainReport, ablate, gradcheck, total_loss, train

__version__ = "0.1.0"

__all__ = [
    "cluster_grads",
    "init_centroids",
    "kl_loss",
    "soft_assign",
    "target_distribution",
    "MultiViewDataset",
    "load_dataset",
    "normalize",
    "save_dataset",
    "synth_multiview",
    "DecoderParams",
    "init_decoders",
    "init_latent",
    "reconstruct",
    "reconstruction_grads",
    "reconstruction_loss",
    "GatParams",
    "attention_coeffs",
    "init_gat_stack",
    "stack_backward",
    "stack_forward",
    "NeighborGraph",
    "build_graph",
    "knn_indices",
    "MetricsReport",
    "evaluate",
    "finite_diff_grad",
    "make_rng",
    "relative_error",
    "TrainConfig",
    "TrainReport",
    "ablate",
    "gradcheck",
    "total_loss",
    "train",
]
