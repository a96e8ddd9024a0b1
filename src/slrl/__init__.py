"""Structured latent representation learning for multi-view clustering.

The pipeline: learn a common latent matrix by reconstructing every view
from it, build a kNN graph over that latent space, refine it with
multi-head graph attention, and sharpen cluster structure with a
KL-divergence self-training head. Everything runs on dense float64
numpy, fully seeded, with exact hand-derived gradients.
"""

import os
import sys

_thread_limiter = None  # keeps the threadpoolctl controller alive


def apply_thread_cap() -> None:
    """Cap BLAS worker threads at ``SLRL_THREADS``.

    OpenBLAS, OpenMP and MKL read their thread variables once, when they
    load, so this runs on package import, before any submodule loads numpy.
    When numpy is already loaded, the cap goes through threadpoolctl;
    without threadpoolctl it cannot take effect, and a one-line warning on
    stderr says so.
    """
    global _thread_limiter
    cap = os.environ.get("SLRL_THREADS")
    if not cap:
        return
    try:
        n = max(1, int(cap))
    except ValueError:
        print(f"warning: ignoring non-integer SLRL_THREADS={cap!r}", file=sys.stderr)
        return
    # libraries that load later (and child processes) read the variables
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    if "numpy" not in sys.modules:
        return
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        print(
            f"warning: SLRL_THREADS={cap} not applied: numpy loaded before slrl "
            "and threadpoolctl is not installed",
            file=sys.stderr,
        )
        return
    _thread_limiter = threadpool_limits(limits=n)


apply_thread_cap()

from .cluster import (
    cluster_grads,
    init_centroids,
    kl_loss,
    kmeans,
    soft_assign,
    target_distribution,
)
from .data import (
    MultiViewDataset,
    load_dataset,
    normalize,
    save_dataset,
    split,
    synth_multiview,
)
from .encoder import (
    DecoderParams,
    decode,
    init_decoders,
    init_latent,
    reconstruction_grads,
    reconstruction_loss,
)
from .gat import GatParams, attention_coeffs, gat_backward, gat_forward, init_gat, init_gat_stack
from .graph import NeighborGraph, build_dot, build_gaussian, build_graph, knn_indices
from .metrics import MetricsReport, accuracy, ari, evaluate, nmi, pair_f_score
from .numerics import finite_diff_grad, make_rng, relative_error
from .train import TrainConfig, TrainReport, ablate, gradcheck, total_loss, train

__version__ = "0.1.0"

__all__ = [
    "cluster_grads",
    "init_centroids",
    "kl_loss",
    "kmeans",
    "soft_assign",
    "target_distribution",
    "MultiViewDataset",
    "load_dataset",
    "normalize",
    "save_dataset",
    "split",
    "synth_multiview",
    "DecoderParams",
    "decode",
    "init_decoders",
    "init_latent",
    "reconstruction_grads",
    "reconstruction_loss",
    "GatParams",
    "attention_coeffs",
    "gat_backward",
    "gat_forward",
    "init_gat",
    "init_gat_stack",
    "NeighborGraph",
    "build_dot",
    "build_gaussian",
    "build_graph",
    "knn_indices",
    "MetricsReport",
    "accuracy",
    "ari",
    "evaluate",
    "nmi",
    "pair_f_score",
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
