"""Joint training loop: reconstruction, graph rebuild, attention, clustering.

Phase 1 pretrains the latent matrix and decoders on the reconstruction
loss alone. Phase 2 then, per epoch: rebuilds the kNN graph from the
current latent matrix (the first epoch uses the graph built for k-means),
runs the attention stack to get the structured representation, refreshes
the sharpened target distribution, computes the total loss

    L = L_r + gamma * L_c,

and applies one full-batch gradient step to the latent matrix, decoders,
attention parameters, and centroids. Centroids are initialized by k-means
on the structured representation at the start of phase 2.

Step-size policy: descent acts on the mean per-sample objective
(reconstruction error plus gamma times each sample's divergence term), so
shared parameters (decoders, attention, centroids) see gradients whose
scale is independent of the dataset size. Each free latent row, which
appears in exactly one sample's loss, is stepped on its own per-sample
gradient (N times the mean gradient), keeping the latent learning rate
meaningful at any N. Reported losses follow the printed objective
(mean-over-samples reconstruction, summed divergence); gradcheck verifies
the exact gradients of that objective.

All trainable state is listed once, by ``_named``, under the names the
checkpoint uses; the optimizer step, gradcheck and ``save_checkpoint`` all
walk that listing.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import cluster as cl
from . import encoder as enc
from . import gat as gt
from . import graph as gr
from . import metrics as mt
from .data import MultiViewDataset, read_matrix, write_matrix
from .errors import (
    DegenerateClusterError,
    DivergenceError,
    FormatError,
    NumericError,
    ParameterError,
)
from .numerics import finite_diff_grad, relative_error

__all__ = [
    "TrainConfig",
    "TrainReport",
    "GradcheckReport",
    "check_fit",
    "total_loss",
    "train",
    "ablate",
    "gradcheck",
    "save_checkpoint",
    "load_checkpoint",
    "write_loss_log",
]


@dataclass
class TrainConfig:
    """Hyperparameters; defaults follow the reference configuration."""

    latent_dim: int = 64
    k: int = 10
    gamma: float = 10.0
    learning_rate: float = 0.01
    epochs: int = 200
    heads: int = 4
    gat_layers: int = 1
    activation: str = "sigmoid"
    combine: str = "average"
    pretrain_epochs: int = 50
    seed: int = 0
    kernel: str | None = None  # None: pick from the dataset's view kinds
    sigma: float | None = None
    clusters: int | None = None  # None: take the ground-truth label count
    early_stop_min_epochs: int = 20

    def validate(self) -> None:
        """Raise ``ParameterError`` for a setting out of range on its own; ``check_fit``
        checks kernel and sigma, since the kernel may come from the dataset."""
        if self.latent_dim < 2:
            raise ParameterError("latent_dim must be >= 2")
        if self.k < 1:
            raise ParameterError("k must be >= 1")
        # written so that nan fails too: every comparison with nan is false
        if not 0 <= self.gamma < np.inf:
            raise ParameterError("gamma must be finite and >= 0")
        if not 0 < self.learning_rate < np.inf:
            raise ParameterError("learning_rate must be finite and positive")
        if min(self.epochs, self.pretrain_epochs) < 0:
            raise ParameterError("epoch counts must be >= 0")
        if self.heads < 1 or self.gat_layers < 0:
            raise ParameterError("need heads >= 1 and gat_layers >= 0")
        if self.activation not in gt.ACTIVATIONS:
            raise ParameterError(f"unknown activation {self.activation!r}")
        if self.combine not in gt.COMBINES:
            raise ParameterError(f"unknown combine mode {self.combine!r}")


@dataclass
class TrainReport:
    """Loss trajectory, per-epoch metrics, and the final model state."""

    lr_history: list = field(default_factory=list)
    lc_history: list = field(default_factory=list)
    loss_history: list = field(default_factory=list)
    metrics_history: list = field(default_factory=list)  # MetricsReport | None per epoch
    pretrain_epochs_run: int = 0
    joint_epochs_run: int = 0
    early_stopped_at: int | None = None  # 1-based joint epoch where the stop triggered
    early_stop_reason: str | None = None  # "loss" | "assignments"
    h: np.ndarray | None = None
    ht: np.ndarray | None = None
    q: np.ndarray | None = None
    centroids: np.ndarray | None = None
    decoders: list = field(default_factory=list)
    gat_stack: list = field(default_factory=list)
    labels_pred: np.ndarray | None = None
    final_eval: mt.MetricsReport | None = None  # metrics of the final state, if labels exist
    graph: gr.NeighborGraph | None = None  # neighbor graph of the final latent matrix
    # worst-case invariant gaps observed across all joint epochs
    q_rowsum_gap: float = 0.0
    p_rowsum_gap: float = 0.0
    alpha_rowsum_gap: float = 0.0
    lc_min: float = np.inf

    @property
    def joint_losses(self) -> list:
        return self.loss_history[self.pretrain_epochs_run :]

    def final_metrics(self):
        return self.final_eval


def total_loss(lr_value: float, lc_value: float, gamma: float) -> float:
    """Joint objective: reconstruction loss plus gamma-weighted clustering loss."""
    value = float(lr_value) + float(gamma) * float(lc_value)
    if not np.isfinite(value):
        raise NumericError(f"non-finite total loss: lr={lr_value}, lc={lc_value}")
    return value


def _resolve_kernel(ds: MultiViewDataset, cfg: TrainConfig) -> str:
    if cfg.kernel is not None:
        return cfg.kernel
    discrete = sum(1 for kind in ds.kinds if kind == "discrete")
    return "dot" if discrete > ds.n_views - discrete else "gaussian"


def _resolve_clusters(ds: MultiViewDataset, cfg: TrainConfig) -> int:
    if cfg.clusters is not None:
        return int(cfg.clusters)
    c = ds.n_clusters()
    if c is None:
        raise ParameterError("dataset has no labels; pass the cluster count explicitly")
    return c


def check_fit(ds: MultiViewDataset, cfg: TrainConfig) -> None:
    """Raise ``ParameterError`` unless ``cfg`` is valid and fits ``ds``: k below the
    sample count, between 2 and N clusters, and a sigma only for the Gaussian
    kernel. ``train`` runs this first."""
    cfg.validate()
    gr.check_kernel(_resolve_kernel(ds, cfg), cfg.sigma)
    n = ds.n_samples
    if cfg.k > n - 1:
        raise ParameterError(f"k={cfg.k} too large for {n} samples")
    c = _resolve_clusters(ds, cfg)
    if not 2 <= c <= n:
        raise ParameterError(f"cluster count {c} outside [2, {n}]")


def _epoch_metrics(q: np.ndarray, labels) -> mt.MetricsReport | None:
    if labels is None:
        return None
    return mt.evaluate(np.argmax(q, axis=1), labels)


_GROUPS = ("h", "decoders", "gat", "centroids")
_DECODER_FIELDS = ("w1", "b1", "w2", "b2")
# early stopping: an epoch that does not lower the best loss by this relative
# margin spends one unit of patience
_EARLY_STOP_TOL = 1e-6
# epochs without loss improvement, or with stable assignments, before a stop
_PATIENCE = 10
# hard assignments count as stable when at most this fraction of samples switch cluster
_ASSIGN_STABLE_TOL = 1e-3
# central-difference step of gradcheck
_GRADCHECK_EPS = 1e-5


def _init_model(n: int, dims, cfg: TrainConfig, seed: int):
    """Latent matrix, decoders and attention stack from seeds seed, seed+1, seed+2."""
    h = enc.init_latent(n, cfg.latent_dim, seed)
    decoders = enc.init_decoders(cfg.latent_dim, dims, seed + 1)
    stack = gt.init_gat_stack(
        cfg.gat_layers,
        cfg.latent_dim,
        cfg.latent_dim,
        cfg.heads,
        seed + 2,
        activation=cfg.activation,
        combine=cfg.combine,
    )
    return h, decoders, stack


def _gat_pairs(stack) -> list:
    return [(layer.w, layer.a) for layer in stack]


def _named(h, decoders, gat, centroids=None) -> list:
    """(group, name, array) for every trainable array, named as in the checkpoint.

    ``gat`` holds one (per-head W list, per-head a list) pair per layer, so a
    stack (through ``_gat_pairs``) and its ``stack_backward`` gradients list
    alike, as do decoders and their gradients.
    """
    out = [("h", "h", h)]
    for v, theta in enumerate(decoders):
        out += [("decoders", f"decoder{v}.{f}", getattr(theta, f)) for f in _DECODER_FIELDS]
    for layer_idx, (ws, avecs) in enumerate(gat):
        out += [("gat", f"gat{layer_idx}.head{k}.w", w) for k, w in enumerate(ws)]
        out += [("gat", f"gat{layer_idx}.head{k}.a", a) for k, a in enumerate(avecs)]
    if centroids is not None:
        out.append(("centroids", "centroids", centroids))
    return out


def _step(params, grads, scales: dict) -> None:
    """Descend in place: each array moves by its group's scale times its gradient.
    Nothing moves if a gradient is non-finite.

    Each gradient is scaled in place before it is subtracted, so every one must
    be a fresh array that nothing else reads.
    """
    for group, name, grad in grads:
        if not np.isfinite(grad).all():
            raise NumericError(f"non-finite gradient in group {group!r} ({name})")
    for (group, _, value), (_, _, grad) in zip(params, grads, strict=True):
        grad *= scales[group]
        value -= grad


# the errors the kernels of a training epoch raise
_KERNEL_ERRORS = (NumericError, ParameterError, DegenerateClusterError, DivergenceError)


@contextmanager
def _phase_errors(where: str):
    """Re-raise a kernel error, of the same type, with ``where`` before its message,
    so that a failure names the epoch whose step led to it."""
    try:
        yield
    except _KERNEL_ERRORS as err:
        raise type(err)(f"{where}: {err}") from err


def _joint_epoch(ds, cfg: TrainConfig, model, centroids, nbhd, scales: dict, report):
    """One joint epoch of ``train`` on the neighborhoods ``nbhd``: attention, the
    clustering head, the losses and metrics appended to ``report``, and one step
    of ``model`` (h, decoders, attention stack) and the centroids.

    Returns (loss, q, centroids). The attention caches and every gradient are
    local, so none of them outlives the epoch.
    """
    h, decoders, stack = model
    ht, caches = gt.stack_forward(stack, h, nbhd)
    q = cl.soft_assign(ht, centroids)
    try:
        p = cl.target_distribution(q)
    except cl.DegenerateClusterError:
        warnings.warn("degenerate cluster during target refresh; re-seeding centroid")
        centroids = _reseed_degenerate(ht, centroids, q)
        q = cl.soft_assign(ht, centroids)
        p = cl.target_distribution(q)

    lr_value = enc.reconstruction_loss(h, decoders, ds)
    lc_value = cl.kl_loss(p, q)
    loss = total_loss(lr_value, lc_value, cfg.gamma)

    report.lr_history.append(lr_value)
    report.lc_history.append(lc_value)
    report.loss_history.append(loss)
    report.metrics_history.append(_epoch_metrics(q, ds.labels))
    _update_invariant_gaps(report, q, p, caches)

    # shared parameters descend the mean per-sample loss, so the summed
    # clustering gradients are scaled by gamma/N before stepping
    grads = _joint_grads(ds, model, centroids, ht, caches, p, cfg.gamma / ds.n_samples)
    _step(_named(h, decoders, _gat_pairs(stack), centroids), grads, scales)
    return loss, q, centroids


def _joint_grads(ds, model, centroids, ht, caches, p, weight: float) -> list:
    """Gradients of the joint loss as ``_named`` lists them, the clustering loss
    weighted by ``weight`` through the attention stack. The centroid gradient is
    left unweighted."""
    h, decoders, stack = model
    grad_h_rec, dec_grads = enc.reconstruction_grads(h, decoders, ds)
    grad_ht, grad_mu = cl.cluster_grads(ht, centroids, p)
    layer_grads, grad_h_gat = gt.stack_backward(stack, caches, weight * grad_ht)
    return _named(grad_h_rec + grad_h_gat, dec_grads, layer_grads, grad_mu)


# no numpy overflow/invalid warnings: _step, total_loss and as_matrix stop
# every non-finite value with a typed error
@np.errstate(over="ignore", invalid="ignore")
def train(ds: MultiViewDataset, cfg: TrainConfig) -> TrainReport:
    """Run both phases and return the full report."""
    check_fit(ds, cfg)
    n = ds.n_samples
    kernel = _resolve_kernel(ds, cfg)
    n_clusters = _resolve_clusters(ds, cfg)

    h, decoders, stack = _init_model(n, ds.dims, cfg, cfg.seed)
    report = TrainReport(decoders=decoders, gat_stack=stack)
    lr = cfg.learning_rate
    # latent rows step on their per-sample gradient, N times the mean one
    scales = {"h": lr * float(n), "decoders": lr, "gat": lr, "centroids": lr * (cfg.gamma / n)}

    # phase 1: reconstruction-only descent on H and the decoders
    for epoch in range(cfg.pretrain_epochs):
        with _phase_errors(f"pretrain epoch {epoch + 1}"):
            loss = enc.reconstruction_loss(h, decoders, ds)
            grad_h, dec_grads = enc.reconstruction_grads(h, decoders, ds)
            report.lr_history.append(loss)
            report.lc_history.append(0.0)
            report.loss_history.append(total_loss(loss, 0.0, cfg.gamma))
            report.metrics_history.append(None)
            _step(_named(h, decoders, []), _named(grad_h, dec_grads, []), scales)
    report.pretrain_epochs_run = cfg.pretrain_epochs

    # phase 2 setup: graph, structured representation, k-means centroids; the
    # forward pass's caches are dropped at once
    nbhd = gr.build_graph(h, cfg.k, kernel, cfg.sigma).neighborhoods()
    centroids = cl.init_centroids(gt.stack_forward(stack, h, nbhd)[0], n_clusters, cfg.seed + 3)
    best_loss = np.inf
    no_improve = 0
    prev_assign = None
    stable_assign = 0

    for epoch in range(cfg.epochs):
        with _phase_errors(f"joint epoch {epoch + 1}"):
            # the first epoch attends over the setup graph
            if nbhd is None:
                nbhd = gr.build_graph(h, cfg.k, kernel, cfg.sigma).neighborhoods()
            loss, q, centroids = _joint_epoch(
                ds, cfg, (h, decoders, stack), centroids, nbhd, scales, report
            )
        nbhd = None  # freed before the next build
        report.joint_epochs_run = epoch + 1

        # two convergence monitors, both gated behind a burn-in:
        #  - loss: an epoch failing to improve the best loss by a relative
        #    _EARLY_STOP_TOL spends one unit of patience
        #  - assignments: the alternating scheme has converged once hard
        #    cluster assignments stop changing (within _ASSIGN_STABLE_TOL)
        if loss < best_loss * (1.0 - _EARLY_STOP_TOL):
            best_loss = loss
            no_improve = 0
        else:
            no_improve += 1
        assign = np.argmax(q, axis=1)
        if prev_assign is not None and np.mean(assign != prev_assign) <= _ASSIGN_STABLE_TOL:
            stable_assign += 1
        else:
            stable_assign = 0
        prev_assign = assign
        if epoch + 1 >= cfg.early_stop_min_epochs:
            if no_improve >= _PATIENCE:
                report.early_stopped_at = epoch + 1
                report.early_stop_reason = "loss"
                break
            if stable_assign >= _PATIENCE:
                report.early_stopped_at = epoch + 1
                report.early_stop_reason = "assignments"
                break

    # final state under the last parameter values
    with _phase_errors(f"final state after {report.joint_epochs_run} joint epochs"):
        g = gr.build_graph(h, cfg.k, kernel, cfg.sigma)
        ht, _ = gt.stack_forward(stack, h, g.neighborhoods())
        q = cl.soft_assign(ht, centroids)
    report.h = h
    report.ht = ht
    report.q = q
    report.centroids = centroids
    report.labels_pred = np.argmax(q, axis=1)
    report.final_eval = _epoch_metrics(q, ds.labels)
    report.graph = g
    return report


def _reseed_degenerate(ht, centroids, q) -> np.ndarray:
    """Move zero-mass centroids onto the sample farthest from its centroid."""
    centroids = centroids.copy()
    mass = q.sum(axis=0)
    assigned = np.argmax(q, axis=1)
    dist = np.linalg.norm(ht - centroids[assigned], axis=1)
    order = np.argsort(dist)[::-1]
    pos = 0
    for j in np.nonzero(mass <= 1e-12)[0]:
        centroids[j] = ht[order[pos]]
        pos += 1
    return centroids


def _update_invariant_gaps(report: TrainReport, q, p, caches) -> None:
    report.q_rowsum_gap = max(report.q_rowsum_gap, float(np.abs(q.sum(axis=1) - 1.0).max()))
    report.p_rowsum_gap = max(report.p_rowsum_gap, float(np.abs(p.sum(axis=1) - 1.0).max()))
    for cache in caches:
        gap = float(np.abs(cache.alpha_row_sums() - 1.0).max())
        report.alpha_rowsum_gap = max(report.alpha_rowsum_gap, gap)
    report.lc_min = min(report.lc_min, report.lc_history[-1])


def ablate(ds: MultiViewDataset, cfg: TrainConfig) -> dict:
    """Three pipeline variants for the structure study.

    (a) latent only: no attention, no clustering loss; k-means on H.
    (b) latent + attention: reconstruction loss only; k-means on the
        structured representation from the untrained attention stack.
    (c) the full pipeline.
    Returns {"a": report, "b": report, "c": report}.
    """
    check_fit(ds, cfg)
    cfg_a = replace(cfg, gamma=0.0, gat_layers=0)
    cfg_b = replace(cfg, gamma=0.0, gat_layers=max(1, cfg.gat_layers))
    return {"a": train(ds, cfg_a), "b": train(ds, cfg_b), "c": train(ds, cfg)}


@dataclass
class GradcheckReport:
    """Max relative gradient error per parameter group."""

    errors: dict
    eps: float
    seed_used: int

    @property
    def worst(self) -> float:
        return max(self.errors.values())

    def ok(self, tol: float = 1e-4) -> bool:
        return self.worst < tol

    def to_text(self) -> str:
        lines = [f"{name} {err:.3e}" for name, err in self.errors.items()]
        lines.append(f"worst {self.worst:.3e}")
        return "\n".join(lines) + "\n"


def _kink_margin(h, decoders, caches) -> float:
    """Smallest |pre-activation| at any ReLU/LeakyReLU kink in the frozen loss."""
    pre = [h @ theta.w1.T + theta.b1 for theta in decoders]
    scores = [head.t for cache in caches for head in cache.heads]
    return min(float(np.abs(x).min()) for x in pre + scores)


def _flat(arrays) -> np.ndarray:
    return np.concatenate([np.empty(0)] + [np.ravel(a) for a in arrays])


def gradcheck(ds: MultiViewDataset, cfg: TrainConfig) -> GradcheckReport:
    """Compare analytic gradients of the joint loss against central differences.

    The graph and the target distribution are frozen, exactly as within one
    training step. Instances whose ReLU/LeakyReLU pre-activations sit too
    close to a kink are re-seeded deterministically, since finite
    differences are meaningless across a kink.
    """
    check_fit(ds, cfg)
    n = ds.n_samples
    if n > 30:
        raise ParameterError(f"gradcheck needs N <= 30, got {n}")
    n_clusters = _resolve_clusters(ds, cfg)
    kernel = _resolve_kernel(ds, cfg)

    seed = cfg.seed
    for _ in range(50):
        h, decoders, stack = _init_model(n, ds.dims, cfg, seed)
        nbhd = gr.build_graph(h, cfg.k, kernel, cfg.sigma).neighborhoods()
        ht, caches = gt.stack_forward(stack, h, nbhd)
        if _kink_margin(h, decoders, caches) > 1e-4:
            break
        seed += 1

    centroids = cl.init_centroids(ht, n_clusters, seed=seed + 3)
    p = cl.target_distribution(cl.soft_assign(ht, centroids))

    # analytic gradients of L_r + gamma * L_c, assembled by the training step's code
    params = _named(h, decoders, _gat_pairs(stack), centroids)
    grads = _joint_grads(ds, (h, decoders, stack), centroids, ht, caches, p, cfg.gamma)
    grads[-1][2][...] *= cfg.gamma  # the centroid gradient, weighted like the rest

    errors = {}
    for group in _GROUPS:
        idx = [i for i, entry in enumerate(params) if entry[0] == group]

        def f(vec, idx=idx):
            # write vec into the group's live arrays; the others keep their values
            pos = 0
            for i in idx:
                live = params[i][2]
                np.copyto(live, vec[pos : pos + live.size].reshape(live.shape))
                pos += live.size
            ht_now, _ = gt.stack_forward(stack, h, nbhd)
            lc_value = cl.kl_loss(p, cl.soft_assign(ht_now, centroids))
            return total_loss(enc.reconstruction_loss(h, decoders, ds), lc_value, cfg.gamma)

        x0 = _flat(params[i][2] for i in idx)
        analytic = _flat(grads[i][2] for i in idx)
        numeric = finite_diff_grad(f, x0, _GRADCHECK_EPS)
        f(x0)  # put the unperturbed values back
        errors[group] = relative_error(analytic, numeric)
    return GradcheckReport(errors=errors, eps=_GRADCHECK_EPS, seed_used=seed)


def save_checkpoint(report: TrainReport, path) -> None:
    """Every trainable array plus the ``ht`` and ``q`` outputs in the binary layout,
    with a text index; vectors are stored as one-row matrices."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    named = _named(report.h, report.decoders, _gat_pairs(report.gat_stack), report.centroids)
    lines = []
    for name, array in [e[1:] for e in named] + [("ht", report.ht), ("q", report.q)]:
        fname = name + ".mvm"
        write_matrix(root / fname, np.atleast_2d(np.asarray(array, dtype=np.float64)))
        lines.append(f"{name} {fname}")
    (root / "index.txt").write_text("\n".join(lines) + "\n")


def load_checkpoint(path) -> dict:
    """Read a checkpoint directory back into a name -> matrix dict."""
    root = Path(path)
    index = root / "index.txt"
    if not index.exists():
        raise FileNotFoundError(f"no index.txt in {root}")
    out = {}
    for lineno, line in enumerate(index.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 2:
            raise FormatError(f"{index} line {lineno}: expected 'name file', got {line!r}")
        name, fname = fields
        out[name] = read_matrix(root / fname)
    return out


def write_loss_log(report: TrainReport, path) -> None:
    """Per-epoch delimited log: epoch, L_r, L_c, L, ACC, NMI, F, ARI."""
    lines = ["epoch,L_r,L_c,L,ACC,NMI,F,ARI"]
    for i in range(len(report.loss_history)):
        m = report.metrics_history[i]
        cells = [
            str(i),
            f"{report.lr_history[i]:.9g}",
            f"{report.lc_history[i]:.9g}",
            f"{report.loss_history[i]:.9g}",
        ]
        if m is None:
            cells.extend(["", "", "", ""])
        else:
            cells.extend(f"{x:.6f}" for x in (m.acc, m.nmi, m.f_score, m.ari))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")
