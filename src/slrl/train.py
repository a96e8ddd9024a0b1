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
walk that listing, except that the decoders step inside the decoder pass
(``encoder.reconstruct`` given their scale), each view's as soon as its
gradients exist. Every array steps by ``numerics.descend``.
"""

from __future__ import annotations

import numbers
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import cluster as cl
from . import encoder as enc
from . import gat as gt
from . import graph as gr
from . import metrics as mt
from .data import MultiViewDataset, read_matrix, write_matrix
from .errors import FormatError, NumericError, ParameterError, SlrlError
from .numerics import descend, finite_diff_grad, relative_error

__all__ = [
    "TrainConfig",
    "EpochRecord",
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
    pretrain_epochs: int = 50
    seed: int = 0
    clusters: int | None = None  # None: take the ground-truth label count
    early_stop_min_epochs: int = 20

    def validate(self) -> None:
        """Raise ``ParameterError`` for a setting of the wrong type or out of range on its
        own; ``check_fit`` also checks the settings against the dataset."""
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.type.endswith("None"):
                continue
            # the annotation names the type: an int field takes Python and numpy
            # integers, a float field any real number, and neither takes a bool
            integral = f.type.startswith("int")
            kind = numbers.Integral if integral else numbers.Real
            if isinstance(value, bool) or not isinstance(value, kind):
                what = "an integer" if integral else "a real number"
                raise ParameterError(f"{f.name} must be {what}, got {value!r}")
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
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class EpochRecord:
    """One epoch of ``train``, in scalars and the epoch's metrics only, so that a
    long run's history stays small. Pretraining fills the phase and losses."""

    phase: str  # "pretrain" | "joint"
    lr: float  # L_r
    lc: float  # L_c, 0 in pretraining
    loss: float  # L = L_r + gamma * L_c
    metrics: mt.MetricsReport | None = None  # of a joint epoch on labeled data
    # largest |row sum - 1| of Q, of P and of any attention layer's coefficients
    q_gap: float | None = None
    p_gap: float | None = None
    alpha_gap: float | None = None  # 0 without attention layers
    churn: float | None = None  # share of hard assignments changed since the last joint epoch
    # the early-stop monitors after the epoch
    best_loss: float = np.inf  # the loss monitor's best loss so far
    no_improve: int = 0  # joint epochs in a row that did not lower best_loss enough
    stable: int = 0  # joint epochs in a row with churn at most _ASSIGN_STABLE_TOL
    stop: str | None = None  # "loss" | "assignments": the monitor that ended the run here


@dataclass
class TrainReport:
    """One ``EpochRecord`` per epoch run, and the final model state."""

    epochs: list = field(default_factory=list)  # pretrain epochs first, then joint
    h: np.ndarray | None = None
    ht: np.ndarray | None = None
    q: np.ndarray | None = None
    centroids: np.ndarray | None = None
    decoders: list = field(default_factory=list)
    gat_stack: list = field(default_factory=list)
    labels_pred: np.ndarray | None = None
    final_eval: mt.MetricsReport | None = None  # metrics of the final state, if labels exist
    graph: gr.NeighborGraph | None = None  # neighbor graph of the final latent matrix

    # projections of the records
    lr_history = property(lambda self: [r.lr for r in self.epochs])
    lc_history = property(lambda self: [r.lc for r in self.epochs])
    loss_history = property(lambda self: [r.loss for r in self.epochs])
    pretrain_epochs_run = property(lambda self: sum(r.phase == "pretrain" for r in self.epochs))
    joint_epochs_run = property(lambda self: sum(r.phase == "joint" for r in self.epochs))
    # the 1-based joint epoch after which early stopping ended the run, if it did
    early_stopped_at = property(
        lambda self: self.joint_epochs_run if self.epochs and self.epochs[-1].stop else None
    )


def total_loss(lr_value: float, lc_value: float, gamma: float) -> float:
    """Joint objective: reconstruction loss plus gamma-weighted clustering loss."""
    value = float(lr_value) + float(gamma) * float(lc_value)
    if not np.isfinite(value):
        raise NumericError(f"non-finite total loss: lr={lr_value}, lc={lc_value}")
    return value


def check_fit(ds: MultiViewDataset, cfg: TrainConfig) -> int:
    """Return the cluster count, ``cfg.clusters`` or else the label count; raise
    ``ParameterError`` unless ``cfg`` is valid and fits ``ds``: k below the sample
    count and between 2 and N clusters. ``train`` runs this first."""
    cfg.validate()
    n = ds.n_samples
    if cfg.k > n - 1:
        raise ParameterError(f"k={cfg.k} too large for {n} samples")
    c = ds.n_clusters() if cfg.clusters is None else int(cfg.clusters)
    if c is None:
        raise ParameterError("dataset has no labels; pass the cluster count explicitly")
    if not 2 <= c <= n:
        raise ParameterError(f"cluster count {c} outside [2, {n}]")
    return c


def _epoch_metrics(assign: np.ndarray, labels) -> mt.MetricsReport | None:
    return None if labels is None else mt.evaluate(assign, labels)


_GROUPS = ("h", "decoders", "gat", "centroids")
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
    stack = gt.init_gat_stack(cfg.gat_layers, cfg.latent_dim, cfg.latent_dim, cfg.heads, seed + 2)
    return h, decoders, stack


def _named(h, decoders, stack=(), centroids=None) -> list:
    """(group, name, array) for every trainable array, named as in the checkpoint.

    Decoders and attention layers are walked by their fields (a layer: every head's
    ``w``, then every ``a``), so parameters and their gradients list alike.
    """
    out = [("h", "h", h)]
    for v, theta in enumerate(decoders):
        out += [("decoders", f"decoder{v}.{f}", p) for f, p in vars(theta).items()]
    for i, layer in enumerate(stack):
        for f, per_head in vars(layer).items():
            out += [("gat", f"gat{i}.head{k}.{f}", p) for k, p in enumerate(per_head)]
    if centroids is not None:
        out.append(("centroids", "centroids", centroids))
    return out


def _step(params, grads, scales: dict) -> None:
    """Descend in place, one array at a time in listing order: each moves by its
    group's scale times its gradient. No array takes a non-finite step: the
    first whose scaled gradient is non-finite stays as it was, and the epoch
    raises there, naming it, so an overflowing step is reported by the epoch
    that takes it. The arrays before it have moved; ``train`` returns nothing
    after a raise, so none of them is seen.

    Each gradient is scaled in place before it is subtracted, so every one must
    be a fresh array that nothing else reads.
    """
    for (group, name, value), (_, _, grad) in zip(params, grads, strict=True):
        descend(value, grad, scales[group], f"group {group!r} ({name})")


@contextmanager
def _phase_errors(where: str):
    """Re-raise a typed error (any ``SlrlError``), of the same type, with ``where``
    before its message, so that a failure names the epoch whose step led to it."""
    try:
        yield
    except SlrlError as err:
        raise type(err)(f"{where}: {err}") from err


def _joint_epoch(ds, cfg: TrainConfig, model, centroids, nbhd, scales: dict, last_assign):
    """One joint epoch of ``train`` on the neighborhoods ``nbhd``: attention, the
    clustering head and its backward pass through the attention stack, then the
    decoder pass, which steps the decoders, the losses, and one step of the
    rest of ``model`` (h, attention stack) and the centroids.

    Returns (record, hard assignments), the record's churn against
    ``last_assign`` and its monitors left to ``_monitor``. The attention caches
    are dropped before the decoder pass, so they never coexist with the
    decoders' workspace and gradients. All of them are local, so none outlives
    the epoch.
    """
    h, decoders, stack = model
    ht, caches = gt.stack_forward(stack, h, nbhd)
    q = cl.soft_assign(ht, centroids)
    p = cl.target_distribution(q)
    lc_value = cl.kl_loss(p, q)
    assign = np.argmax(q, axis=1)
    sums = [q.sum(axis=1), p.sum(axis=1)] + [cache.row_sums for cache in caches]
    # shared parameters descend the mean per-sample loss, so the summed
    # clustering gradients are scaled by gamma/N before stepping
    weight = cfg.gamma / ds.n_samples
    grad_h, layer_grads, grad_mu = _clustering_grads(stack, centroids, ht, caches, p, weight)
    del ht, caches  # the attention caches go before the decoder pass

    rec = enc.reconstruct(h, decoders, ds, scale=scales["decoders"])
    lr_value = enc.reconstruction_loss(rec)
    loss = total_loss(lr_value, lc_value, cfg.gamma)
    q_gap, p_gap, *alpha_gaps = [float(np.abs(x - 1.0).max()) for x in sums]
    churn = None if last_assign is None else float(np.mean(assign != last_assign))
    record = EpochRecord(
        "joint", lr_value, lc_value, loss, _epoch_metrics(assign, ds.labels),
        q_gap=q_gap, p_gap=p_gap, alpha_gap=max(alpha_gaps, default=0.0), churn=churn,
    )
    # the pass stepped the decoders, so neither listing holds them
    grad_h += enc.reconstruction_grads(rec)[0]
    _step(_named(h, [], stack, centroids), _named(grad_h, [], layer_grads, grad_mu), scales)
    return record, assign


# the early-stop monitors before the first joint epoch
_MONITORS_AT_START = EpochRecord("joint", np.nan, np.nan, np.nan)


def _monitor(record: EpochRecord, last: EpochRecord, armed: bool) -> EpochRecord:
    """``record`` with the loss and assignment monitors advanced from ``last``, the
    previous joint epoch's record, and the stop they call for once ``armed`` (past
    the burn-in): the alternating scheme has converged once assignments settle."""
    improved = record.loss < last.best_loss * (1.0 - _EARLY_STOP_TOL)
    no_improve = 0 if improved else last.no_improve + 1
    steady = record.churn is not None and record.churn <= _ASSIGN_STABLE_TOL
    stable = last.stable + 1 if steady else 0
    fired = [name for name, n in (("loss", no_improve), ("assignments", stable)) if n >= _PATIENCE]
    best_loss = record.loss if improved else last.best_loss
    stop = fired[0] if armed and fired else None
    return replace(record, best_loss=best_loss, no_improve=no_improve, stable=stable, stop=stop)


def _clustering_grads(stack, centroids, ht, caches, p, weight: float):
    """Gradients of the clustering loss weighted by ``weight``, through the
    attention stack whose ``stack_forward`` gave ``ht`` and ``caches``:
    (grad_h, per-layer grads, grad_centroids), the last left unweighted."""
    grad_ht, grad_mu = cl.cluster_grads(ht, centroids, p)
    grad_ht *= weight  # a fresh array: scaled where it lies
    layer_grads, grad_h = gt.stack_backward(stack, caches, grad_ht)
    return grad_h, layer_grads, grad_mu


# no numpy overflow/invalid warnings: _step, total_loss and as_matrix stop
# every non-finite value with a typed error
@np.errstate(over="ignore", invalid="ignore")
def train(ds: MultiViewDataset, cfg: TrainConfig) -> TrainReport:
    """Run both phases and return the full report."""
    n_clusters = check_fit(ds, cfg)
    n = ds.n_samples

    h, decoders, stack = _init_model(n, ds.dims, cfg, cfg.seed)
    report = TrainReport(decoders=decoders, gat_stack=stack)
    lr = cfg.learning_rate
    # latent rows step on their per-sample gradient, N times the mean one
    scales = {"h": lr * float(n), "decoders": lr, "gat": lr, "centroids": lr * (cfg.gamma / n)}

    # phase 1: reconstruction-only descent on H and the decoders, every epoch
    # in the one workspace; the pass steps the decoders, and _step then h
    rec = None
    for epoch in range(cfg.pretrain_epochs):
        with _phase_errors(f"pretrain epoch {epoch + 1}"):
            rec = enc.reconstruct(h, decoders, ds, out=rec, scale=scales["decoders"])
            loss = enc.reconstruction_loss(rec)
            total = total_loss(loss, 0.0, cfg.gamma)
            report.epochs.append(EpochRecord("pretrain", loss, 0.0, total))
            _step(_named(h, []), _named(*enc.reconstruction_grads(rec)), scales)
    del rec  # each joint epoch makes its own

    # phase 2 setup: graph, structured representation, k-means centroids; the
    # forward pass's caches are dropped at once
    nbhd = gr.build_graph(h, cfg.k).neighborhoods()
    centroids = cl.init_centroids(gt.stack_forward(stack, h, nbhd)[0], n_clusters, cfg.seed + 3)

    last, assign = _MONITORS_AT_START, None
    for epoch in range(1, cfg.epochs + 1):
        with _phase_errors(f"joint epoch {epoch}"):
            # the first epoch attends over the setup graph
            if nbhd is None:
                nbhd = gr.build_graph(h, cfg.k).neighborhoods()
            record, assign = _joint_epoch(
                ds, cfg, (h, decoders, stack), centroids, nbhd, scales, assign
            )
        nbhd = None  # freed before the next build
        last = _monitor(record, last, armed=epoch >= cfg.early_stop_min_epochs)
        report.epochs.append(last)
        if last.stop:
            break

    # final state under the last parameter values
    with _phase_errors(f"final state after {report.joint_epochs_run} joint epochs"):
        g = gr.build_graph(h, cfg.k)
        ht, _ = gt.stack_forward(stack, h, g.neighborhoods())
        q = cl.soft_assign(ht, centroids)
    report.h = h
    report.ht = ht
    report.q = q
    report.centroids = centroids
    report.labels_pred = np.argmax(q, axis=1)
    report.final_eval = _epoch_metrics(report.labels_pred, ds.labels)
    report.graph = g
    return report


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

    @property
    def worst(self) -> float:
        return max(self.errors.values())

    def ok(self, tol: float = 1e-4) -> bool:
        return self.worst < tol

    def to_text(self) -> str:
        lines = [f"{name} {err:.3e}" for name, err in self.errors.items()]
        lines.append(f"worst {self.worst:.3e}")
        return "\n".join(lines) + "\n"


def _kink_margin(h, decoders, stack, caches) -> float:
    """Smallest |pre-activation| at any ReLU/LeakyReLU kink in the frozen loss."""
    pre = [h @ theta.w1.T + theta.b1 for theta in decoders]
    scores = [
        gt._head_scores(layer, k, cache.h_in, cache.adj)[1]
        for layer, cache in zip(stack, caches, strict=True)
        for k in range(layer.heads)
    ]
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
    n_clusters = check_fit(ds, cfg)
    n = ds.n_samples
    if n > 30:
        raise ParameterError(f"gradcheck needs N <= 30, got {n}")

    seed = cfg.seed
    for _ in range(50):
        h, decoders, stack = _init_model(n, ds.dims, cfg, seed)
        nbhd = gr.build_graph(h, cfg.k).neighborhoods()
        ht, caches = gt.stack_forward(stack, h, nbhd)
        if _kink_margin(h, decoders, stack, caches) > 1e-4:
            break
        seed += 1

    centroids = cl.init_centroids(ht, n_clusters, seed=seed + 3)
    p = cl.target_distribution(cl.soft_assign(ht, centroids))

    # analytic gradients of L_r + gamma * L_c, assembled by the training step's code
    params = _named(h, decoders, stack, centroids)
    grad_h, layer_grads, grad_mu = _clustering_grads(stack, centroids, ht, caches, p, cfg.gamma)
    grad_h_rec, dec_grads = enc.reconstruction_grads(enc.reconstruct(h, decoders, ds))
    grad_h += grad_h_rec
    # the centroid gradient comes back unweighted: weight it like the rest
    grads = _named(grad_h, dec_grads, layer_grads, cfg.gamma * grad_mu)

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
            lr_value = enc.reconstruction_loss(enc.reconstruct(h, decoders, ds))
            return total_loss(lr_value, lc_value, cfg.gamma)

        x0 = _flat(params[i][2] for i in idx)
        analytic = _flat(grads[i][2] for i in idx)
        numeric = finite_diff_grad(f, x0, _GRADCHECK_EPS)
        f(x0)  # put the unperturbed values back
        errors[group] = relative_error(analytic, numeric)
    return GradcheckReport(errors=errors)


def save_checkpoint(report: TrainReport, path) -> None:
    """Every trainable array plus the ``ht`` and ``q`` outputs in the binary layout,
    with a text index; vectors are stored as one-row matrices."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    named = _named(report.h, report.decoders, report.gat_stack, report.centroids)
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
    """``report.epochs`` as a delimited log: epoch, L_r, L_c, L, ACC, NMI, F, ARI."""
    lines = ["epoch,L_r,L_c,L,ACC,NMI,F,ARI"]
    for i, r in enumerate(report.epochs):
        m = r.metrics
        scores = [""] * 4 if m is None else [f"{x:.6f}" for x in (m.acc, m.nmi, m.f_score, m.ari)]
        lines.append(",".join([str(i), f"{r.lr:.9g}", f"{r.lc:.9g}", f"{r.loss:.9g}", *scores]))
    Path(path).write_text("\n".join(lines) + "\n")
