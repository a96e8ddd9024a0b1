"""Self-training clustering head: soft assignments, sharpened targets, KL loss.

The soft assignment of sample i to centroid j uses a t-distribution kernel,

    q_ij = (1 + ||h_i - mu_j||^2)^-1 / sum_j' (1 + ||h_i - mu_j'||^2)^-1,

the target distribution squares and frequency-normalizes Q,

    p_ij = (q_ij^2 / f_j) / sum_j' (q_ij'^2 / f_j'),   f_j = sum_i q_ij,

and the clustering loss is KL(P || Q) with P held constant between
refreshes. Centroids are initialized by k-means (k-means++ seeding,
``_RESTARTS`` restarts, best inertia kept).
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateClusterError, DivergenceError, ParameterError, ShapeError
from .numerics import as_matrix, make_rng

__all__ = [
    "kmeans",
    "init_centroids",
    "soft_assign",
    "target_distribution",
    "kl_loss",
    "cluster_grads",
]

# k-means: restarts kept by best inertia, and the Lloyd iteration cap and
# relative inertia-change tolerance of each restart
_RESTARTS = 10
_MAX_ITER = 100
_TOL = 1e-6


def _sq_dists(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, (N, C), clipped at zero."""
    d = (
        np.sum(x * x, axis=1)[:, None]
        + np.sum(centers * centers, axis=1)[None, :]
        - 2.0 * (x @ centers.T)
    )
    return np.maximum(d, 0.0)


def _plusplus_seed(x: np.ndarray, c: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: first center uniform, rest proportional to D^2."""
    n = x.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.sum((x - x[chosen[0]]) ** 2, axis=1)
    for _ in range(1, c):
        total = float(d2.sum())
        if total <= 0.0:
            # all remaining mass on already-chosen points: take first unchosen index
            mask = np.ones(n, dtype=bool)
            mask[chosen] = False
            idx = int(np.argmax(mask))
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        chosen.append(idx)
        d2 = np.minimum(d2, np.sum((x - x[idx]) ** 2, axis=1))
    return x[np.array(chosen)].copy()


def _lloyd(x: np.ndarray, centers: np.ndarray):
    """Lloyd iterations; empty clusters are re-seeded from the farthest point."""
    n = x.shape[0]
    c = centers.shape[0]
    prev_inertia = np.inf
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(_MAX_ITER):
        d2 = _sq_dists(x, centers)
        labels = np.argmin(d2, axis=1)
        inertia = float(d2[np.arange(n), labels].sum())
        assigned_d2 = d2[np.arange(n), labels]
        for j in range(c):
            members = labels == j
            if not members.any():
                far = int(np.argmax(assigned_d2))
                labels[far] = j
                assigned_d2[far] = 0.0  # do not reuse the same point for another empty cluster
                members = labels == j
            centers[j] = x[members].mean(axis=0)
        if prev_inertia - inertia <= _TOL * max(abs(prev_inertia), 1e-12):
            prev_inertia = inertia
            break
        prev_inertia = inertia
    d2 = _sq_dists(x, centers)
    labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(n), labels].sum())
    return centers, labels, inertia


def kmeans(x, c: int, seed: int):
    """Best-of-``_RESTARTS`` k-means with k-means++ seeding.

    Returns (centroids, labels, inertia). Deterministic given seed.
    """
    x = as_matrix(x, "x")
    n = x.shape[0]
    if not 1 <= c <= n:
        raise ParameterError(f"cluster count {c} outside [1, {n}]")
    rng = make_rng(seed)
    best = None
    for _ in range(_RESTARTS):
        centers = _plusplus_seed(x, c, rng)
        centers, labels, inertia = _lloyd(x, centers)
        if best is None or inertia < best[2]:
            best = (centers, labels, inertia)
    return best


def init_centroids(ht, c: int, seed: int) -> np.ndarray:
    """Centroid matrix for the clustering head, via restarted k-means."""
    ht = as_matrix(ht, "ht")
    if not 2 <= c <= ht.shape[0]:
        raise ParameterError(f"cluster count {c} outside [2, {ht.shape[0]}]")
    centers, _, _ = kmeans(ht, c, seed=seed)
    return centers


def soft_assign(ht, centroids) -> np.ndarray:
    """Row-stochastic soft assignment under the t-distribution kernel."""
    ht = as_matrix(ht, "ht")
    centroids = as_matrix(centroids, "centroids")
    if ht.shape[1] != centroids.shape[1]:
        raise ShapeError(f"feature dims differ: {ht.shape[1]} vs {centroids.shape[1]}")
    kernel = 1.0 / (1.0 + _sq_dists(ht, centroids))
    return kernel / kernel.sum(axis=1, keepdims=True)


def target_distribution(q) -> np.ndarray:
    """Sharpened target: square Q, normalize by cluster frequency, renormalize rows."""
    q = as_matrix(q, "q")
    freq = q.sum(axis=0)
    if np.any(freq <= 0.0):
        dead = np.nonzero(freq <= 0.0)[0]
        raise DegenerateClusterError(f"clusters {dead.tolist()} have zero assignment mass")
    weighted = (q * q) / freq[None, :]
    return weighted / weighted.sum(axis=1, keepdims=True)


def kl_loss(p, q) -> float:
    """KL(P || Q) = sum_ij p_ij log(p_ij / q_ij), with 0 log 0 = 0."""
    p = as_matrix(p, "p")
    q = as_matrix(q, "q")
    if p.shape != q.shape:
        raise ShapeError(f"shapes differ: {p.shape} vs {q.shape}")
    support = p > 0.0
    if np.any(support & (q <= 0.0)):
        raise DivergenceError("target has mass where assignment is zero")
    terms = np.zeros_like(p)
    terms[support] = p[support] * (np.log(p[support]) - np.log(q[support]))
    value = float(terms.sum())
    # KL is nonnegative; tiny negative values are pure rounding near P = Q.
    return max(value, 0.0)


def cluster_grads(ht, centroids, p):
    """Gradients of KL(P || soft_assign(ht, centroids)) with P constant.

    With u_ij = (1 + d_ij^2)^-1 the chain rule gives

        dL/dh_i  =  sum_j 2 u_ij (p_ij - q_ij) (h_i - mu_j)
        dL/dmu_j = -sum_i 2 u_ij (p_ij - q_ij) (h_i - mu_j)

    Returns (grad_ht, grad_centroids).
    """
    ht = as_matrix(ht, "ht")
    centroids = as_matrix(centroids, "centroids")
    p = as_matrix(p, "p")
    u = 1.0 / (1.0 + _sq_dists(ht, centroids))
    q = u / u.sum(axis=1, keepdims=True)
    if p.shape != q.shape:
        raise ShapeError(f"target shape {p.shape} does not match assignment {q.shape}")
    m = 2.0 * u * (p - q)
    grad_ht = ht * m.sum(axis=1)[:, None] - m @ centroids
    grad_centroids = centroids * m.sum(axis=0)[:, None] - m.T @ ht
    return grad_ht, grad_centroids
