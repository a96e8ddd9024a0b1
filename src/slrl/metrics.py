"""Clustering agreement metrics: ACC, NMI, pairwise F-score, ARI.

All four are label-permutation invariant and operate on integer label
vectors. The library returns fractions in [0, 1] (ARI in [-1, 1]);
percentages only appear in reports.

Conventions pinned here so numbers are reproducible:
  * ACC uses an optimal one-to-one cluster mapping, not a greedy mapping.
    The mapping comes from an in-house exact assignment on the contingency
    matrix (Kuhn-Munkres with row and column potentials, in integers), so
    scoring loads no optimisation library.
  * NMI normalizes mutual information by the arithmetic mean of the two
    label entropies; if either entropy is zero the score is 1 when the
    partitions are identical and 0 otherwise.
  * The F-score is the pairwise variant: precision/recall over the
    C(N,2) sample pairs, a pair being positive when co-clustered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "accuracy",
    "nmi",
    "pair_f_score",
    "ari",
    "MetricsReport",
    "evaluate",
    "aggregate_rows",
]


def _check_labels(pred, truth, min_len: int = 1):
    pred = np.asarray(pred).ravel()
    truth = np.asarray(truth).ravel()
    if pred.shape[0] != truth.shape[0]:
        raise ParameterError(f"label lengths differ: {pred.shape[0]} vs {truth.shape[0]}")
    if pred.shape[0] < min_len:
        raise ParameterError(f"need at least {min_len} samples, got {pred.shape[0]}")
    return pred, truth


def _contingency(pred, truth):
    """Contingency matrix C[i, j] = #{samples in pred cluster i and truth cluster j}."""
    pi, pred_ids = np.unique(pred, return_inverse=True)
    ti, truth_ids = np.unique(truth, return_inverse=True)
    table = np.zeros((pi.size, ti.size), dtype=np.int64)
    np.add.at(table, (pred_ids, truth_ids), 1)
    return table


def _partitions_identical(table: np.ndarray) -> bool:
    # Identical up to relabeling: exactly one nonzero cell per row and per column.
    nz = table > 0
    return bool(np.all(nz.sum(axis=0) == 1) and np.all(nz.sum(axis=1) == 1))


def _max_matched(table: np.ndarray) -> int:
    """Largest sum of ``table[i, col(i)]`` over one-to-one row-to-column maps.

    Shortest augmenting paths with row and column potentials (Kuhn-Munkres,
    in the form of Jonker & Volgenant): O(r^2 c) for an r x c table with
    r <= c, each column update one numpy operation. The costs are the
    negated integer counts, so every potential, and the total, is exact.
    A tall table is transposed; its surplus rows stay unmatched.
    """
    cost = -np.asarray(table, dtype=np.int64)
    if cost.shape[0] > cost.shape[1]:
        cost = cost.T
    n, m = cost.shape
    # 1-based rows and columns; column 0 is the root of each augmenting search
    a = np.zeros((n + 1, m + 1), dtype=np.int64)
    a[1:, 1:] = cost
    u = np.zeros(n + 1, dtype=np.int64)
    v = np.zeros(m + 1, dtype=np.int64)
    owner = np.zeros(m + 1, dtype=np.intp)  # row matched to each column, 0 = free
    way = np.zeros(m + 1, dtype=np.intp)  # previous column on the shortest path
    inf = np.iinfo(np.int64).max  # infinite slack, kept in int64
    for i in range(1, n + 1):
        owner[0] = i
        j0 = 0
        minv = np.full(m + 1, inf, dtype=np.int64)
        used = np.zeros(m + 1, dtype=bool)
        while owner[j0] != 0:
            used[j0] = True
            i0 = owner[j0]
            cur = a[i0] - u[i0] - v
            better = ~used & (cur < minv)
            minv[better] = cur[better]
            way[better] = j0
            slack = np.where(used, inf, minv)
            j1 = int(slack.argmin())
            delta = slack[j1]
            u[owner[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
        while j0 != 0:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    cols = np.flatnonzero(owner[1:]) + 1
    return -int(a[owner[cols], cols].sum())


def accuracy(pred, truth) -> float:
    """Best agreement fraction over one-to-one mappings of cluster ids.

    When the partitions have different numbers of clusters the contingency
    matrix is rectangular; the assignment simply leaves the surplus ids
    unmatched (equivalent to padding with zero rows/columns).
    """
    pred, truth = _check_labels(pred, truth)
    table = _contingency(pred, truth)
    return _max_matched(table) / pred.shape[0]


def nmi(pred, truth) -> float:
    """Mutual information normalized by the arithmetic mean of entropies."""
    pred, truth = _check_labels(pred, truth)
    table = _contingency(pred, truth)
    n = pred.shape[0]
    a = table.sum(axis=1)
    b = table.sum(axis=0)
    # Entropy written as sum (c/n) log(n/c) so that identical partitions give
    # MI and entropy as the same floating-point summation.
    h_pred = float(sum((c / n) * np.log(n / c) for c in a if c > 0))
    h_truth = float(sum((c / n) * np.log(n / c) for c in b if c > 0))
    if h_pred == 0.0 or h_truth == 0.0:
        return 1.0 if _partitions_identical(table) else 0.0
    mi = 0.0
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            c = table[i, j]
            if c > 0:
                mi += (c / n) * np.log(n * c / (a[i] * b[j]))
    value = 2.0 * mi / (h_pred + h_truth)
    return float(min(1.0, max(0.0, value)))


def _pair_counts(pred, truth):
    """Co-membership pair counts over the C(N,2) sample pairs.

    Returns (n11, n10, n01, n00): pairs co-clustered in (both, pred only,
    truth only, neither). Computed from the contingency table.
    """
    table = _contingency(pred, truth)
    n = int(table.sum())

    def choose2(x):
        return int(np.sum(x.astype(np.int64) * (x.astype(np.int64) - 1) // 2))

    n11 = choose2(table)
    pairs_pred = choose2(table.sum(axis=1))
    pairs_truth = choose2(table.sum(axis=0))
    total = n * (n - 1) // 2
    n10 = pairs_pred - n11
    n01 = pairs_truth - n11
    n00 = total - n11 - n10 - n01
    return n11, n10, n01, n00


def pair_f_score(pred, truth) -> float:
    """Harmonic mean of pairwise precision and recall; 0 when undefined."""
    pred, truth = _check_labels(pred, truth, min_len=2)
    n11, n10, n01, _ = _pair_counts(pred, truth)
    if n11 + n10 == 0 or n11 + n01 == 0:
        return 0.0
    precision = n11 / (n11 + n10)
    recall = n11 / (n11 + n01)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def ari(pred, truth) -> float:
    """Adjusted Rand index from the contingency table.

    Degenerate inputs (both partitions all singletons or both one cluster)
    are defined as 1 for identical partitions and 0 otherwise.
    """
    pred, truth = _check_labels(pred, truth, min_len=2)
    n11, n10, n01, n00 = _pair_counts(pred, truth)
    denom = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    if denom == 0:
        return 1.0 if _partitions_identical(_contingency(pred, truth)) else 0.0
    return 2.0 * (n11 * n00 - n10 * n01) / denom


@dataclass
class MetricsReport:
    """The four agreement scores for one prediction against ground truth."""

    acc: float
    nmi: float
    f_score: float
    ari: float
    n: int
    c_pred: int
    c_true: int

    def as_dict(self) -> dict:
        return {
            "acc": self.acc,
            "nmi": self.nmi,
            "f_score": self.f_score,
            "ari": self.ari,
            "n": self.n,
            "c_pred": self.c_pred,
            "c_true": self.c_true,
        }

    def to_text(self) -> str:
        """Flat key-value block, one ``key value`` pair per line."""
        lines = []
        for key, value in self.as_dict().items():
            if isinstance(value, float):
                lines.append(f"{key} {value:.6f}")
            else:
                lines.append(f"{key} {value}")
        return "\n".join(lines) + "\n"


def evaluate(pred, truth) -> MetricsReport:
    """All four metrics in one report."""
    pred, truth = _check_labels(pred, truth)
    return MetricsReport(
        acc=accuracy(pred, truth),
        nmi=nmi(pred, truth),
        f_score=pair_f_score(pred, truth) if pred.shape[0] >= 2 else 1.0,
        ari=ari(pred, truth) if pred.shape[0] >= 2 else 1.0,
        n=int(pred.shape[0]),
        c_pred=int(np.unique(pred).size),
        c_true=int(np.unique(truth).size),
    )


def aggregate_rows(reports) -> str:
    """Mean and standard deviation over repeated runs, as delimited text.

    Header row then one ``metric,mean,std`` line per metric. Standard
    deviation is the population deviation over the repeats.
    """
    if not reports:
        raise ParameterError("no reports to aggregate")
    stack = np.array([[r.acc, r.nmi, r.f_score, r.ari] for r in reports], dtype=np.float64)
    mean = stack.mean(axis=0)
    std = stack.std(axis=0)
    lines = ["metric,mean,std"]
    for name, m, s in zip(["acc", "nmi", "f_score", "ari"], mean, std):
        lines.append(f"{name},{m:.6f},{s:.6f}")
    return "\n".join(lines) + "\n"
