"""Clustering agreement metrics: ACC, NMI, pairwise F-score, ARI.

``evaluate`` is the one entry point: it builds one contingency table, the
count of samples in each (pred cluster, truth cluster) pair, and returns all
four scores from it. No score depends on the table's row or column order, so
all four are label-permutation invariant. The library returns fractions in
[0, 1] (ARI in [-1, 1]); percentages only appear in reports.

Conventions pinned here so numbers are reproducible:
  * ACC uses an optimal one-to-one cluster mapping, not a greedy mapping;
    surplus ids of a rectangular table stay unmatched. The mapping comes
    from an in-house exact assignment on the contingency matrix
    (Kuhn-Munkres with row and column potentials, in Python integers), so
    scoring loads no optimisation library.
  * NMI normalizes mutual information by the arithmetic mean of the two
    label entropies; if either entropy is zero the score is 1 when the
    partitions are identical and 0 otherwise.
  * The F-score is the pairwise variant: precision/recall over the C(N,2)
    sample pairs, a pair being positive when co-clustered; 0 when undefined.
  * ARI comes from the same pair counts; where its denominator is zero it is
    1 for identical partitions and 0 otherwise. With one sample there are no
    pairs, and F and ARI are both 1.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "MetricsReport",
    "evaluate",
    "aggregate_rows",
]


def _check_labels(pred, truth):
    pred = np.asarray(pred).ravel()
    truth = np.asarray(truth).ravel()
    if pred.shape[0] != truth.shape[0]:
        raise ParameterError(f"label lengths differ: {pred.shape[0]} vs {truth.shape[0]}")
    if pred.shape[0] == 0:
        raise ParameterError("no labels to score")
    return pred, truth


def _table(pred, truth) -> np.ndarray:
    """Contingency table: ``[i, j]`` counts the samples in pred cluster i and truth
    cluster j, the clusters in the sorted order of their labels."""
    pred, truth = pred.tolist(), truth.tolist()
    pred_ids = {label: i for i, label in enumerate(sorted(set(pred)))}
    truth_ids = {label: j for j, label in enumerate(sorted(set(truth)))}
    table = np.zeros((len(pred_ids), len(truth_ids)), dtype=np.int64)
    for (a, b), count in Counter(zip(pred, truth)).items():
        table[pred_ids[a], truth_ids[b]] = count
    return table


def _partitions_identical(table: np.ndarray) -> bool:
    # Identical up to relabeling: exactly one nonzero cell per row and per column.
    nz = table > 0
    return bool(np.all(nz.sum(axis=0) == 1) and np.all(nz.sum(axis=1) == 1))


def _max_matched(table: np.ndarray) -> int:
    """Largest sum of ``table[i, col(i)]`` over one-to-one row-to-column maps.

    Shortest augmenting paths with row and column potentials (Kuhn-Munkres,
    in the form of Jonker & Volgenant): O(r^2 c) for an r x c table with
    r <= c, in plain Python, which beats numpy on the small tables scoring
    sees. The costs are the negated counts as Python ints, so every
    potential, and the total, is exact. A tall table is transposed; its
    surplus rows stay unmatched.
    """
    cost = [[-x for x in row] for row in np.asarray(table, dtype=np.int64).tolist()]
    if len(cost) > len(cost[0]):
        cost = [list(col) for col in zip(*cost)]
    n, m = len(cost), len(cost[0])
    # 1-based rows and columns; column 0 is the root of each augmenting search
    u, v = [0] * (n + 1), [0] * (m + 1)
    owner = [0] * (m + 1)  # row matched to each column, 0 = free
    way = [0] * (m + 1)  # previous column on the shortest path
    for i in range(1, n + 1):
        owner[0] = i
        j0 = 0
        minv = [math.inf] * (m + 1)
        used = [False] * (m + 1)
        while owner[j0] != 0:
            used[j0] = True
            i0 = owner[j0]
            row, u0 = cost[i0 - 1], u[i0]
            delta, j1 = math.inf, 0
            for j in range(1, m + 1):
                if not used[j]:
                    cur = row[j - 1] - u0 - v[j]
                    if cur < minv[j]:
                        minv[j], way[j] = cur, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(m + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0 != 0:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    return -sum(cost[owner[j] - 1][j - 1] for j in range(1, m + 1) if owner[j])


def _sum_in_order(terms: np.ndarray) -> float:
    # one addition after another, left to right; np.sum adds pairwise from
    # 8 terms on, which would move the last bits
    return float(np.add.accumulate(terms)[-1])


def _nmi(table: np.ndarray, n: int) -> float:
    a, b = table.sum(axis=1), table.sum(axis=0)
    # Entropy written as sum (c/n) log(n/c) so that identical partitions give
    # MI and entropy as the same floating-point summation. Every label occurs,
    # so every marginal count is positive.
    h_pred, h_truth = (_sum_in_order((m / n) * np.log(n / m)) for m in (a, b))
    if h_pred == 0.0 or h_truth == 0.0:
        return 1.0 if _partitions_identical(table) else 0.0
    i, j = np.nonzero(table)  # the nonzero cells in row-major order
    c = table[i, j]
    mi = _sum_in_order((c / n) * np.log(n * c / (a[i] * b[j])))
    value = 2.0 * mi / (h_pred + h_truth)
    return float(min(1.0, max(0.0, value)))


def _pairs(table: np.ndarray, n: int) -> tuple:
    """Co-membership counts over the C(n,2) sample pairs: (n11, n10, n01, n00)
    are the pairs co-clustered in both, pred only, truth only and neither."""
    n11 = int((table * (table - 1)).sum()) // 2
    a, b = table.sum(axis=1), table.sum(axis=0)
    n10 = int((a * (a - 1)).sum()) // 2 - n11
    n01 = int((b * (b - 1)).sum()) // 2 - n11
    return n11, n10, n01, n * (n - 1) // 2 - n11 - n10 - n01


def _f_score(pairs: tuple) -> float:
    n11, n10, n01, _ = pairs
    if n11 + n10 == 0 or n11 + n01 == 0:
        return 0.0
    precision = n11 / (n11 + n10)
    recall = n11 / (n11 + n01)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _ari(table: np.ndarray, pairs: tuple) -> float:
    n11, n10, n01, n00 = pairs
    denom = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    if denom == 0:
        return 1.0 if _partitions_identical(table) else 0.0
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
        return asdict(self)

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
    """All four metrics in one report, from one contingency table."""
    pred, truth = _check_labels(pred, truth)
    table = _table(pred, truth)
    n = pred.shape[0]
    c_pred, c_true = table.shape
    pairs = _pairs(table, n)
    return MetricsReport(
        acc=_max_matched(table) / n,
        nmi=_nmi(table, n),
        f_score=_f_score(pairs) if n >= 2 else 1.0,
        ari=_ari(table, pairs) if n >= 2 else 1.0,
        n=n,
        c_pred=c_pred,
        c_true=c_true,
    )


# Not part of the API: the benchmark's own tests import these two names, and
# ``bench/`` changes only together with the benchmark (ROADMAP item 1).
def accuracy(pred, truth) -> float:
    return evaluate(pred, truth).acc


def nmi(pred, truth) -> float:
    return evaluate(pred, truth).nmi


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
