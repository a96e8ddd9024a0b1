"""Output checks computed apart from the program.

Nothing here calls into ``slrl``: the scores, the neighbor graph and the
target distribution are recomputed from their definitions, and binary
matrices are read by a reader of the benchmark's own. Each check returns a
list of failure messages, empty when the output is correct.
"""

from __future__ import annotations

import itertools
import math
import struct
from pathlib import Path

import numpy as np

ROW_SUM_TOL = 1e-12
SCORE_TOL = 1e-12
# relative distance gap under which two neighbor candidates count as tied:
# the program's Gram-form distances and the direct differences used here
# round differently only far below this
TIE_RTOL = 1e-9


def read_mvm(path) -> np.ndarray:
    """A matrix in the binary layout: b"MVM1", u64 rows, u64 cols, float64 LE row-major."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"MVM1" or len(raw) < 20:
        raise ValueError(f"{path}: not an MVM1 matrix")
    rows, cols = struct.unpack("<QQ", raw[4:20])
    if len(raw) != 20 + 8 * rows * cols:
        raise ValueError(f"{path}: size does not match {rows}x{cols}")
    return np.frombuffer(raw, dtype="<f8", offset=20).reshape(rows, cols).astype(np.float64)


def brute_force_accuracy(pred, truth) -> float:
    """Best agreement over every one-to-one map between cluster ids, tried one by one."""
    pred = [int(x) for x in pred]
    truth = [int(x) for x in truth]
    p_ids, t_ids = sorted(set(pred)), sorted(set(truth))
    if max(len(p_ids), len(t_ids)) > 8:
        raise ValueError("brute-force accuracy is limited to 8 clusters")
    pairs = list(zip(pred, truth))
    best = 0
    if len(p_ids) <= len(t_ids):
        for image in itertools.permutations(t_ids, len(p_ids)):
            mapping = dict(zip(p_ids, image))
            best = max(best, sum(1 for p, t in pairs if mapping[p] == t))
    else:
        for image in itertools.permutations(p_ids, len(t_ids)):
            mapping = dict(zip(t_ids, image))
            best = max(best, sum(1 for p, t in pairs if mapping[t] == p))
    return best / len(pairs)


def contingency_nmi(pred, truth) -> float:
    """Mutual information over the arithmetic mean of the two entropies.

    When either partition has zero entropy the score is 1 for identical
    partitions and 0 otherwise.
    """
    pred = [int(x) for x in pred]
    truth = [int(x) for x in truth]
    n = len(pred)
    table = {}
    for p, t in zip(pred, truth):
        table[p, t] = table.get((p, t), 0) + 1
    rows, cols = {}, {}
    for (p, t), c in table.items():
        rows[p] = rows.get(p, 0) + c
        cols[t] = cols.get(t, 0) + c
    h_pred = sum((c / n) * math.log(n / c) for c in rows.values())
    h_truth = sum((c / n) * math.log(n / c) for c in cols.values())
    if h_pred == 0.0 or h_truth == 0.0:
        identical = len(table) == len(rows) == len(cols)
        return 1.0 if identical else 0.0
    mi = sum((c / n) * math.log(n * c / (rows[p] * cols[t])) for (p, t), c in table.items())
    return min(1.0, max(0.0, 2.0 * mi / (h_pred + h_truth)))


def check_scores(pred, truth, program_acc, program_nmi, floors, tol=SCORE_TOL):
    """Recompute ACC and NMI, compare with the program's figures, apply the floors."""
    acc = brute_force_accuracy(pred, truth)
    nmi = contingency_nmi(pred, truth)
    errors = []
    if abs(acc - program_acc) > tol:
        errors.append(f"ACC {program_acc!r} from the program, {acc!r} recomputed")
    if abs(nmi - program_nmi) > tol:
        errors.append(f"NMI {program_nmi!r} from the program, {nmi!r} recomputed")
    acc_floor, nmi_floor = floors
    if acc < acc_floor:
        errors.append(f"ACC {acc:.4f} below the floor {acc_floor}")
    if nmi < nmi_floor:
        errors.append(f"NMI {nmi:.4f} below the floor {nmi_floor}")
    return acc, nmi, errors


def _sq_dists_direct(h: np.ndarray, block: int = 32) -> np.ndarray:
    """Squared Euclidean distances from explicit differences, a block of rows at a time."""
    n = h.shape[0]
    d = np.empty((n, n))
    for lo in range(0, n, block):
        diff = h[lo : lo + block, None, :] - h[None, :, :]
        d[lo : lo + block] = np.einsum("ijk,ijk->ij", diff, diff)
    return d


def _pair_codes(i, j, n) -> np.ndarray:
    i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
    return np.unique(np.minimum(i, j) * n + np.maximum(i, j))


def check_union_knn(h, k: int, edges_i, edges_j):
    """The program's undirected edge list against a union-kNN recomputed here.

    ``edges_i``/``edges_j`` list each undirected edge once. Neighbors are the
    k nearest other nodes with ties going to the smaller index; an edge may
    differ from the recomputed set only at an end whose k-th and (k+1)-th
    nearest distances tie within rounding, and only if its own distance
    ties them too. Returns (number of tie-explained differences, errors).
    """
    h = np.asarray(h, dtype=np.float64)
    n = h.shape[0]
    edges_i = np.asarray(edges_i, dtype=np.int64)
    edges_j = np.asarray(edges_j, dtype=np.int64)
    errors = []
    if np.any(edges_i == edges_j):
        errors.append(f"{int(np.sum(edges_i == edges_j))} self-loops")
    got = _pair_codes(edges_i, edges_j, n)
    if got.size != edges_i.size:
        errors.append(f"{edges_i.size - got.size} duplicate edges")
    d = _sq_dists_direct(h)
    np.fill_diagonal(d, np.inf)
    order = np.argsort(d, axis=1, kind="stable")
    rows = np.arange(n)
    kth = d[rows, order[:, k - 1]]
    # a node's cut is ambiguous when its (k+1)-th nearest ties its k-th
    after = d[rows, order[:, k]] if k < n - 1 else np.full(n, np.inf)
    tol = TIE_RTOL * np.maximum(1.0, kth)
    ambiguous = np.abs(after - kth) <= tol
    want = _pair_codes(np.repeat(rows, k), order[:, :k].ravel(), n)
    ties = 0
    for code in np.setxor1d(got, want):
        i, j = divmod(int(code), n)
        if any(ambiguous[a] and abs(d[a, b] - kth[a]) <= tol[a] for a, b in ((i, j), (j, i))):
            ties += 1
        else:
            side = "extra" if code in got else "missing"
            errors.append(f"{side} edge ({i}, {j}) at squared distance {d[i, j]:.6g}")
            if len(errors) > 10:
                break
    return ties, errors


def check_neighbor_lists(nbrs) -> list:
    """Per-node neighbor lists: no self-loops, j lists i whenever i lists j."""
    errors = []
    directed = set()
    for i, ids in enumerate(nbrs):
        for j in ids:
            directed.add((i, int(j)))
    loops = [i for i, j in directed if i == j]
    if loops:
        errors.append(f"self-loops at nodes {loops[:10]}")
    asymmetric = [(i, j) for i, j in directed if (j, i) not in directed]
    if asymmetric:
        errors.append(f"{len(asymmetric)} one-way edges, e.g. {asymmetric[:5]}")
    return errors


def check_assignments(q, labels_pred) -> list:
    """Rows of q non-negative and summing to 1; hard labels equal to argmax of q."""
    q = np.asarray(q, dtype=np.float64)
    errors = []
    if not np.isfinite(q).all() or (q < 0.0).any():
        errors.append("q has negative or non-finite entries")
    gap = float(np.abs(q.sum(axis=1) - 1.0).max())
    if gap > ROW_SUM_TOL:
        errors.append(f"q row sums off 1 by up to {gap:.3g}")
    if not np.array_equal(np.asarray(labels_pred), np.argmax(q, axis=1)):
        errors.append("hard labels differ from argmax of q")
    return errors


def sharpened_target(q) -> np.ndarray:
    """p_ij = (q_ij^2 / f_j) / sum_j' (q_ij'^2 / f_j'), with f_j the column sums of q."""
    q = np.asarray(q, dtype=np.float64)
    f = q.sum(axis=0)
    w = q * q / f
    return w / w.sum(axis=1, keepdims=True)


def check_target(q, p, rtol: float = 1e-8) -> list:
    """p against q squared over cluster frequency, renormalised; rtol covers 9-digit text."""
    want = sharpened_target(q)
    p = np.asarray(p, dtype=np.float64)
    if p.shape != want.shape:
        return [f"p has shape {p.shape}, q gives {want.shape}"]
    if not np.allclose(p, want, rtol=rtol, atol=1e-12):
        return [f"p differs from q^2/f renormalised by up to {float(np.abs(p - want).max()):.3g}"]
    return []


def check_losses(lr, lc, total, gamma) -> list:
    """Every loss finite, KL non-negative, L = L_r + gamma L_c."""
    lr, lc, total = (np.asarray(x, dtype=np.float64) for x in (lr, lc, total))
    errors = []
    if not (np.isfinite(lr).all() and np.isfinite(lc).all() and np.isfinite(total).all()):
        errors.append("non-finite loss")
    if (lc < 0.0).any():
        errors.append(f"negative KL {float(lc.min())!r}")
    if not np.allclose(total, lr + gamma * lc, rtol=1e-8, atol=1e-12):
        errors.append("L differs from L_r + gamma L_c")
    return errors
