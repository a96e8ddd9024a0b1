"""Independent reference implementations used as test oracles.

Everything here is written as literal loop transcriptions of the formulas
the library implements, deliberately sharing no code with the library
paths under test. Slow is fine; these only run on small instances.
"""

import itertools
import math

import numpy as np
from scipy.optimize import linear_sum_assignment


# ------------------------------------------------------------------- graph

def knn_bruteforce(h, k):
    """Per-node k nearest others by full sort; ties broken by lower index."""
    h = np.asarray(h, dtype=float)
    n = h.shape[0]
    out = []
    for i in range(n):
        cand = [(float(np.sum((h[i] - h[j]) ** 2)), j) for j in range(n) if j != i]
        cand.sort()
        out.append(np.array([j for _, j in cand[:k]], dtype=np.int64))
    return out


def gaussian_adjacency(h, k, sigma):
    """Dense Gaussian-kernel adjacency under the union kNN rule."""
    h = np.asarray(h, dtype=float)
    n = h.shape[0]
    nn = knn_bruteforce(h, k)
    sets = [set(ids.tolist()) for ids in nn]
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and (j in sets[i] or i in sets[j]):
                d2 = float(np.sum((h[i] - h[j]) ** 2))
                a[i, j] = math.exp(-d2 / (2.0 * sigma * sigma))
    return a


def neighborhoods_oracle(nbrs, include_self):
    """CSR (indptr, indices) built row by row, inserting each node into its own list."""
    lists = []
    for i, ids in enumerate(nbrs):
        ids = np.asarray(ids, dtype=np.int64)
        if include_self:
            ids = np.insert(ids, np.searchsorted(ids, i), i)
        lists.append(ids)
    indptr = np.zeros(len(lists) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(v) for v in lists])
    return indptr, np.concatenate(lists).astype(np.int64)


# --------------------------------------------------------------- attention

def _leaky(x, slope):
    return x if x > 0 else slope * x


def _sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def attention_oracle(w, a, slope, h, neighborhoods):
    """Per-node attention rows: softmax of LeakyReLU(a^T [W h_i || W h_j])."""
    h = np.asarray(h, dtype=float)
    rows = []
    for i, nbrs in enumerate(neighborhoods):
        logits = []
        for j in nbrs:
            cat = np.concatenate([w @ h[i], w @ h[j]])
            logits.append(_leaky(float(a @ cat), slope))
        ex = [math.exp(v) for v in logits]
        total = sum(ex)
        rows.append(np.array([v / total for v in ex]))
    return rows


def gat_layer_oracle(ws, aas, slope, h, neighborhoods):
    """Multi-head forward: per-head attention aggregation, then the sigmoid of
    the heads' mean."""
    h = np.asarray(h, dtype=float)
    n = h.shape[0]
    heads = len(ws)
    fp = ws[0].shape[0]
    per_head = []
    for k in range(heads):
        alpha = attention_oracle(ws[k], aas[k], slope, h, neighborhoods)
        agg = np.zeros((n, fp))
        for i, nbrs in enumerate(neighborhoods):
            for pos, j in enumerate(nbrs):
                agg[i] += alpha[i][pos] * (ws[k] @ h[j])
        per_head.append(agg)
    return np.vectorize(_sigmoid)(sum(per_head) / heads)


# -------------------------------------------------------------- clustering

def soft_assign_oracle(ht, mu):
    ht = np.asarray(ht, dtype=float)
    mu = np.asarray(mu, dtype=float)
    n, c = ht.shape[0], mu.shape[0]
    q = np.zeros((n, c))
    for i in range(n):
        kernels = [1.0 / (1.0 + float(np.sum((ht[i] - mu[j]) ** 2))) for j in range(c)]
        total = sum(kernels)
        for j in range(c):
            q[i, j] = kernels[j] / total
    return q


def target_oracle(q):
    q = np.asarray(q, dtype=float)
    n, c = q.shape
    f = [sum(q[i, j] for i in range(n)) for j in range(c)]
    p = np.zeros_like(q)
    for i in range(n):
        weights = [q[i, j] ** 2 / f[j] for j in range(c)]
        total = sum(weights)
        for j in range(c):
            p[i, j] = weights[j] / total
    return p


def kl_oracle(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    total = 0.0
    for i in range(p.shape[0]):
        for j in range(p.shape[1]):
            if p[i, j] > 0:
                total += p[i, j] * math.log(p[i, j] / q[i, j])
    return total


# ----------------------------------------------------------------- encoder

def decode_oracle(w1, b1, w2, b2, h):
    """Layer-by-layer decoder forward with explicit loops."""
    h = np.asarray(h, dtype=float)
    n = h.shape[0]
    hidden = np.zeros((n, w1.shape[0]))
    for i in range(n):
        for u in range(w1.shape[0]):
            pre = b1[u] + sum(w1[u, f] * h[i, f] for f in range(h.shape[1]))
            hidden[i, u] = max(pre, 0.0)
    out = np.zeros((n, w2.shape[0]))
    for i in range(n):
        for o in range(w2.shape[0]):
            out[i, o] = b2[o] + sum(w2[o, u] * hidden[i, u] for u in range(w1.shape[0]))
    return out


def reconstruction_oracle(decoded_views, views):
    """Mean over samples of summed per-view squared errors."""
    n = views[0].shape[0]
    total = 0.0
    for v, x in zip(decoded_views, views):
        for i in range(n):
            total += float(np.sum((v[i] - x[i]) ** 2))
    return total / n


def reconstruction_grads_reference(h, decoders, views):
    """Gradients of the reconstruction loss in the plain out-of-place form, one
    fresh array per expression. ``decoders`` holds (w1, b1, w2, b2) per view;
    returns (grad_h, [(w1, b1, w2, b2) gradients per view])."""
    n = h.shape[0]
    grad_h = np.zeros_like(h)
    grads = []
    for (w1, b1, w2, b2), x in zip(decoders, views):
        pre = h @ w1.T + b1
        hid = np.maximum(pre, 0.0)
        out = hid @ w2.T + b2
        d_out = (2.0 / n) * (out - x)
        d_hid = d_out @ w2
        d_pre = d_hid * (pre > 0.0)
        grads.append((d_pre.T @ h, d_pre.sum(axis=0), d_out.T @ hid, d_out.sum(axis=0)))
        grad_h += d_pre @ w1
    return grad_h, grads


# ----------------------------------------------------------------- metrics

def acc_bruteforce(pred, truth):
    """Max matched fraction over all one-to-one cluster-id mappings."""
    pred = list(pred)
    truth = list(truth)
    ps = sorted(set(pred))
    ts = sorted(set(truth))
    counts = {}
    for a, b in zip(pred, truth):
        counts[(a, b)] = counts.get((a, b), 0) + 1
    width = max(len(ps), len(ts))
    padded_t = ts + [None] * (width - len(ts))
    best = 0
    for perm in itertools.permutations(padded_t, len(ps)):
        matched = sum(
            counts.get((p_id, t_id), 0) for p_id, t_id in zip(ps, perm) if t_id is not None
        )
        best = max(best, matched)
    return best / len(pred)


def nmi_oracle(pred, truth):
    """Direct entropy / mutual-information computation."""
    pred = list(pred)
    truth = list(truth)
    n = len(pred)
    pc, tc, joint = {}, {}, {}
    for a, b in zip(pred, truth):
        pc[a] = pc.get(a, 0) + 1
        tc[b] = tc.get(b, 0) + 1
        joint[(a, b)] = joint.get((a, b), 0) + 1
    hp = -sum((c / n) * math.log(c / n) for c in pc.values())
    ht = -sum((c / n) * math.log(c / n) for c in tc.values())
    if hp == 0.0 or ht == 0.0:
        same = len(pc) == 1 and len(tc) == 1
        return 1.0 if same else 0.0
    mi = sum(
        (c / n) * math.log((c / n) / ((pc[a] / n) * (tc[b] / n))) for (a, b), c in joint.items()
    )
    return 2.0 * mi / (hp + ht)


def pair_counts_oracle(pred, truth):
    """(n11, n10, n01, n00) by explicit enumeration of all sample pairs."""
    pred = list(pred)
    truth = list(truth)
    n11 = n10 = n01 = n00 = 0
    n = len(pred)
    for i in range(n):
        for j in range(i + 1, n):
            sp = pred[i] == pred[j]
            st = truth[i] == truth[j]
            if sp and st:
                n11 += 1
            elif sp and not st:
                n10 += 1
            elif st:
                n01 += 1
            else:
                n00 += 1
    return n11, n10, n01, n00


def f_score_oracle(pred, truth):
    n11, n10, n01, _ = pair_counts_oracle(pred, truth)
    if n11 + n10 == 0 or n11 + n01 == 0:
        return 0.0
    precision = n11 / (n11 + n10)
    recall = n11 / (n11 + n01)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def ari_oracle(pred, truth):
    n11, n10, n01, n00 = pair_counts_oracle(pred, truth)
    denom = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    if denom == 0:
        mapping = {}
        inverse = {}
        for a, b in zip(list(pred), list(truth)):
            if mapping.setdefault(a, b) != b or inverse.setdefault(b, a) != a:
                return 0.0
        return 1.0
    return 2.0 * (n11 * n00 - n10 * n01) / denom


def _contingency_reference(pred, truth):
    pi, pred_ids = np.unique(pred, return_inverse=True)
    ti, truth_ids = np.unique(truth, return_inverse=True)
    table = np.zeros((pi.size, ti.size), dtype=np.int64)
    np.add.at(table, (pred_ids, truth_ids), 1)
    return table


def _partitions_identical_reference(table):
    nz = table > 0
    return bool(np.all(nz.sum(axis=0) == 1) and np.all(nz.sum(axis=1) == 1))


def _pair_counts_reference(pred, truth):
    table = _contingency_reference(pred, truth)
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


def metrics_reference(pred, truth):
    """The four scores and the report fields as the one-table rewrite of
    ``slrl.metrics`` must reproduce them bit for bit: a copy of the earlier
    per-metric code, in which every metric built its own contingency table,
    entropies and mutual information were summed one cell at a time in a
    Python loop, and ``evaluate`` called the four public functions. The
    matching there was an exact integer assignment, so scipy's assignment on
    the same table gives the same matched count. Returns the dict of
    ``MetricsReport.as_dict()``."""
    pred = np.asarray(pred).ravel()
    truth = np.asarray(truth).ravel()
    n = pred.shape[0]
    table = _contingency_reference(pred, truth)
    rows, cols = linear_sum_assignment(table, maximize=True)
    acc = int(table[rows, cols].sum()) / n

    a = table.sum(axis=1)
    b = table.sum(axis=0)
    h_pred = float(sum((c / n) * np.log(n / c) for c in a if c > 0))
    h_truth = float(sum((c / n) * np.log(n / c) for c in b if c > 0))
    if h_pred == 0.0 or h_truth == 0.0:
        nmi = 1.0 if _partitions_identical_reference(table) else 0.0
    else:
        mi = 0.0
        for i in range(table.shape[0]):
            for j in range(table.shape[1]):
                c = table[i, j]
                if c > 0:
                    mi += (c / n) * np.log(n * c / (a[i] * b[j]))
        value = 2.0 * mi / (h_pred + h_truth)
        nmi = float(min(1.0, max(0.0, value)))

    f_score = ari = 1.0
    if n >= 2:
        n11, n10, n01, n00 = _pair_counts_reference(pred, truth)
        if n11 + n10 == 0 or n11 + n01 == 0:
            f_score = 0.0
        else:
            precision = n11 / (n11 + n10)
            recall = n11 / (n11 + n01)
            if precision + recall == 0.0:
                f_score = 0.0
            else:
                f_score = 2.0 * precision * recall / (precision + recall)
        denom = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
        if denom == 0:
            ari = 1.0 if _partitions_identical_reference(table) else 0.0
        else:
            ari = 2.0 * (n11 * n00 - n10 * n01) / denom
    return {
        "acc": acc,
        "nmi": nmi,
        "f_score": f_score,
        "ari": ari,
        "n": int(n),
        "c_pred": int(np.unique(pred).size),
        "c_true": int(np.unique(truth).size),
    }


def partitions_up_to(n, max_blocks):
    """All set partitions of n items with at most max_blocks blocks.

    Yields canonical label vectors (restricted growth strings).
    """

    def rec(prefix, used):
        if len(prefix) == n:
            yield list(prefix)
            return
        for c in range(used):  # reuse an existing block
            yield from rec(prefix + [c], used)
        if used < max_blocks:  # open a new block
            yield from rec(prefix + [used], used + 1)

    yield from rec([0], 1)
