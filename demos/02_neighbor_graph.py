#!/usr/bin/env python3
"""Neighbor-graph construction on a point cloud.

Shows exact kNN selection with deterministic tie-breaking, the union
symmetrization rule, and the Gaussian edge weights of ``build_graph`` at the
median-distance sigma.
The graph is stored as CSR arrays: ``indptr``, ``indices`` and ``weights``.
"""

import numpy as np

from slrl import build_graph, knn_indices
from slrl.graph import dump_edges

# five points on a line: node 2 is equidistant from 1 and 3, and the tie
# goes to the smaller index
line = np.arange(5.0).reshape(-1, 1)
print("kNN on a line, k=1:", [ids.tolist() for ids in knn_indices(line, 1)])

rng = np.random.default_rng(7)
h = np.vstack([
    rng.normal(size=(6, 2)) * 0.3,
    rng.normal(size=(6, 2)) * 0.3 + [3.0, 0.0],
])

g = build_graph(h, k=3)
print(f"\nGaussian graph: n={g.n}, k={g.k}, heuristic sigma={g.sigma:.4f}")
print("degrees:", np.diff(g.indptr).tolist())
print("weight range: (%.4f, %.4f]" % (g.weights.min(), g.weights.max()))

# symmetry: each stored edge has the identical weight in both directions
dense = np.zeros((g.n, g.n))
dense[np.repeat(np.arange(g.n), np.diff(g.indptr)), g.indices] = g.weights
assert np.array_equal(dense, dense.T)
print("symmetric: yes")

print("\nedge dump (first 5 lines):")
print("\n".join(dump_edges(g).splitlines()[:5]))
