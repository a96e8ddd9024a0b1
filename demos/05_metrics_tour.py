#!/usr/bin/env python3
"""The four partition-agreement metrics and their edge conventions.

ACC maps cluster ids one-to-one before counting agreement, so relabeling
never changes a score; NMI/F/ARI carry explicit conventions for the
degenerate partitions where the textbook formulas divide by zero.
"""

import numpy as np

from slrl import evaluate
from slrl.metrics import aggregate_rows

truth = [0, 0, 0, 1, 1, 2]
pred_perfect = [2, 2, 2, 0, 0, 1]  # same partition, shuffled ids
print("relabeled perfect prediction:")
rep = evaluate(pred_perfect, truth)
print("  ACC %.3f  NMI %.3f  F %.3f  ARI %.3f" % (rep.acc, rep.nmi, rep.f_score, rep.ari))

print("\nhand-checkable cases:")
print("  ACC([0,0,1,1] vs [0,1,1,1]) =", evaluate([0, 0, 1, 1], [0, 1, 1, 1]).acc)
print("  ARI([0,0,1,1] vs [0,1,0,1]) =", evaluate([0, 0, 1, 1], [0, 1, 0, 1]).ari)

print("\ndegenerate conventions:")
print("  NMI(all-same vs varied) =", evaluate([0, 0, 0, 0], [0, 1, 0, 1]).nmi)
print("  F(singletons vs pairs)  =", evaluate([0, 1, 2, 3], [0, 0, 1, 1]).f_score)
print("  ARI(two identical one-cluster partitions) =", evaluate([0, 0, 0], [5, 5, 5]).ari)

# reports aggregate over repeated runs as mean and standard deviation
rng = np.random.default_rng(0)
reports = []
for _ in range(5):
    noisy = [t if rng.random() > 0.15 else int(rng.integers(3)) for t in truth]
    reports.append(evaluate(noisy, truth))
print("\naggregate over 5 noisy predictions:")
print(aggregate_rows(reports))
