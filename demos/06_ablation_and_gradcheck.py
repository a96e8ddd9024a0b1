#!/usr/bin/env python3
"""Structure ablation and gradient verification.

Compares the three pipeline variants on a noisy synthetic task (latent
only; latent + attention; full model with the clustering loss) and then
verifies every analytic gradient of the joint objective against central
differences on a small instance.
"""

import numpy as np

from slrl import TrainConfig, ablate, gradcheck, synth_multiview

print("ablation on a hard synthetic (noise 0.3), 3 seeds:")
rows = {"a": [], "b": [], "c": []}
for seed in range(3):
    ds = synth_multiview(3, 50, [8, 8], noise=0.3, seed=seed)
    reports = ablate(ds, TrainConfig(seed=seed))
    for mode, rep in reports.items():
        rows[mode].append(rep.final_eval.acc)

labels = {"a": "(a) latent only", "b": "(b) latent + attention", "c": "(c) full model"}
for mode in "abc":
    accs = np.array(rows[mode])
    print(f"  {labels[mode]:24s} ACC {accs.mean():.3f} +- {accs.std():.3f}")

print("\ngradient verification (12 samples, 2 views, frozen graph and target):")
ds = synth_multiview(3, 4, [4, 3], noise=0.1, seed=0)
report = gradcheck(ds, TrainConfig(latent_dim=5, k=3, heads=2, gat_layers=1, seed=0))
for group, err in report.errors.items():
    print(f"  {group:10s} max relative error {err:.2e}")
print("  all groups below 1e-4:", report.ok())
