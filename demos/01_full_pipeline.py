#!/usr/bin/env python3
"""End-to-end run on synthetic multi-view data.

Generates three clusters observed through two noisy linear views, trains
the full pipeline (latent reconstruction, kNN graph, multi-head attention,
KL sharpening), and prints the loss trajectory plus final clustering
quality against the generator's ground truth.
"""

import numpy as np

from slrl import TrainConfig, synth_multiview, train

ds = synth_multiview(clusters=3, per_cluster=50, view_dims=[8, 8], noise=0.05, seed=0)
print(f"dataset: {ds.n_samples} samples, views {ds.dims}, {ds.n_clusters()} clusters")

report = train(ds, TrainConfig(seed=0))

pre = [r for r in report.epochs if r.phase == "pretrain"]
joint = [r for r in report.epochs if r.phase == "joint"]
print(f"\npretraining ({len(pre)} epochs of reconstruction only):")
print(f"  L_r {pre[0].lr:.4f} -> {pre[-1].lr:.4f}")

print(f"\njoint phase ({len(joint)} epochs):")
for i in range(0, len(joint), max(1, len(joint) // 8)):
    r = joint[i]
    churn = "" if r.churn is None else f"  churn {r.churn:.3f}"
    print(f"  epoch {i:3d}: L_r {r.lr:.4f}  L_c {r.lc:.5f}  L {r.loss:.4f}{churn}")
if joint and joint[-1].stop:
    print(f"  stopped at joint epoch {len(joint)} ({joint[-1].stop})")

m = report.final_eval
print(f"\nfinal: ACC {m.acc:.3f}  NMI {m.nmi:.3f}  F {m.f_score:.3f}  ARI {m.ari:.3f}")

sizes = np.bincount(report.labels_pred)
print("predicted cluster sizes:", sizes.tolist())
