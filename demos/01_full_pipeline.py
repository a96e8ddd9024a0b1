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

pre = report.pretrain_epochs_run
print(f"\npretraining ({pre} epochs of reconstruction only):")
print(f"  L_r {report.lr_history[0]:.4f} -> {report.lr_history[pre - 1]:.4f}")

print(f"\njoint phase ({report.joint_epochs_run} epochs):")
for i in range(pre, len(report.loss_history), max(1, report.joint_epochs_run // 8)):
    print(
        f"  epoch {i - pre:3d}: L_r {report.lr_history[i]:.4f}"
        f"  L_c {report.lc_history[i]:.5f}  L {report.loss_history[i]:.4f}"
    )
if report.early_stopped_at:
    print(f"  stopped at joint epoch {report.early_stopped_at} ({report.early_stop_reason})")

m = report.final_eval
print(f"\nfinal: ACC {m.acc:.3f}  NMI {m.nmi:.3f}  F {m.f_score:.3f}  ARI {m.ari:.3f}")

sizes = np.bincount(report.labels_pred)
print("predicted cluster sizes:", sizes.tolist())
