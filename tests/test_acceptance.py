"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the summary lines.
The synthetic training fixtures are shared across criteria, so the whole
module costs a few minutes, dominated by the exhaustive metrics check.
"""

import time

import numpy as np
import pytest

from slrl.cluster import kl_loss, soft_assign, target_distribution
from slrl.data import synth_multiview
from slrl.gat import LEAKY_SLOPE, attention_coeffs, init_gat_stack, stack_forward
from slrl.graph import build_graph
from slrl.metrics import evaluate
from slrl.numerics import make_rng
from slrl.train import TrainConfig, ablate, gradcheck, train

from oracles import (
    acc_bruteforce,
    ari_oracle,
    attention_oracle,
    f_score_oracle,
    gat_layer_oracle,
    gaussian_adjacency,
    kl_oracle,
    nmi_oracle,
    partitions_up_to,
    soft_assign_oracle,
    target_oracle,
)

EASY_SEEDS = tuple(range(5))
HARD_SEEDS = tuple(range(5))
SWEEP_KS = tuple(range(5, 16))


def announce(name, ok, detail):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def easy_runs():
    reports = []
    start = time.time()
    for seed in EASY_SEEDS:
        ds = synth_multiview(3, 50, [8, 8], noise=0.05, seed=seed)
        reports.append(train(ds, TrainConfig(seed=seed)))
    return reports, time.time() - start


@pytest.fixture(scope="session")
def sweep_runs():
    ds = synth_multiview(3, 50, [8, 8], noise=0.05, seed=0)
    return {k: train(ds, TrainConfig(seed=0, k=k)) for k in SWEEP_KS}


@pytest.fixture(scope="session")
def ablation_runs():
    runs = []
    for seed in HARD_SEEDS:
        ds = synth_multiview(3, 50, [8, 8], noise=0.3, seed=seed)
        runs.append(ablate(ds, TrainConfig(seed=seed)))
    return runs


def test_criterion_gradient_suite():
    # seeded 12-sample, two-view instance; every group under 1e-4 in < 30 s
    ds = synth_multiview(3, 4, [4, 3], noise=0.1, seed=0)
    assert ds.n_samples == 12 and ds.n_views == 2
    cfg = TrainConfig(latent_dim=5, k=3, heads=2, gat_layers=1, seed=0)
    start = time.time()
    report = gradcheck(ds, cfg)
    elapsed = time.time() - start
    ok = all(err < 1e-4 for err in report.errors.values()) and elapsed < 30.0
    detail = (
        ", ".join(f"{g}={e:.2e}" for g, e in report.errors.items()) + f", {elapsed:.1f}s"
    )
    announce("gradient-suite", ok, detail)


def test_criterion_oracle_equivalence():
    worst = 0.0

    def track(a, b):
        nonlocal worst
        worst = max(worst, float(np.max(np.abs(np.asarray(a) - np.asarray(b)))))

    for seed in range(20):
        rng = make_rng(seed)
        # neighbor-graph weights
        h = rng.normal(size=(10, 3))
        g = build_graph(h, k=3)
        dense = np.zeros((10, 10))
        dense[np.repeat(np.arange(10), np.diff(g.indptr)), g.indices] = g.weights
        track(dense, gaussian_adjacency(h, 3, g.sigma))

        # attention coefficients and the full multi-head layer
        hg = rng.normal(size=(6, 4))
        graph = build_graph(hg, k=2)
        indptr, indices = graph.neighborhoods()
        lists = [indices[indptr[i] : indptr[i + 1]] for i in range(6)]
        params = init_gat_stack(1, 4, 3, heads=2, seed=1000 + seed)[0]
        rows = attention_coeffs(params, 0, hg, (indptr, indices))
        want_rows = attention_oracle(params.w[0], params.a[0], LEAKY_SLOPE, hg, lists)
        for got, want in zip(rows, want_rows):
            track(got, want)
        track(
            stack_forward([params], hg, (indptr, indices))[0],
            gat_layer_oracle(params.w, params.a, LEAKY_SLOPE, hg, lists),
        )

        # clustering head: soft assignment, target sharpening, divergence
        ht = rng.normal(size=(7, 4))
        mu = rng.normal(size=(3, 4))
        q = soft_assign(ht, mu)
        track(q, soft_assign_oracle(ht, mu))
        track(target_distribution(q), target_oracle(q))
        p = target_distribution(q)
        track(kl_loss(p, q), kl_oracle(p, q))

    announce("oracle-equivalence", worst < 1e-9, f"worst |diff| {worst:.2e} over 20 seeds")


@pytest.mark.slow
def test_criterion_metrics_exhaustive():
    # hand-verifiable anchors first
    assert evaluate([0, 0, 1, 1], [0, 1, 1, 1]).acc == 0.75
    assert evaluate([0, 0, 1, 1], [0, 1, 0, 1]).ari == -0.5
    worst = 0.0
    pairs = 0
    for n in range(1, 9):
        parts = [np.array(p) for p in partitions_up_to(n, 3)]
        for i, pred in enumerate(parts):
            for truth in parts[i:]:
                rep = evaluate(pred, truth)
                worst = max(worst, abs(rep.acc - acc_bruteforce(pred, truth)))
                worst = max(worst, abs(rep.nmi - nmi_oracle(pred, truth)))
                if n >= 2:
                    worst = max(worst, abs(rep.f_score - f_score_oracle(pred, truth)))
                    worst = max(worst, abs(rep.ari - ari_oracle(pred, truth)))
                pairs += 1
    announce(
        "metrics-exhaustive", worst < 1e-10, f"worst |diff| {worst:.2e} over {pairs} pairs"
    )


def test_criterion_distribution_invariants(easy_runs):
    reports, _ = easy_runs
    joint = [e for r in reports for e in r.epochs if e.phase == "joint"]
    q_gap = max(e.q_gap for e in joint)
    p_gap = max(e.p_gap for e in joint)
    a_gap = max(e.alpha_gap for e in joint)
    lc_min = min(e.lc for e in joint)
    ok = q_gap < 1e-9 and p_gap < 1e-9 and a_gap < 1e-9 and lc_min >= 0.0
    announce(
        "distribution-invariants",
        ok,
        f"rowsum gaps q={q_gap:.1e} p={p_gap:.1e} alpha={a_gap:.1e}, min L_c={lc_min:.2e}",
    )


def test_criterion_synthetic_clustering(easy_runs):
    reports, elapsed = easy_runs
    accs = [r.final_eval.acc for r in reports]
    nmis = [r.final_eval.nmi for r in reports]
    mean_acc = float(np.mean(accs))
    mean_nmi = float(np.mean(nmis))
    ok = mean_acc >= 0.95 and mean_nmi >= 0.90 and elapsed < 120.0
    announce(
        "synthetic-clustering",
        ok,
        f"mean ACC {mean_acc:.3f}, mean NMI {mean_nmi:.3f}, {elapsed:.1f}s for 5 seeds",
    )


def test_criterion_ablation_ordering(ablation_runs):
    acc_a = float(np.mean([r["a"].final_eval.acc for r in ablation_runs]))
    acc_c = float(np.mean([r["c"].final_eval.acc for r in ablation_runs]))
    ok = acc_c >= acc_a + 0.02
    announce(
        "ablation-ordering",
        ok,
        f"full model {acc_c:.3f} vs latent-only {acc_a:.3f} (gap {acc_c - acc_a:+.3f})",
    )


def test_criterion_convergence(easy_runs, sweep_runs, ablation_runs):
    # every full-pipeline synthetic run: the stop rule fires before the
    # epoch cap, and the loss at epoch min(100, last) is below epoch 1
    reports = list(easy_runs[0]) + list(sweep_runs.values())
    reports += [r["c"] for r in ablation_runs]
    stops = []
    ok = True
    for rep in reports:
        losses = rep.loss_history[rep.pretrain_epochs_run :]
        stopped = rep.early_stopped_at is not None and rep.early_stopped_at < 200
        decreased = losses[min(99, len(losses) - 1)] < losses[0]
        ok = ok and stopped and decreased
        stops.append(rep.early_stopped_at)
    announce(
        "convergence",
        ok,
        f"{len(reports)} runs, stop epochs {min(s for s in stops if s)}..{max(s for s in stops if s)}",
    )


def test_criterion_k_robustness(sweep_runs):
    accs = {k: rep.final_eval.acc for k, rep in sweep_runs.items()}
    spread = max(accs.values()) - min(accs.values())
    ok = spread <= 0.1
    announce(
        "k-robustness",
        ok,
        f"ACC over k in {min(SWEEP_KS)}..{max(SWEEP_KS)}: spread {spread:.3f}",
    )
