"""The benchmark's workloads: inputs from a seed, one round of work, output checks.

A round is the unit the benchmark repeats, times and counts as one
operation. Every round of a run does the same work on the same inputs, so
the program's outputs must be identical from round to round: each round
leaves a fingerprint of its outputs. ``run_round`` returns the round's
result and a function that checks its outputs in full; the caller keeps
only the last round's, so earlier outputs can be freed.

graph-gat-n1500   library ``train`` with a fixed joint-epoch count, N=1500:
                  the kNN graph build and the attention layer dominate.
wide-views-n210   library ``train`` on three 512-dim views, N=210, long
                  pretrain: the reconstruction networks dominate and the
                  graph and attention layers barely register.
cli-train-n150    ``slrl train --data DIR --repeats 3`` on a dataset on disk,
                  default early stopping: the user's path, where process
                  start, per-epoch metrics, k-means and file output are a
                  visible share of a small problem.

The library workloads also read their dataset from disk and write a
checkpoint and loss log, as a library user with data in files would; both
take a few milliseconds and give the data and output layers a measured time
on every workload.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from blas import THREADS_TAG, check_single_thread, pinned_env
from spans import Tracer, null_span

BENCH_DIR = Path(__file__).resolve().parent
HELD_OFF = 10**9  # early_stop_min_epochs beyond any epoch count: the monitors never fire


@dataclass
class RoundResult:
    run_s: float
    pretrain_epochs: int
    joint_epochs: int
    acc: float  # mean over the round's training runs, recomputed by the benchmark
    nmi: float
    written_bytes: int
    fingerprint: str
    layers: dict | None = None  # Tracer.summary() of a traced round
    threads: dict | None = None  # OpenBLAS thread counts a child process reported


def _dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _reported_threads(stderr: str) -> dict:
    """The thread counts cli_entry.py printed before running the command."""
    for line in stderr.splitlines():
        if line.startswith(THREADS_TAG):
            return json.loads(line[len(THREADS_TAG) :])
    raise RuntimeError("the CLI process did not report its OpenBLAS thread count")


def _make_inputs(per_cluster: int, view_dims, noise: float, seed: int, work: Path) -> dict:
    from slrl.data import save_dataset, synth_multiview

    ds = synth_multiview(3, per_cluster, list(view_dims), noise=noise, seed=seed)
    save_dataset(ds, work / "data")
    return {"data": work / "data", "labels": ds.labels, "seed": seed, "out": work / "out"}


@dataclass(frozen=True)
class LibraryWorkload:
    """Load a dataset from disk, one ``train`` call, write checkpoint and loss log."""

    name: str
    per_cluster: int
    view_dims: tuple
    noise: float
    pretrain_epochs: int
    epochs: int
    floors: tuple  # (ACC, NMI) every seed must reach
    rss_of_children = False  # the work runs in the benchmark's own process

    def setup(self, seed: int, work: Path) -> dict:
        return _make_inputs(self.per_cluster, self.view_dims, self.noise, seed, work)

    def run_round(self, inputs: dict, traced: bool):
        from slrl.train import TrainConfig

        # looked up at call time so that a tracer's patches apply
        train_mod = sys.modules["slrl.train"]
        data_mod = sys.modules["slrl.data"]
        cfg = TrainConfig(
            seed=inputs["seed"],
            pretrain_epochs=self.pretrain_epochs,
            epochs=self.epochs,
            early_stop_min_epochs=HELD_OFF,
        )
        out = inputs["out"]
        shutil.rmtree(out, ignore_errors=True)
        tracer = Tracer().install() if traced else None
        span = tracer.span if tracer else null_span
        try:
            t0 = time.perf_counter()
            with span("data.load"):
                ds = data_mod.load_dataset(inputs["data"])
            report = train_mod.train(ds, cfg)
            with span("cli.write"):
                train_mod.save_checkpoint(report, out / "checkpoint")
                train_mod.write_loss_log(report, out / "loss_log.csv")
            run_s = time.perf_counter() - t0
        finally:
            if tracer:
                tracer.restore()
        labels = inputs["labels"]
        return RoundResult(
            run_s=run_s,
            pretrain_epochs=report.pretrain_epochs_run,
            joint_epochs=report.joint_epochs_run,
            acc=checks.brute_force_accuracy(report.labels_pred, labels),
            nmi=checks.contingency_nmi(report.labels_pred, labels),
            written_bytes=_dir_bytes(out),
            fingerprint=_digest(report.q, report.h),
            layers=tracer.summary() if tracer else None,
        ), lambda: self._check(report, cfg, labels)

    def _check(self, report, cfg, labels) -> list:
        pred = report.labels_pred
        final = report.final_eval
        _, _, errors = checks.check_scores(pred, labels, final.acc, final.nmi, self.floors)
        errors += checks.check_assignments(report.q, pred)
        nbrs = report.graph.nbrs
        ei = np.concatenate([np.full(len(ids), i) for i, ids in enumerate(nbrs)])
        ej = np.concatenate(nbrs)
        upper = ei < ej
        errors += checks.check_union_knn(report.h, cfg.k, ei[upper], ej[upper])[1]
        errors += checks.check_neighbor_lists(nbrs)
        errors += checks.check_losses(
            report.lr_history, report.lc_history, report.loss_history, cfg.gamma
        )
        if report.joint_epochs_run != cfg.epochs or report.early_stopped_at is not None:
            errors.append(f"ran {report.joint_epochs_run} joint epochs, configured {cfg.epochs}")
        if report.pretrain_epochs_run != cfg.pretrain_epochs:
            errors.append(f"ran {report.pretrain_epochs_run} pretrain epochs")
        return errors


@dataclass(frozen=True)
class CliWorkload:
    """One ``slrl train --data DIR --repeats R`` command in a fresh process."""

    name: str
    per_cluster: int
    view_dims: tuple
    noise: float
    repeats: int
    floors: tuple
    rss_of_children = True  # the work runs in the CLI processes
    # the CLI defaults the command runs with
    max_epochs = 200
    gamma = 10.0
    k = 10

    def setup(self, seed: int, work: Path) -> dict:
        return _make_inputs(self.per_cluster, self.view_dims, self.noise, seed, work)

    def run_round(self, inputs: dict, traced: bool):
        out = inputs["out"]
        shutil.rmtree(out, ignore_errors=True)
        trace_file = out.parent / "cli_trace.json"
        trace_args = ["--trace-out", str(trace_file)] if traced else []
        cmd = [sys.executable, str(BENCH_DIR / "cli_entry.py"), *trace_args,
               "train", "--data", str(inputs["data"]), "--repeats", str(self.repeats),
               "--seed", str(inputs["seed"]), "--out", str(out)]
        env = pinned_env(str(Path.cwd() / "src"))
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=150)
        run_s = time.perf_counter() - t0
        threads = _reported_threads(proc.stderr)
        check_single_thread(threads)
        if proc.returncode != 0:
            raise RuntimeError(f"slrl train exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")

        labels = inputs["labels"]
        runs = [out / f"run{r}" for r in range(self.repeats)]
        logs = [np.genfromtxt(d / "loss_log.csv", delimiter=",", names=True) for d in runs]
        preds = [np.loadtxt(d / "predictions.txt", dtype=np.int64) for d in runs]
        # pretrain epochs have no per-epoch metrics
        joint = [int(np.sum(~np.isnan(log["ACC"]))) for log in logs]
        digest = _digest(*(checks.read_mvm(d / "checkpoint" / "q.mvm") for d in runs))
        return RoundResult(
            run_s=run_s,
            pretrain_epochs=sum(len(log) for log in logs) - sum(joint),
            joint_epochs=sum(joint),
            acc=float(np.mean([checks.brute_force_accuracy(p, labels) for p in preds])),
            nmi=float(np.mean([checks.contingency_nmi(p, labels) for p in preds])),
            written_bytes=_dir_bytes(out),
            fingerprint=digest,
            layers=json.loads(trace_file.read_text()) if traced else None,
            threads=threads,
        ), lambda: [
            f"{d.name}: {e}"
            for d, log, pred in zip(runs, logs, preds)
            for e in self._check_run(d, log, pred, labels)
        ]

    def _check_run(self, run_dir: Path, log, pred, labels) -> list:
        written = dict(
            line.split() for line in (run_dir / "metrics.txt").read_text().splitlines() if line
        )
        # metrics.txt holds six decimals
        _, _, errors = checks.check_scores(
            pred, labels, float(written["acc"]), float(written["nmi"]), self.floors, tol=5e-7
        )
        q = checks.read_mvm(run_dir / "checkpoint" / "q.mvm")
        errors += checks.check_assignments(q, pred)
        errors += checks.check_target(q, np.loadtxt(run_dir / "p.csv", delimiter=",", ndmin=2))
        h = checks.read_mvm(run_dir / "checkpoint" / "h.mvm")
        edges = np.loadtxt(run_dir / "graph.txt", ndmin=2)
        errors += checks.check_union_knn(h, self.k, edges[:, 0], edges[:, 1])[1]
        if (edges[:, 0] >= edges[:, 1]).any():
            errors.append("graph.txt lists an edge with i >= j")
        if not ((edges[:, 2] > 0.0) & (edges[:, 2] <= 1.0)).all():
            errors.append("Gaussian edge weight outside (0, 1]")
        errors += checks.check_losses(log["L_r"], log["L_c"], log["L"], self.gamma)
        joint = int(np.sum(~np.isnan(log["ACC"])))
        if not 1 <= joint <= self.max_epochs:
            errors.append(f"{joint} joint epochs outside [1, {self.max_epochs}]")
        return errors


WORKLOADS = {
    w.name: w
    for w in (
        LibraryWorkload("graph-gat-n1500", per_cluster=500, view_dims=(8, 8), noise=0.05,
                        pretrain_epochs=30, epochs=8, floors=(0.9, 0.8)),
        LibraryWorkload("wide-views-n210", per_cluster=70, view_dims=(512, 512, 512), noise=0.05,
                        pretrain_epochs=200, epochs=3, floors=(0.9, 0.8)),
        CliWorkload("cli-train-n150", per_cluster=50, view_dims=(8, 8), noise=0.05, repeats=3,
                    floors=(0.9, 0.8)),
    )
}
