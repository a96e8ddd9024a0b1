"""Command-line surface: train, eval, ablate, sweep, gradcheck, synth.

Every run writes a JSON manifest into its output directory before any
training starts, so a run is reproducible from the manifest alone. The
settings are checked against the data first (``train.check_fit``, for every
sweep grid cell), so a setting that does not fit exits 2 and writes nothing.
Plot emission is data-only (CSV loss curves, metric grids, 2-D PCA
projections); rendering is left to external tools.

The environment variable ``SLRL_THREADS`` caps BLAS worker parallelism; the
package applies it on import, before numpy loads (see ``slrl.apply_thread_cap``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import metrics as mt
from .cluster import target_distribution
from .data import (
    MultiViewDataset,
    load_dataset,
    normalize,
    read_labels,
    save_dataset,
    synth_multiview,
)
from .errors import (
    DegenerateClusterError,
    DivergenceError,
    FormatError,
    NumericError,
    ParameterError,
)
from .gat import ACTIVATIONS, COMBINES
from .graph import KERNELS, dump_edges
from .train import TrainConfig, TrainReport, ablate, check_fit
from .train import gradcheck as run_gradcheck
from .train import save_checkpoint
from .train import train as run_train
from .train import write_loss_log

def _add_config_flags(p: argparse.ArgumentParser) -> None:
    d = TrainConfig()
    p.add_argument("--latent-dim", type=int, default=d.latent_dim)
    p.add_argument("--k", type=int, default=d.k)
    p.add_argument("--gamma", type=float, default=d.gamma)
    p.add_argument("--lr", type=float, default=d.learning_rate)
    p.add_argument("--epochs", type=int, default=d.epochs)
    p.add_argument("--pretrain-epochs", type=int, default=d.pretrain_epochs)
    p.add_argument("--heads", type=int, default=d.heads)
    p.add_argument("--layers", type=int, default=d.gat_layers)
    p.add_argument("--activation", choices=ACTIVATIONS, default=d.activation)
    p.add_argument("--combine", choices=COMBINES, default=d.combine)
    p.add_argument("--kernel", choices=KERNELS, default=d.kernel)
    p.add_argument("--sigma", type=float, default=d.sigma)
    p.add_argument("--clusters", type=int, default=d.clusters)
    p.add_argument("--seed", type=int, default=d.seed)
    p.add_argument("--repeats", type=int, default=1)


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", type=str, default=None, help="dataset directory with manifest.txt")
    p.add_argument("--synth", type=str, default=None, help="synthetic spec CLUSTERSxPER, e.g. 3x50")
    p.add_argument("--views", type=int, default=2, help="view count for --synth")
    p.add_argument("--view-dims", type=str, default=None, help="comma list of view dims for --synth")
    p.add_argument("--noise", type=float, default=0.05, help="observation noise for --synth")
    p.add_argument("--no-normalize", action="store_true", help="skip min-max normalization of --data")


def _comma_list(flag: str, text: str, kind) -> list:
    """Parse a comma list such as ``8,8`` given to ``flag``; empty items are errors."""
    try:
        return [kind(item) for item in text.split(",")]
    except ValueError:
        raise ParameterError(
            f"bad {flag} {text!r}, expected a comma list of {kind.__name__} values"
        ) from None


def _config_from_args(args) -> TrainConfig:
    if args.repeats < 1:
        raise ParameterError(f"--repeats must be >= 1, got {args.repeats}")
    return TrainConfig(
        latent_dim=args.latent_dim,
        k=args.k,
        gamma=args.gamma,
        learning_rate=args.lr,
        epochs=args.epochs,
        pretrain_epochs=args.pretrain_epochs,
        heads=args.heads,
        gat_layers=args.layers,
        activation=args.activation,
        combine=args.combine,
        kernel=args.kernel,
        sigma=args.sigma,
        clusters=args.clusters,
        seed=args.seed,
    )


def _parse_synth_spec(spec: str, views: int, view_dims: str | None, noise: float, seed: int):
    try:
        clusters_s, per_s = spec.lower().split("x")
        clusters, per = int(clusters_s), int(per_s)
    except ValueError:
        raise ParameterError(f"bad --synth spec {spec!r}, expected CLUSTERSxPER like 3x50")
    if view_dims:
        dims = _comma_list("--view-dims", view_dims, int)
    else:
        dims = [8] * views
    return synth_multiview(clusters, per, dims, noise=noise, seed=seed)


def _load_input(args, seed: int) -> tuple[MultiViewDataset, dict]:
    if (args.data is None) == (args.synth is None):
        raise ParameterError("exactly one of --data or --synth is required")
    if args.data is not None:
        ds = load_dataset(args.data)
        if not args.no_normalize:
            ds = normalize(ds)
        spec = {"path": str(args.data), "normalized": not args.no_normalize}
    else:
        ds = _parse_synth_spec(args.synth, args.views, args.view_dims, args.noise, seed)
        spec = {
            "synth": args.synth,
            "views": args.views,
            "view_dims": args.view_dims,
            "noise": args.noise,
            "seed": seed,
        }
    return ds, spec


def _write_manifest(out: Path, command: str, cfg: TrainConfig, dataset_spec: dict, argv) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "argv": list(argv),
        "config": asdict(cfg),
        "dataset": dataset_spec,
        "out": str(out),
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    path = out / "run_manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def _finalize_manifest(path: Path) -> None:
    manifest = json.loads(path.read_text())
    manifest["completed_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    path.write_text(json.dumps(manifest, indent=2) + "\n")


def _pca_2d(x: np.ndarray) -> np.ndarray:
    centered = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return centered @ vt[:2].T


def _write_projection(path: Path, x: np.ndarray, labels) -> None:
    proj = _pca_2d(np.asarray(x, dtype=np.float64))
    lines = ["x,y" + (",label" if labels is not None else "")]
    for i in range(proj.shape[0]):
        row = f"{proj[i, 0]:.9g},{proj[i, 1]:.9g}"
        if labels is not None:
            row += f",{int(labels[i])}"
        lines.append(row)
    path.write_text("\n".join(lines) + "\n")


def _write_delimited(path: Path, m: np.ndarray) -> None:
    np.savetxt(path, m, fmt="%.9g", delimiter=",")


def _run_one(ds: MultiViewDataset, cfg: TrainConfig, out: Path) -> TrainReport:
    report = run_train(ds, cfg)
    out.mkdir(parents=True, exist_ok=True)
    write_loss_log(report, out / "loss_log.csv")
    np.savetxt(out / "predictions.txt", report.labels_pred, fmt="%d")
    save_checkpoint(report, out / "checkpoint")
    _write_projection(out / "h_pca.csv", report.h, ds.labels)
    _write_projection(out / "ht_pca.csv", report.ht, ds.labels)
    _write_delimited(out / "q.csv", report.q)
    _write_delimited(out / "p.csv", target_distribution(report.q))
    (out / "graph.txt").write_text(dump_edges(report.graph))
    final = report.final_metrics()
    if final is not None:
        (out / "metrics.txt").write_text(final.to_text())
    return report


def cmd_train(args, argv) -> int:
    out = Path(args.out)
    cfg = _config_from_args(args)
    ds, dataset_spec = _load_input(args, cfg.seed)
    check_fit(ds, cfg)
    manifest = _write_manifest(out, "train", cfg, dataset_spec, argv)
    reports = []
    for r in range(args.repeats):
        run_cfg = replace(cfg, seed=cfg.seed + r)
        run_out = out if args.repeats == 1 else out / f"run{r}"
        reports.append(_run_one(ds, run_cfg, run_out))
    finals = [rep.final_metrics() for rep in reports if rep.final_metrics() is not None]
    if len(finals) > 1:
        (out / "metrics_aggregate.csv").write_text(mt.aggregate_rows(finals))
    if finals:
        print(finals[-1].to_text(), end="")
    last = reports[-1]
    print(
        f"epochs: pretrain={last.pretrain_epochs_run} joint={last.joint_epochs_run}"
        + (f" early_stop_at={last.early_stopped_at}" if last.early_stopped_at else "")
    )
    _finalize_manifest(manifest)
    return 0


def cmd_eval(args, argv) -> int:
    pred = read_labels(args.pred)
    truth = read_labels(args.truth)
    report = mt.evaluate(pred, truth)
    print(report.to_text(), end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "metrics.txt").write_text(report.to_text())
    return 0


def cmd_ablate(args, argv) -> int:
    out = Path(args.out)
    cfg = _config_from_args(args)
    ds, dataset_spec = _load_input(args, cfg.seed)
    check_fit(ds, cfg)
    manifest = _write_manifest(out, "ablate", cfg, dataset_spec, argv)
    rows = {"a": [], "b": [], "c": []}
    for r in range(args.repeats):
        reports = ablate(ds, replace(cfg, seed=cfg.seed + r))
        for mode, rep in reports.items():
            final = rep.final_metrics()
            rows[mode].append(final.acc if final is not None else float("nan"))
    labels = {"a": "(a) X-H", "b": "(b) X-H-Ht", "c": "(c) X-H-Ht-P"}
    lines = ["mode,acc_mean,acc_std"]
    for mode in ("a", "b", "c"):
        accs = np.array(rows[mode], dtype=np.float64)
        lines.append(f"{labels[mode]},{accs.mean():.6f},{accs.std():.6f}")
        print(f"{labels[mode]:16s} ACC {accs.mean():.4f} +- {accs.std():.4f}")
    (out / "ablation.csv").write_text("\n".join(lines) + "\n")
    _finalize_manifest(manifest)
    return 0


def cmd_sweep(args, argv) -> int:
    out = Path(args.out)
    cfg = _config_from_args(args)
    ds, dataset_spec = _load_input(args, cfg.seed)
    if ds.labels is None:
        raise ParameterError("sweep needs labels to score each grid cell")
    if args.gamma_grid is None:
        gammas = [10.0**e for e in range(-5, 5)]
    else:
        gammas = _comma_list("--gamma-grid", args.gamma_grid, float)
    if args.k_grid is None:
        ks = list(range(3, 16))
    else:
        ks = _comma_list("--k-grid", args.k_grid, int)
    for gamma in gammas:
        for k in ks:
            check_fit(ds, replace(cfg, gamma=gamma, k=k))
    manifest = _write_manifest(out, "sweep", cfg, dataset_spec, argv)
    lines = ["gamma,k,acc_mean,acc_std,nmi_mean,nmi_std,f_mean,f_std,ari_mean,ari_std"]
    for gamma in gammas:
        for k in ks:
            finals = []
            for r in range(args.repeats):
                run_cfg = replace(cfg, gamma=gamma, k=k, seed=cfg.seed + r)
                rep = run_train(ds, run_cfg)
                finals.append(rep.final_metrics())
            stackarr = np.array(
                [[m.acc, m.nmi, m.f_score, m.ari] for m in finals], dtype=np.float64
            )
            mean, std = stackarr.mean(axis=0), stackarr.std(axis=0)
            cells = [f"{gamma:g}", str(k)]
            for j in range(4):
                cells.extend([f"{mean[j]:.6f}", f"{std[j]:.6f}"])
            lines.append(",".join(cells))
            print(f"gamma={gamma:g} k={k}: ACC {mean[0]:.4f}")
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    _finalize_manifest(manifest)
    return 0


def cmd_gradcheck(args, argv) -> int:
    if args.synth or args.data:
        ds, _ = _load_input(args, args.seed)
    else:
        ds = synth_multiview(3, 4, [4, 3], noise=0.1, seed=args.seed)
    cfg = TrainConfig(
        latent_dim=args.latent_dim,
        k=args.k,
        gamma=args.gamma,
        heads=args.heads,
        gat_layers=args.layers,
        activation=args.activation,
        combine=args.combine,
        clusters=args.clusters,
        seed=args.seed,
    )
    report = run_gradcheck(ds, cfg)
    print(report.to_text(), end="")
    if report.ok(args.tol):
        print(f"gradcheck OK (worst {report.worst:.3e} < {args.tol:g})")
        return 0
    print(f"gradcheck FAILED (worst {report.worst:.3e} >= {args.tol:g})", file=sys.stderr)
    return 1


def cmd_synth(args, argv) -> int:
    ds = _parse_synth_spec(args.synth or "3x50", args.views, args.view_dims, args.noise, args.seed)
    save_dataset(ds, args.out)
    dims = "x".join(str(d) for d in ds.dims)
    print(f"wrote {ds.n_samples} samples, {ds.n_views} views ({dims}) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slrl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the full pipeline")
    _add_data_flags(p_train)
    _add_config_flags(p_train)
    p_train.add_argument("--out", type=str, default="slrl_out")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="metrics for saved predictions against truth")
    p_eval.add_argument("--pred", type=str, required=True)
    p_eval.add_argument("--truth", type=str, required=True)
    p_eval.add_argument("--out", type=str, default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_ablate = sub.add_parser("ablate", help="compare pipeline variants (a)/(b)/(c)")
    _add_data_flags(p_ablate)
    _add_config_flags(p_ablate)
    p_ablate.add_argument("--out", type=str, default="slrl_out")
    p_ablate.set_defaults(func=cmd_ablate)

    p_sweep = sub.add_parser("sweep", help="grid over gamma and k")
    _add_data_flags(p_sweep)
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--gamma-grid", type=str, default=None, help="comma list of gamma values")
    p_sweep.add_argument("--k-grid", type=str, default=None, help="comma list of k values")
    p_sweep.add_argument("--out", type=str, default="slrl_out")
    p_sweep.set_defaults(func=cmd_sweep)

    p_grad = sub.add_parser("gradcheck", help="verify analytic gradients by finite differences")
    _add_data_flags(p_grad)
    p_grad.add_argument("--latent-dim", type=int, default=5)
    p_grad.add_argument("--k", type=int, default=3)
    p_grad.add_argument("--gamma", type=float, default=10.0)
    p_grad.add_argument("--heads", type=int, default=2)
    p_grad.add_argument("--layers", type=int, default=1)
    p_grad.add_argument("--activation", choices=ACTIVATIONS, default="sigmoid")
    p_grad.add_argument("--combine", choices=COMBINES, default="average")
    p_grad.add_argument("--clusters", type=int, default=None)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--tol", type=float, default=1e-4)
    p_grad.set_defaults(func=cmd_gradcheck)

    p_synth = sub.add_parser("synth", help="generate and save a synthetic dataset")
    p_synth.add_argument("--synth", type=str, default="3x50")
    p_synth.add_argument("--views", type=int, default=2)
    p_synth.add_argument("--view-dims", type=str, default=None)
    p_synth.add_argument("--noise", type=float, default=0.05)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", type=str, default="slrl_out")
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except (
        ParameterError,
        FormatError,
        OSError,
        NumericError,
        DegenerateClusterError,
        DivergenceError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
