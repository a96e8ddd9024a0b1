"""Command-line surface: train, eval, ablate, sweep, gradcheck, synth.

One flag table feeds ``TrainConfig``: each flag's ``dest`` is the field it
sets, and the config is read from the parsed flags by field name. gradcheck
takes the model flags only, with a small instance's defaults, and a 3x4
``--synth`` dataset unless told otherwise; train, ablate and sweep add the run
flags. A data flag of the other source (``--view-dims``/``--noise`` with
``--data``, ``--no-normalize`` with ``--synth``) is an error.

train, ablate and sweep share one run lifecycle. It checks the settings
against the data (``train.check_fit``, for every sweep grid cell), so a
setting that does not fit exits 2 and writes nothing. Then it writes a
JSON manifest into the output directory before any training starts, so a run
is reproducible from the manifest alone. After the command's body the manifest
records how the run ended: ``"status": "ok"`` with ``completed_at``, or
``"status": "error"`` with the message of the error that ended it. Every
``slrl.errors.SlrlError`` and every ``OSError`` ends a command with one
``error:`` line on stderr and exit status 2, never a traceback. Plot
emission is data-only (CSV loss curves, metric grids, 2-D PCA projections);
rendering is left to external tools. BLAS threads follow the BLAS's own
variables, such as ``OMP_NUM_THREADS``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, fields, replace
from functools import partial
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
from .errors import ParameterError, SlrlError
from .graph import dump_edges
from .train import TrainConfig, TrainReport, ablate, check_fit, save_checkpoint, write_loss_log
from .train import gradcheck as run_gradcheck
from .train import train as run_train

# the errors a command ends on: one ``error:`` line and exit status 2
_ERRORS = (SlrlError, OSError)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    """The model flags, gradcheck's set. Each flag's ``dest`` is the ``TrainConfig`` field
    it sets; a flag not given stays out of the namespace, so its field keeps its default."""
    flag = partial(p.add_argument, default=argparse.SUPPRESS)
    flag("--latent-dim", type=int)
    flag("--k", type=int)
    flag("--gamma", type=float)
    flag("--heads", type=int)
    flag("--layers", dest="gat_layers", metavar="LAYERS", type=int)
    flag("--clusters", type=int)
    flag("--seed", type=int)


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """The model flags plus those of a training run: train, ablate and sweep."""
    _add_model_flags(p)
    flag = partial(p.add_argument, default=argparse.SUPPRESS)
    flag("--lr", dest="learning_rate", metavar="LR", type=float)
    flag("--epochs", type=int)
    flag("--pretrain-epochs", type=int)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--out", type=str, default="slrl_out")


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", type=str, default=None, help="dataset directory with manifest.txt")
    p.add_argument("--synth", type=str, default=None, help="synthetic spec CLUSTERSxPER, e.g. 3x50")
    # None: not given, so a --data run can tell these apart from their defaults
    p.add_argument("--view-dims", type=str, default=None, help="comma list of view dims for --synth")
    p.add_argument("--noise", type=float, default=None, help="observation noise for --synth")
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
    """The ``TrainConfig`` of the fields the parsed flags set; the rest keep their defaults."""
    given = vars(args)
    return TrainConfig(**{f.name: given[f.name] for f in fields(TrainConfig) if f.name in given})


def _load_input(args, seed: int) -> tuple[MultiViewDataset, dict]:
    if (args.data is None) == (args.synth is None):
        raise ParameterError("exactly one of --data or --synth is required")
    if args.data is not None and (args.view_dims, args.noise) != (None, None):
        flag = "--view-dims" if args.view_dims is not None else "--noise"
        raise ParameterError(f"{flag} applies only to --synth")
    if args.synth is not None and args.no_normalize:
        raise ParameterError("--no-normalize applies only to --data")
    if args.data is not None:
        ds = load_dataset(args.data)
        if not args.no_normalize:
            ds = normalize(ds)
        spec = {"path": str(args.data), "normalized": not args.no_normalize}
    else:
        try:
            clusters, per = map(int, args.synth.lower().split("x"))
        except ValueError:
            raise ParameterError(f"bad --synth spec {args.synth!r}, expected CLUSTERSxPER like 3x50")
        dims = [8, 8] if args.view_dims is None else _comma_list("--view-dims", args.view_dims, int)
        noise = 0.05 if args.noise is None else args.noise
        ds = synth_multiview(clusters, per, dims, noise=noise, seed=seed)
        spec = {
            "synth": args.synth,
            "views": ds.n_views,
            "view_dims": args.view_dims,
            "noise": noise,
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


def _finalize_manifest(path: Path, error: Exception | None = None) -> None:
    """Record how the run ended: ``status`` "ok" with ``completed_at``, or "error"
    with the error's message."""
    manifest = json.loads(path.read_text())
    if error is None:
        manifest["status"] = "ok"
        manifest["completed_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    else:
        manifest["status"] = "error"
        manifest["error"] = str(error)
    path.write_text(json.dumps(manifest, indent=2) + "\n")


@contextmanager
def _run_dir(args, argv, cells=None):
    """Check ``--repeats``, load the data and ``check_fit`` every config the run trains
    (``cells(args, ds, cfg)``, or the one config); then write the manifest, yield
    ``(out, ds, cells)`` to the command's body and record in the manifest how it
    ended. A typed error is recorded there, then raised on."""
    if args.repeats < 1:
        raise ParameterError(f"--repeats must be >= 1, got {args.repeats}")
    cfg = _config_from_args(args)
    ds, dataset_spec = _load_input(args, cfg.seed)
    run_cells = [cfg] if cells is None else cells(args, ds, cfg)
    for cell in run_cells:
        check_fit(ds, cell)
    out = Path(args.out)
    manifest = _write_manifest(out, args.command, cfg, dataset_spec, argv)
    try:
        yield out, ds, run_cells
    except _ERRORS as err:
        _finalize_manifest(manifest, err)
        raise
    _finalize_manifest(manifest)


def _pca_2d(x: np.ndarray) -> np.ndarray:
    centered = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return centered @ vt[:2].T


def _write_projection(path: Path, x: np.ndarray, labels) -> None:
    """2-D PCA projection of ``x`` as ``x,y`` rows, plus a ``label`` column if there are labels."""
    proj = _pca_2d(np.asarray(x, dtype=np.float64))
    if labels is None:
        np.savetxt(path, proj, fmt="%.9g", delimiter=",", header="x,y", comments="")
    else:
        rows = np.column_stack([proj, labels])
        np.savetxt(path, rows, fmt="%.9g,%.9g,%d", header="x,y,label", comments="")


def _run_one(ds: MultiViewDataset, cfg: TrainConfig, out: Path) -> TrainReport:
    report = run_train(ds, cfg)
    out.mkdir(parents=True, exist_ok=True)
    write_loss_log(report, out / "loss_log.csv")
    np.savetxt(out / "predictions.txt", report.labels_pred, fmt="%d")
    save_checkpoint(report, out / "checkpoint")
    _write_projection(out / "h_pca.csv", report.h, ds.labels)
    _write_projection(out / "ht_pca.csv", report.ht, ds.labels)
    np.savetxt(out / "q.csv", report.q, fmt="%.9g", delimiter=",")
    np.savetxt(out / "p.csv", target_distribution(report.q), fmt="%.9g", delimiter=",")
    (out / "graph.txt").write_text(dump_edges(report.graph))
    if report.final_eval is not None:
        (out / "metrics.txt").write_text(report.final_eval.to_text())
    return report


def cmd_train(args, argv) -> int:
    with _run_dir(args, argv) as (out, ds, [cfg]):
        # of each repeat's report only its final metrics outlive the next repeat
        finals = []
        for r in range(args.repeats):
            run_cfg = replace(cfg, seed=cfg.seed + r)
            run_out = out if args.repeats == 1 else out / f"run{r}"
            report = _run_one(ds, run_cfg, run_out)
            if report.final_eval is not None:
                finals.append(report.final_eval)
            epochs = (
                f"epochs: pretrain={report.pretrain_epochs_run} joint={report.joint_epochs_run}"
                + (f" early_stop_at={report.early_stopped_at}" if report.early_stopped_at else "")
            )
            del report
        if len(finals) > 1:
            (out / "metrics_aggregate.csv").write_text(mt.aggregate_rows(finals))
        if finals:
            print(finals[-1].to_text(), end="")
        print(epochs)
    return 0


def cmd_eval(args, argv) -> int:
    report = mt.evaluate(read_labels(args.pred), read_labels(args.truth))
    print(report.to_text(), end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "metrics.txt").write_text(report.to_text())
    return 0


def cmd_ablate(args, argv) -> int:
    with _run_dir(args, argv) as (out, ds, [cfg]):
        rows = {"a": [], "b": [], "c": []}
        for r in range(args.repeats):
            for mode, rep in ablate(ds, replace(cfg, seed=cfg.seed + r)).items():
                final = rep.final_eval
                rows[mode].append(final.acc if final is not None else float("nan"))
        labels = {"a": "(a) X-H", "b": "(b) X-H-Ht", "c": "(c) X-H-Ht-P"}
        lines = ["mode,acc_mean,acc_std"]
        for mode in ("a", "b", "c"):
            accs = np.array(rows[mode], dtype=np.float64)
            lines.append(f"{labels[mode]},{accs.mean():.6f},{accs.std():.6f}")
            print(f"{labels[mode]:16s} ACC {accs.mean():.4f} +- {accs.std():.4f}")
        (out / "ablation.csv").write_text("\n".join(lines) + "\n")
    return 0


def _grid_cells(args, ds: MultiViewDataset, cfg: TrainConfig) -> list:
    """One config per (gamma, k) cell of the sweep grid, gamma-major."""
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
    return [replace(cfg, gamma=gamma, k=k) for gamma in gammas for k in ks]


def cmd_sweep(args, argv) -> int:
    with _run_dir(args, argv, _grid_cells) as (out, ds, cells):
        lines = ["gamma,k,acc_mean,acc_std,nmi_mean,nmi_std,f_mean,f_std,ari_mean,ari_std"]
        for cell in cells:
            finals = [
                run_train(ds, replace(cell, seed=cell.seed + r)).final_eval
                for r in range(args.repeats)
            ]
            scores = np.array([[m.acc, m.nmi, m.f_score, m.ari] for m in finals], dtype=np.float64)
            mean, std = scores.mean(axis=0), scores.std(axis=0)
            stats = [f"{m:.6f},{sd:.6f}" for m, sd in zip(mean, std)]
            lines.append(",".join([f"{cell.gamma:g}", str(cell.k)] + stats))
            print(f"gamma={cell.gamma:g} k={cell.k}: ACC {mean[0]:.4f}")
        (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    return 0


def cmd_gradcheck(args, argv) -> int:
    # written so that nan fails too: every comparison with nan is false
    if not 0 < args.tol < np.inf:
        raise ParameterError(f"--tol must be finite and positive, got {args.tol:g}")
    if args.data is None:
        # a small instance, so that the central differences stay cheap
        args.synth = "3x4" if args.synth is None else args.synth
        args.view_dims = "4,3" if args.view_dims is None else args.view_dims
        args.noise = 0.1 if args.noise is None else args.noise
    cfg = _config_from_args(args)
    ds, _ = _load_input(args, cfg.seed)
    report = run_gradcheck(ds, cfg)
    print(report.to_text(), end="")
    if report.ok(args.tol):
        print(f"gradcheck OK (worst {report.worst:.3e} < {args.tol:g})")
        return 0
    print(f"gradcheck FAILED (worst {report.worst:.3e} >= {args.tol:g})", file=sys.stderr)
    return 1


def cmd_synth(args, argv) -> int:
    ds, _ = _load_input(args, args.seed)
    save_dataset(ds, args.out)
    dims = "x".join(str(d) for d in ds.dims)
    print(f"wrote {ds.n_samples} samples, {ds.n_views} views ({dims}) to {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error is one ``error:`` line on stderr and exit status 2, like every
    other CLI error; the subcommand parsers are made of this class too."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="slrl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the full pipeline")
    _add_data_flags(p_train)
    _add_run_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="metrics for saved predictions against truth")
    p_eval.add_argument("--pred", type=str, required=True)
    p_eval.add_argument("--truth", type=str, required=True)
    p_eval.add_argument("--out", type=str, default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_ablate = sub.add_parser("ablate", help="compare pipeline variants (a)/(b)/(c)")
    _add_data_flags(p_ablate)
    _add_run_flags(p_ablate)
    p_ablate.set_defaults(func=cmd_ablate)

    p_sweep = sub.add_parser("sweep", help="grid over gamma and k")
    _add_data_flags(p_sweep)
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--gamma-grid", type=str, default=None, help="comma list of gamma values")
    p_sweep.add_argument("--k-grid", type=str, default=None, help="comma list of k values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_grad = sub.add_parser("gradcheck", help="verify analytic gradients by finite differences")
    _add_data_flags(p_grad)
    _add_model_flags(p_grad)
    p_grad.add_argument("--tol", type=float, default=1e-4)
    # a small instance, so that the central differences stay cheap
    p_grad.set_defaults(func=cmd_gradcheck, latent_dim=5, k=3, heads=2)

    p_synth = sub.add_parser("synth", help="generate and save a synthetic dataset")
    p_synth.add_argument("--synth", type=str, default="3x50")
    p_synth.add_argument("--view-dims", type=str, default=None)
    p_synth.add_argument("--noise", type=float, default=None)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", type=str, default="slrl_out")
    p_synth.set_defaults(func=cmd_synth, data=None, no_normalize=False)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
