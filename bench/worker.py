"""Run one workload in this process and print its record as one JSON line.

Started by ``run.py`` with the BLAS thread variables already set. It imports
the program from the checkout's ``src``, proves the OpenBLAS thread count in
force is 1, makes the inputs from the seed, then repeats whole rounds until
``--seconds`` have passed. With ``--trace 1`` untraced and traced rounds
alternate, so the tracing overhead is measured in the same run. The last
round's outputs are checked in full and every round must reproduce them.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from blas import ThreadPinError, check_single_thread, environment, openblas_threads  # noqa: E402

MIB = 1024.0 * 1024.0


def _layer_metrics(traced: list, untraced: list) -> dict:
    """Per-layer figures: median self times over traced rounds, counts of the last one."""
    def med(key):
        return statistics.median(r.layers["self_s"][key] for r in traced)

    counts = traced[-1].layers["counts"]
    last = traced[-1]
    return {
        "graph.build_s": med("graph.build"),
        "graph.nbhd_s": med("graph.nbhd"),
        "graph.build_calls": counts.get("graph.build.calls", 0),
        "graph.edges": counts.get("graph.edges", 0),
        "gat.forward_s": med("gat.forward"),
        "gat.backward_s": med("gat.backward"),
        "gat.calls": counts.get("gat.forward.calls", 0) + counts.get("gat.backward.calls", 0),
        "encoder.loss_s": med("encoder.loss"),
        "encoder.grads_s": med("encoder.grads"),
        "encoder.calls": counts.get("encoder.loss.calls", 0) + counts.get("encoder.grads.calls", 0),
        "cluster.init_s": med("cluster.init"),
        "cluster.head_s": med("cluster.head"),
        "metrics.evaluate_s": med("metrics.evaluate"),
        "metrics.calls": counts.get("metrics.evaluate.calls", 0),
        "numerics.finite_checks": counts.get("numerics.finite_checks", 0),
        "numerics.checked_mb": counts.get("numerics.checked_bytes", 0) / MIB,
        "train.self_s": med("train"),
        "train.joint_epochs": last.joint_epochs,
        "train.pretrain_epochs": last.pretrain_epochs,
        "data.load_s": med("data.load"),
        "cli.write_s": med("cli.write"),
        "cli.written_mb": last.written_bytes / MIB,
        "trace.overhead_s": statistics.median(r.run_s for r in traced)
        - statistics.median(r.run_s for r in untraced),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="scratch directory for inputs and outputs")
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() when the process was started")
    ap.add_argument("--setup-only", action="store_true", help="stop once the inputs are ready")
    args = ap.parse_args(argv)
    # SystemExit unwinds through subprocess.run, which kills and waits for its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    import slrl

    if Path(slrl.__file__).resolve().parent != (root / "src" / "slrl").resolve():
        print(f"error: imported slrl from {slrl.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2
    counts = openblas_threads()
    try:
        check_single_thread(counts)
        return _run(args, root, counts)
    except ThreadPinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _run(args, root: Path, counts: dict) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    inputs = workload.setup(args.seed, work)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rounds, failures, check_last = [], [], None
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        check_last = None  # frees the previous round's outputs
        gc.collect()  # each round starts without the previous round's garbage
        try:
            result, check_last = workload.run_round(inputs, traced)
            rounds.append((traced, result))
        except ThreadPinError:
            raise
        except Exception as exc:  # a failed operation is counted, not fatal
            failures.append(f"{type(exc).__name__}: {exc}")
            rounds.append((traced, None))
        if time.perf_counter() - start >= args.seconds and len(rounds) >= 1 + args.trace:
            break
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if workload.rss_of_children else resource.RUSAGE_SELF
    )
    peak_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB

    done = [r for _, r in rounds if r is not None]
    untraced = [r for t, r in rounds if r is not None and not t]
    traced_rounds = [r for t, r in rounds if r is not None and t]
    errors = []
    if not untraced or (args.trace and not traced_rounds):
        errors.append("no round finished")
    else:
        errors += check_last() if check_last else ["the last round failed"]
        if len({(r.fingerprint, r.acc, r.nmi) for r in done}) != 1:
            errors.append("rounds on the same inputs gave different outputs")

    metrics = {}
    if not errors:
        if args.trace:
            metrics = _layer_metrics(traced_rounds, untraced)
        else:
            metrics = {
                "run_s": statistics.median(r.run_s for r in untraced),
                "epochs_per_s": statistics.median(
                    (r.pretrain_epochs + r.joint_epochs) / r.run_s for r in untraced
                ),
                "peak_rss_mb": peak_rss_mb,
                "acc": untraced[0].acc,
                "nmi": untraced[0].nmi,
            }
    child_threads = next((r.threads for r in done if r.threads is not None), None)
    env = environment(str(root), counts)
    if child_threads is not None:
        env["child_openblas_threads"] = child_threads
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        "attempted": len(rounds),
        "failed": len(failures),
        "failures": failures,
        "correct": not errors,
        "errors": errors,
        "metrics": metrics,
        "env": env,
        "rounds": [
            {"traced": t, "run_s": r.run_s, "epochs": [r.pretrain_epochs, r.joint_epochs],
             "acc": r.acc, "nmi": r.nmi, "fingerprint": r.fingerprint}
            for t, r in rounds if r is not None
        ],
        "layers": traced_rounds[-1].layers if traced_rounds else None,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
