"""The slrl benchmark: run one named workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree; it imports ``slrl`` from ``src``
there. Every process it starts has OpenBLAS pinned to one thread before
numpy loads, and refuses to report if the count in force is not 1.

With ``--trace 0`` the end-to-end metrics are printed: ``setup_s`` is the
median over several fresh processes of the time from process start to inputs
ready; the others come from one worker process that repeats whole rounds of
the workload for S seconds. With ``--trace 1`` untraced and traced rounds
alternate and the per-layer metrics are printed instead. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment. The
full record of the run is written to ``bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from blas import pinned_env  # noqa: E402

WORKLOADS = ("graph-gat-n1500", "wide-views-n210", "cli-train-n150")
SETUP_SAMPLES = 7  # fresh processes whose set-up time gives the setup_s median
DEADLINE_S = 170  # the whole run, set-up samples included

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "epochs_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "acc": "fraction",
    "nmi": "fraction",
}
PER_LAYER = {
    "graph.build_s": "s",
    "graph.nbhd_s": "s",
    "graph.build_calls": "count",
    "graph.edges": "count",
    "gat.forward_s": "s",
    "gat.backward_s": "s",
    "gat.calls": "count",
    "encoder.loss_s": "s",
    "encoder.grads_s": "s",
    "encoder.calls": "count",
    "cluster.init_s": "s",
    "cluster.head_s": "s",
    "metrics.evaluate_s": "s",
    "metrics.calls": "count",
    "numerics.finite_checks": "count",
    "numerics.checked_mb": "MiB",
    "train.self_s": "s",
    "train.joint_epochs": "count",
    "train.pretrain_epochs": "count",
    "data.load_s": "s",
    "cli.write_s": "s",
    "cli.written_mb": "MiB",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


def _worker(args, work: Path, env: dict, deadline: float, setup_only: bool) -> dict:
    """Start worker.py in a fresh process and return the JSON record it prints."""
    cmd = [
        sys.executable, str(Path(__file__).resolve().parent / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()  # CLOCK_MONOTONIC is shared by every process on the machine
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.terminate()  # the worker stops the CLI process it is waiting for, then exits
        try:
            proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        raise BenchError(f"worker for {args.workload} ran past the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker for {args.workload} exited with status {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "slrl" / "__init__.py").is_file():
        raise BenchError(f"no slrl sources under {root / 'src'}; run from the root of a source tree")
    env = pinned_env(str(root / "src"))
    work_root = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                setups.append(_worker(args, work_root / f"setup{i}", env, deadline, True)["setup_s"])
        record = _worker(args, work_root / "run", env, deadline, False)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()
        except OSError:  # another run is using it
            pass
    setups.append(record["setup_s"])
    record["setup_samples_s"] = setups
    units = PER_LAYER if args.trace else END_TO_END
    values = dict(record["metrics"], **({} if args.trace else {"setup_s": statistics.median(setups)}))
    if record["correct"] and set(values) != set(units):
        raise BenchError(f"metrics {sorted(values)} do not match {sorted(units)}")
    record["result"] = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units if name in values},
    }
    out = root / "bench_results"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n")
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        record = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for message in record["errors"] + record["failures"]:
        print(f"check: {message}", file=sys.stderr)
    print(json.dumps({"env": record["env"], "setup_samples_s": record["setup_samples_s"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
