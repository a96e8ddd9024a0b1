"""The thread pin guard, the metric tables and running outside a source tree."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import blas
import run
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def test_single_thread_check():
    blas.check_single_thread({"libopenblas.so": 1})
    with pytest.raises(blas.ThreadPinError, match="not 1"):
        blas.check_single_thread({"libopenblas.so": 1, "libscipy_openblas.so": 2})
    with pytest.raises(blas.ThreadPinError, match="no OpenBLAS"):
        blas.check_single_thread({})


def test_readback_sees_numpy_openblas():
    import numpy  # noqa: F401

    assert blas.openblas_threads()


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="OpenBLAS caps threads at the core count")
@pytest.mark.parametrize(
    "script, args",
    [
        ("worker.py", ["--workload", "cli-train-n150", "--seed", "0", "--seconds", "1", "--work", "w", "--t0", "0"]),
        ("cli_entry.py", ["train", "--synth", "3x5"]),
    ],
)
def test_two_threads_in_force_stops_the_process(tmp_path, script, args):
    env = blas.pinned_env(str(ROOT / "src"))
    env["OPENBLAS_NUM_THREADS"] = "2"
    proc = subprocess.run(
        [sys.executable, str(BENCH / script), *args], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3
    assert "thread count in force is not 1" in proc.stderr
    assert "{" not in proc.stdout


def test_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-train-n150", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no slrl sources" in proc.stderr
