"""Pin BLAS to one thread and prove the pin from inside a process.

OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when the library loads, so the
variables must be in the environment of a process before it imports numpy.
``pinned_env`` builds that environment for every process the benchmark
starts; ``check_single_thread`` runs inside such a process after numpy and
scipy have loaded and asks each loaded OpenBLAS how many threads it uses.
threadpoolctl is not required: the bundled libraries answer through ctypes.

This module imports nothing from numpy, so the launcher can use it too.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess

THREADS_TAG = "openblas-threads: "  # prefix of the line a child prints with its counts
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# getters exported by the OpenBLAS builds numpy and scipy ship (64-bit and
# 32-bit integer interfaces, with and without the scipy_ symbol prefix)
_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


class ThreadPinError(RuntimeError):
    """The BLAS thread count in force is not 1, or cannot be read."""


def pinned_env(src_dir: str) -> dict:
    """Environment for a child process: one BLAS thread, the checkout's sources first."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("SLRL_THREADS", None)
    env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _loaded_openblas() -> list:
    """Paths of the OpenBLAS shared objects mapped into this process."""
    paths = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            parts = line.split()
            if len(parts) >= 6 and "openblas" in os.path.basename(parts[-1]).lower():
                paths.add(parts[-1])
    return sorted(paths)


def openblas_threads() -> dict:
    """{library file name: thread count in force} for every loaded OpenBLAS."""
    counts = {}
    for path in _loaded_openblas():
        lib = ctypes.CDLL(path)
        for name in _GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                counts[os.path.basename(path)] = int(getter())
                break
    return counts


def check_single_thread(counts: dict) -> None:
    """Raise unless at least one OpenBLAS is loaded and every one runs 1 thread."""
    if not counts:
        raise ThreadPinError("no OpenBLAS library is loaded; cannot prove a single-thread BLAS")
    wrong = {lib: n for lib, n in counts.items() if n != 1}
    if wrong:
        raise ThreadPinError(
            f"OpenBLAS thread count in force is not 1: {wrong}; "
            f"start the process with {'=1, '.join(THREAD_VARS)}=1 set before numpy loads"
        )


def git_revision(root: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root: str, counts: dict) -> dict:
    """What a reader needs to compare two runs: versions, cores, threads, revision."""
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": counts,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_revision": git_revision(root),
    }
