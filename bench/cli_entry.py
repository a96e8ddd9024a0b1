"""Run ``slrl`` as the command line does, after proving the BLAS pin.

    python3 bench/cli_entry.py [--trace-out FILE] <slrl arguments>

The process must be started with the thread variables already set (see
``blas.pinned_env``). It imports the CLI, reads the OpenBLAS thread count in
force, prints it on stderr and exits with status 3 unless it is 1. With
``--trace-out`` it records layer spans around the command and writes their
summary to FILE as JSON. Otherwise it returns what ``slrl.cli.main`` returns.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from blas import THREADS_TAG, ThreadPinError, check_single_thread, openblas_threads  # noqa: E402


def main(argv: list) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = Path(argv[1]), argv[2:]

    import slrl.cli

    counts = openblas_threads()
    print(THREADS_TAG + json.dumps(counts), file=sys.stderr)
    try:
        check_single_thread(counts)
    except ThreadPinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if trace_out is None:
        return slrl.cli.main(argv)

    from spans import Tracer

    tracer = Tracer().install(cli=True)
    try:
        code = slrl.cli.main(argv)
    finally:
        tracer.restore()
    trace_out.write_text(json.dumps(tracer.summary()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
