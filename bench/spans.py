"""Layer spans and work counts, recorded from outside the program.

A ``Tracer`` replaces each public function of a layer with a wrapper at the
place its caller looks it up: ``train.py`` calls ``gr.build_graph`` and
friends through module attributes, while ``cli.py`` and the kernels bind
names such as ``run_train`` and ``as_matrix`` at import, so those are
patched in the importing module. ``restore`` puts every original back.

Spans are kept in memory as ``[name, start, end, parent]``; one tracer covers
one round, so its spans share the round as their identifier. A layer's self
time is the sum of its spans' durations minus the time their direct child
spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter

# (module, attribute path, span name). Several functions may feed one layer.
LIBRARY_TARGETS = (
    ("slrl.graph", "build_graph", "graph.build"),
    ("slrl.graph", "NeighborGraph.neighborhoods", "graph.nbhd"),
    ("slrl.gat", "stack_forward", "gat.forward"),
    ("slrl.gat", "stack_backward", "gat.backward"),
    ("slrl.encoder", "reconstruction_loss", "encoder.loss"),
    ("slrl.encoder", "reconstruction_grads", "encoder.grads"),
    ("slrl.cluster", "init_centroids", "cluster.init"),
    ("slrl.cluster", "soft_assign", "cluster.head"),
    ("slrl.cluster", "target_distribution", "cluster.head"),
    ("slrl.cluster", "kl_loss", "cluster.head"),
    ("slrl.cluster", "cluster_grads", "cluster.head"),
    ("slrl.metrics", "evaluate", "metrics.evaluate"),
    ("slrl.metrics", "aggregate_rows", "metrics.evaluate"),
    ("slrl.train", "train", "train"),
)

# names cli.py bound at import time
CLI_TARGETS = (
    ("slrl.cli", "run_train", "train"),
    ("slrl.cli", "load_dataset", "data.load"),
    ("slrl.cli", "normalize", "data.load"),
    ("slrl.cli", "target_distribution", "cluster.head"),
    ("slrl.cli", "_run_one", "cli.write"),
    ("slrl.cli", "_write_manifest", "cli.write"),
    ("slrl.cli", "_finalize_manifest", "cli.write"),
)

# every module that bound numerics.as_matrix by name
AS_MATRIX_MODULES = ("slrl.numerics", "slrl.graph", "slrl.encoder", "slrl.gat", "slrl.cluster")

SPAN_NAMES = (
    "graph.build",
    "graph.nbhd",
    "gat.forward",
    "gat.backward",
    "encoder.loss",
    "encoder.grads",
    "cluster.init",
    "cluster.head",
    "metrics.evaluate",
    "train",
    "data.load",
    "cli.write",
)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Records spans and counts for one round while its patches are installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _patch(self, module_name: str, path: str, make_wrapper) -> None:
        owner, attr = _resolve(module_name, path)
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))

    def wrap(self, module_name: str, path: str, name: str) -> None:
        def make(fn):
            def wrapper(*args, **kwargs):
                self.counts[name + ".calls"] += 1
                with self.span(name):
                    result = fn(*args, **kwargs)
                if name == "graph.build":
                    self.counts["graph.edges"] += sum(len(ids) for ids in result.nbrs) // 2
                return result

            return wrapper

        self._patch(module_name, path, make)

    def count_as_matrix(self, module_name: str) -> None:
        def make(fn):
            def wrapper(*args, **kwargs):
                m = fn(*args, **kwargs)
                self.counts["numerics.finite_checks"] += 1
                self.counts["numerics.checked_bytes"] += m.nbytes
                return m

            return wrapper

        self._patch(module_name, "as_matrix", make)

    def install(self, cli: bool = False) -> "Tracer":
        for module_name, path, name in LIBRARY_TARGETS + (CLI_TARGETS if cli else ()):
            self.wrap(module_name, path, name)
        for module_name in AS_MATRIX_MODULES:
            self.count_as_matrix(module_name)
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict:
        """Span name -> summed self time in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for idx, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[idx]
        return out

    def summary(self) -> dict:
        """Self times, counts and the spans themselves, in a JSON-ready form.

        Span times are seconds from the first span's start.
        """
        t0 = self.spans[0][1] if self.spans else 0.0
        spans = [[name, start - t0, end - start, parent] for name, start, end, parent in self.spans]
        return {"self_s": self.self_times(), "counts": dict(self.counts), "spans": spans}


def null_span(_name: str):
    """Stand-in for ``Tracer.span`` when a round is not traced."""
    return contextlib.nullcontext()
