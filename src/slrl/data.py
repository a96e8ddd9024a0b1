"""Multi-view datasets: container, on-disk format, normalization, synthesis.

A dataset is V feature matrices over one shared sample index (row i of every
view describes the same object) plus optional ground-truth labels.

On-disk layout, rooted at a directory:
  * ``manifest.txt`` with one line per view
        view <name> <relative-path> <continuous|discrete>
    and an optional line
        labels <relative-path>
    A view name is printable and has no spaces. The kind is recorded and
    round-tripped, but nothing in training reads it. ``save_dataset`` writes
    view i to ``view<i>.mvm``.
  * matrix files either as whitespace/comma-delimited text or as binary
    blocks: magic ``MVM1``, rows (u64 LE), cols (u64 LE), then rows*cols
    float64 LE values in row-major order, up to the end of the file
  * labels as one integer per line
"""

from __future__ import annotations

import os
import struct
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import FormatError, ParameterError
from .numerics import as_int, as_ints, make_rng

__all__ = [
    "MultiViewDataset",
    "load_dataset",
    "save_dataset",
    "read_matrix",
    "read_labels",
    "write_matrix",
    "normalize",
    "synth_multiview",
]

MAGIC = b"MVM1"
MANIFEST = "manifest.txt"
KINDS = ("continuous", "discrete")
# smallest pairwise distance between the scaled cluster centers of synth_multiview
_MIN_SEPARATION = 0.5


@dataclass
class MultiViewDataset:
    """Per-view feature matrices over a shared sample index."""

    views: list
    labels: np.ndarray | None = None
    view_names: list = field(default_factory=list)
    kinds: list = field(default_factory=list)  # "continuous" | "discrete" per view

    def __post_init__(self):
        if not self.views:
            raise FormatError("dataset needs at least one view")
        self.views = list(self.views)
        for i, v in enumerate(self.views):
            try:
                v = np.asarray(v)
            except (TypeError, ValueError):  # rows of different lengths
                v = None
            # bool, integer or float, as labels: casting a complex view drops its imaginary part
            if v is None or v.dtype.kind not in "biufc":
                raise FormatError(f"view {i} is not a numeric matrix")
            if v.dtype.kind == "c":
                raise FormatError(f"view {i} has complex entries; views must be real")
            self.views[i] = v = v.astype(np.float64, copy=False)
            if v.ndim != 2:
                raise FormatError(f"view {i} is not a matrix")
            if v.shape[0] != self.n_samples:
                raise FormatError(f"view {i} has {v.shape[0]} rows, expected {self.n_samples}")
            if v.shape[1] < 1:
                raise FormatError(f"view {i} has no features")
            if not np.isfinite(v).all():
                raise FormatError(f"view {i} contains non-finite entries")
        n = self.n_samples
        if n < 1:
            raise FormatError("dataset has no samples")
        if self.labels is not None:
            self.labels = as_ints(self.labels, "labels", FormatError)
            if self.labels.ndim != 1:
                raise FormatError(f"labels must be a vector, got shape {self.labels.shape}")
            if self.labels.shape[0] != n:
                raise FormatError(f"{self.labels.shape[0]} labels for {n} samples")
        if not self.view_names:
            self.view_names = [f"view{i}" for i in range(len(self.views))]
        if not self.kinds:
            self.kinds = ["continuous"] * len(self.views)
        if len(self.view_names) != len(self.views) or len(self.kinds) != len(self.views):
            raise FormatError("view metadata length mismatch")
        # the manifest holds each name as one whitespace-free field
        for name in self.view_names:
            if not (isinstance(name, str) and name and name.isprintable() and " " not in name):
                raise FormatError(f"view name {name!r} is not one printable word")
        for kind in self.kinds:
            if kind not in KINDS:
                raise FormatError(f"view kind {kind!r} is not one of {', '.join(KINDS)}")

    @property
    def n_samples(self) -> int:
        return self.views[0].shape[0]

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def dims(self) -> list:
        return [v.shape[1] for v in self.views]

    def n_clusters(self) -> int | None:
        return int(np.unique(self.labels).size) if self.labels is not None else None


def write_matrix(path, m: np.ndarray) -> None:
    """Binary matrix block: MVM1 magic, u64 rows, u64 cols, float64 data."""
    m = np.ascontiguousarray(np.asarray(m, dtype=np.float64))
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<QQ", m.shape[0], m.shape[1]))
        fh.write(m.astype("<f8").tobytes())


def read_matrix(path) -> np.ndarray:
    """Read a matrix file, sniffing binary (MVM1) versus delimited text."""
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(4)
        if head == MAGIC:
            shape = fh.read(16)
            if len(shape) != 16:
                raise FormatError(f"{path}: truncated matrix header")
            rows, cols = struct.unpack("<QQ", shape)
            # checked before reading, so that a bad header sizes no allocation
            left = os.fstat(fh.fileno()).st_size - fh.tell()
            if rows * cols * 8 != left:
                raise FormatError(f"{path}: {rows}x{cols} matrix declared, {left} data bytes follow")
            if max(rows, 1) * max(cols, 1) * 8 > sys.maxsize:
                raise FormatError(f"{path}: matrix shape {rows}x{cols} too large")
            data = np.frombuffer(fh.read(rows * cols * 8), dtype="<f8")
            return data.reshape(rows, cols).astype(np.float64)
    with _values_required(path):
        for delimiter in (None, ","):
            try:
                return np.loadtxt(path, dtype=np.float64, delimiter=delimiter, ndmin=2)
            except ValueError as exc:
                error = exc
    raise FormatError(f"{path}: not a numeric matrix ({error})") from None


def read_labels(path) -> np.ndarray:
    """One integer label per line."""
    with _values_required(path):
        try:
            labels = np.loadtxt(path, dtype=np.int64, ndmin=2)
        except ValueError as exc:
            raise FormatError(f"{path}: labels must be integers ({exc})") from None
    if labels.shape[1] != 1:
        raise FormatError(f"{path}: {labels.shape[1]} values on a line, expected one label")
    return labels[:, 0]


@contextmanager
def _values_required(path):
    """A text file that holds no values raises ``FormatError`` in place of
    numpy's warning and empty array."""
    with warnings.catch_warnings():
        warnings.filterwarnings("error", "loadtxt: input contained no data", UserWarning)
        try:
            yield
        except UserWarning:
            raise FormatError(f"{path}: no values") from None


def load_dataset(path) -> MultiViewDataset:
    """Load a dataset directory via its manifest."""
    root = Path(path)
    manifest = root / MANIFEST
    if not manifest.exists():
        raise FileNotFoundError(f"no {MANIFEST} in {root}")
    views, names, kinds = [], [], []
    labels = None
    try:
        text = manifest.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{manifest}: not text ({exc})") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "view":
            if len(parts) != 4 or parts[3] not in KINDS:
                raise FormatError(f"{manifest}:{lineno}: bad view line")
            names.append(parts[1])
            kinds.append(parts[3])
            views.append(read_matrix(root / parts[2]))
        elif parts[0] == "labels":
            if len(parts) != 2:
                raise FormatError(f"{manifest}:{lineno}: bad labels line")
            labels = read_labels(root / parts[1])
        else:
            raise FormatError(f"{manifest}:{lineno}: unknown directive {parts[0]!r}")
    if not views:
        raise FormatError(f"{manifest}: no views declared")
    return MultiViewDataset(views=views, labels=labels, view_names=names, kinds=kinds)


def save_dataset(ds: MultiViewDataset, path) -> None:
    """Write a dataset directory (binary matrices plus manifest)."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    lines = []
    for i, (name, kind, view) in enumerate(zip(ds.view_names, ds.kinds, ds.views)):
        fname = f"view{i}.mvm"
        write_matrix(root / fname, view)
        lines.append(f"view {name} {fname} {kind}")
    if ds.labels is not None:
        np.savetxt(root / "labels.txt", ds.labels, fmt="%d")
        lines.append("labels labels.txt")
    (root / MANIFEST).write_text("\n".join(lines) + "\n", encoding="utf-8")


def normalize(ds: MultiViewDataset) -> MultiViewDataset:
    """Min-max scale every feature column to [0, 1]; constant columns map to 0."""
    out = []
    for view in ds.views:
        lo = view.min(axis=0)
        hi = view.max(axis=0)
        span = hi - lo
        scaled = np.where(span > 0, (view - lo) / np.where(span > 0, span, 1.0), 0.0)
        out.append(scaled)
    return replace(ds, views=out)


def synth_multiview(
    clusters: int,
    per_cluster: int,
    view_dims,
    noise: float = 0.05,
    seed: int = 0,
) -> MultiViewDataset:
    """Synthetic multi-view data with ground-truth cluster labels.

    Each cluster has one shared latent center; each view observes the center
    through a random linear map plus isotropic Gaussian noise, so at
    ``noise=0`` all samples of a cluster coincide within every view.
    Centers are redrawn until their pairwise distance is at least
    ``_MIN_SEPARATION``, which keeps the difficulty of a given noise level
    comparable across seeds; if 100 draws miss, it is a ``ParameterError``.
    """
    clusters, per_cluster = as_int(clusters, "clusters"), as_int(per_cluster, "per_cluster")
    if clusters < 2 or per_cluster < 2:
        raise ParameterError("need clusters >= 2 and per_cluster >= 2")
    view_dims = [as_int(d, "each view_dims entry") for d in view_dims]
    if not view_dims or any(d < 2 for d in view_dims):
        raise ParameterError("each view needs dimension >= 2")
    # written so that nan fails too: every comparison with nan is false
    if not 0 <= noise < np.inf:
        raise ParameterError("noise must be finite and >= 0")
    rng = make_rng(seed)
    gen_dim = max(2, min(view_dims))
    scale = 1.0 / np.sqrt(gen_dim)
    for _ in range(100):
        centers = rng.normal(size=(clusters, gen_dim))
        d = np.sqrt(
            np.maximum(
                np.sum(centers**2, 1)[:, None]
                + np.sum(centers**2, 1)[None, :]
                - 2 * centers @ centers.T,
                0.0,
            )
        )
        np.fill_diagonal(d, np.inf)
        if d.min() * scale >= _MIN_SEPARATION:
            break
    else:
        raise ParameterError(
            f"no draw of {clusters} cluster centers in {gen_dim} generator dimensions "
            f"kept them {_MIN_SEPARATION} apart; use fewer clusters or larger view dims"
        )
    centers = centers * scale
    n = clusters * per_cluster
    labels = np.repeat(np.arange(clusters), per_cluster)
    latent = centers[labels]
    views = []
    for d_v in view_dims:
        basis = rng.normal(size=(gen_dim, d_v)) / np.sqrt(gen_dim)
        clean = latent @ basis
        views.append(clean + noise * rng.normal(size=(n, d_v)))
    return MultiViewDataset(views=views, labels=labels)
