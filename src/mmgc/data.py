"""Containers and on-disk formats for multimodal attributed graphs.

A dataset couples one undirected graph with one node-feature matrix per
modality and an optional per-node label vector.  Feature matrices are
stored in 32-bit floats; derived quantities are accumulated in 64-bit.

On-disk layout (all paths are resolved relative to the manifest file):

* manifest: ``key = value`` text lines with keys ``edges``, ``labels``
  (optional), ``clusters`` (optional) and ``modality.<name>.features``.
* edge list: one ``u v`` pair of 0-based node ids per line, ``#`` starts
  a comment.  Edges are symmetrized and deduplicated on load and
  self-loops are dropped.
* feature matrix: 8-byte magic ``MMAGF01\\n``, u64-LE row count, u64-LE
  column count, then float32-LE values in row-major order.
* labels: one integer per line, ``-1`` meaning unknown.

The edge list and the labels are parsed in one call to numpy's C text
reader and checked as arrays.  A file that reader refuses, or whose array
fails a check, is read again line by line with Python's ``int``: that loop
accepts what the reader does not (``1_0``, non-ASCII digits) and its
errors name the offending line as ``path:lineno``.  On every file the
reader accepts, both give the same integers.
"""

from __future__ import annotations

import numbers
import os
import struct
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy.sparse as sp

FEATURE_MAGIC = b"MMAGF01\n"

# refuse to allocate absurd matrices from a corrupt header
_MAX_FEATURE_ENTRIES = 1 << 33

_MANIFEST_KEYS = ("edges", "labels", "clusters")


def check_field_types(config) -> None:
    """Refuse, naming the field, a value of a config dataclass's ``int`` field
    that is not an integer or is a bool, and one of a ``bool`` field that is
    not a bool: ``seed=1.5`` would run as seed 1, ``n=30.5`` would fail deep
    inside numpy, and ``no_fdd="false"`` would read as true."""
    for f in fields(config):  # f.type is the annotation's text under __future__ annotations
        value = getattr(config, f.name)
        if f.type == "bool" and not isinstance(value, bool):
            raise ValueError(f"{f.name} must be a bool, got {value!r}")
        if f.type == "int" and (isinstance(value, bool)
                                or not isinstance(value, numbers.Integral)):
            raise ValueError(f"{f.name} must be an integer, got {value!r}")


@dataclass
class ModalityFeatures:
    """One modality's node-by-feature matrix (float32)."""

    name: str
    x: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.x.shape[1])


@dataclass
class MultimodalGraph:
    """Undirected graph plus per-modality node features.

    ``edges`` is a symmetric 0/1 CSR adjacency with an empty diagonal.
    ``labels`` uses -1 for unknown class ids.
    """

    edges: sp.csr_matrix
    modalities: list[ModalityFeatures]
    labels: np.ndarray | None = None

    @property
    def n_nodes(self) -> int:
        return int(self.edges.shape[0])

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.edges.nnz // 2)

    def modality(self, name: str) -> ModalityFeatures:
        for m in self.modalities:
            if m.name == name:
                return m
        raise KeyError(f"no modality named {name!r}")


def induce_subgraph(graph: MultimodalGraph, n: int) -> MultimodalGraph:
    """Restrict to the first ``n`` nodes, keeping internal edges only."""
    if n < 1:
        raise ValueError("subgraph must keep at least one node")
    n = min(n, graph.n_nodes)
    edges = sp.csr_matrix(graph.edges[:n, :n])
    edges.eliminate_zeros()
    modalities = [ModalityFeatures(m.name, m.x[:n].copy()) for m in graph.modalities]
    labels = None if graph.labels is None else graph.labels[:n].copy()
    return MultimodalGraph(edges=edges, modalities=modalities, labels=labels)


@dataclass
class NormalizedOperators:
    """Symmetrically normalized adjacency."""

    a_hat: sp.csr_matrix


# ---------------------------------------------------------------------------
# low-level readers / writers


def write_feature_matrix(path, x) -> None:
    x = np.ascontiguousarray(np.asarray(x, dtype=np.float32))
    if x.ndim != 2:
        raise ValueError("feature matrix must be 2-d")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<QQ", x.shape[0], x.shape[1]))
        fh.write(x.tobytes(order="C"))


def read_feature_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != FEATURE_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, not a feature matrix file")
        header = fh.read(16)
        if len(header) != 16:
            raise ValueError(f"{path}: truncated header")
        rows, cols = struct.unpack("<QQ", header)
        if rows * cols > _MAX_FEATURE_ENTRIES:
            raise ValueError(f"{path}: implausible header ({rows} x {cols})")
        expected = rows * cols * 4
        # sized against the file first, so a corrupt header allocates nothing
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size < expected:
            raise ValueError(f"{path}: truncated payload ({size} < {expected} bytes)")
        if size > expected:
            raise ValueError(f"{path}: {size - expected} trailing bytes after payload")
        x = np.empty((rows, cols), dtype="<f4")
        got = fh.readinto(x)
    if got < expected:  # the file shrank after fstat
        raise ValueError(f"{path}: truncated payload ({got} < {expected} bytes)")
    return x.astype(np.float32, copy=False)


def write_edge_list(path, adj: sp.csr_matrix) -> None:
    """Write the upper triangle of a symmetric adjacency as ``u v`` lines."""
    coo = sp.triu(adj, k=1).tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in zip(coo.row[order], coo.col[order]):
            fh.write(f"{u} {v}\n")


def _lines(path):
    """``(lineno, text)`` per line of a text file, ``#`` comments cut and
    blank lines skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.partition("#")[0].strip()
            if line:
                yield lineno, line


def symmetric_adjacency(n: int, us, vs) -> sp.csr_matrix:
    """Float64 0/1 CSR holding both directions of every ``(us[i], vs[i])``
    pair; duplicate pairs collapse to one entry."""
    us, vs = np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)
    adj = sp.csr_matrix(
        (np.ones(2 * us.size), (np.concatenate([us, vs]), np.concatenate([vs, us]))),
        shape=(n, n),
    )
    adj.data[:] = 1.0  # duplicates were summed on construction
    return adj


def _int_columns(path, ncols: int) -> np.ndarray | None:
    """The file's integers as a (lines, ``ncols``) int64 array, parsed by
    numpy's C reader with ``#`` comments cut and blank lines skipped; None
    when that reader refuses the file or finds another column count (a file
    with no data reads as one column)."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            values = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2, encoding="utf-8")
    except (ValueError, OSError):
        return None
    return values if values.shape[1] == ncols else None


def _edge_pairs_by_line(path, n_nodes: int) -> tuple[list[int], list[int]]:
    """``read_edge_list``'s pairs read line by line with ``int``, self-loops
    dropped; raises the first bad line's error."""
    us: list[int] = []
    vs: list[int] = []
    for lineno, line in _lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-integer node id") from exc
        if u < 0 or v < 0 or u >= n_nodes or v >= n_nodes:
            raise ValueError(f"{path}:{lineno}: node id out of range for {n_nodes} nodes")
        if u != v:
            us.append(u)
            vs.append(v)
    return us, vs


def read_edge_list(path, n_nodes: int) -> sp.csr_matrix:
    """Read, symmetrize and deduplicate an edge list; self-loops are dropped."""
    pairs = _int_columns(path, 2)
    if pairs is None or not ((pairs >= 0) & (pairs < n_nodes)).all():
        return symmetric_adjacency(n_nodes, *_edge_pairs_by_line(path, n_nodes))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    return symmetric_adjacency(n_nodes, pairs[:, 0], pairs[:, 1])


def write_labels(path, labels) -> None:
    labels = np.asarray(labels, dtype=np.int64)
    with open(path, "w", encoding="utf-8") as fh:
        for v in labels:
            fh.write(f"{v}\n")


def _labels_by_line(path, n_nodes: int) -> np.ndarray:
    """``read_labels`` read line by line with ``int``; raises the first bad
    line's error."""
    values: list[int] = []
    for lineno, line in _lines(path):
        try:
            value = int(line)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-integer label") from exc
        if not -(2**63) <= value < 2**63:
            raise ValueError(f"{path}:{lineno}: label out of int64 range")
        values.append(value)
    if len(values) != n_nodes:
        raise ValueError(f"{path}: {len(values)} labels for {n_nodes} nodes")
    labels = np.asarray(values, dtype=np.int64)
    if (labels < -1).any():
        raise ValueError(f"{path}: labels must be >= -1")
    return labels


def read_labels(path, n_nodes: int) -> np.ndarray:
    labels = _int_columns(path, 1)
    if labels is None or labels.shape[0] != n_nodes or (labels < -1).any():
        return _labels_by_line(path, n_nodes)
    return labels[:, 0]


# ---------------------------------------------------------------------------
# manifests and datasets


def parse_keyvalues(path) -> dict[str, str]:
    """Parse ``key = value`` lines; ``#`` comments and blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, line in _lines(path):
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ValueError(f"{path}:{lineno}: empty key or value")
        if key in out:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _impute_column_means(x: np.ndarray, where: str) -> np.ndarray:
    """Replace NaN entries with their column mean (computed in float64)."""
    if np.isinf(x).any():
        raise ValueError(f"{where}: feature matrix contains infinite values")
    nan_mask = np.isnan(x)
    if not nan_mask.any():
        return x
    x64 = x.astype(np.float64)
    for j in np.flatnonzero(nan_mask.any(axis=0)):
        col = x64[:, j]
        finite = ~nan_mask[:, j]
        mean = col[finite].mean() if finite.any() else 0.0
        col[~finite] = mean
    return x64.astype(np.float32)


def load_dataset(manifest_path) -> tuple[MultimodalGraph, int | None]:
    """Load a dataset from a manifest.

    Returns the graph and the declared cluster count (``None`` when the
    manifest does not carry one).
    """
    manifest_path = Path(manifest_path)
    entries = parse_keyvalues(manifest_path)
    base = manifest_path.parent

    modality_names: list[str] = []
    for key in entries:
        if key in _MANIFEST_KEYS:
            continue
        parts = key.split(".")
        if len(parts) == 3 and parts[0] == "modality" and parts[2] == "features":
            modality_names.append(parts[1])
        else:
            raise ValueError(f"{manifest_path}: unrecognized manifest key {key!r}")
    if not modality_names:
        raise ValueError(f"{manifest_path}: no modality.<name>.features entries")
    if "edges" not in entries:
        raise ValueError(f"{manifest_path}: missing 'edges' entry")

    modalities: list[ModalityFeatures] = []
    n_nodes: int | None = None
    for name in modality_names:
        path = base / entries[f"modality.{name}.features"]
        x = read_feature_matrix(path)
        if x.shape[0] == 0 or x.shape[1] == 0:
            raise ValueError(f"{path}: empty feature matrix")
        if n_nodes is None:
            n_nodes = x.shape[0]
        elif x.shape[0] != n_nodes:
            raise ValueError(
                f"{path}: modality {name!r} has {x.shape[0]} rows, expected {n_nodes}"
            )
        x = _impute_column_means(x, str(path))
        modalities.append(ModalityFeatures(name=name, x=x))

    adj = read_edge_list(base / entries["edges"], n_nodes)

    labels = None
    if "labels" in entries:
        labels = read_labels(base / entries["labels"], n_nodes)

    clusters = None
    if "clusters" in entries:
        try:
            clusters = int(entries["clusters"])
        except ValueError as exc:
            raise ValueError(f"{manifest_path}: clusters must be an integer") from exc
        if clusters < 1:
            raise ValueError(f"{manifest_path}: clusters must be >= 1")

    return MultimodalGraph(edges=adj, modalities=modalities, labels=labels), clusters


def save_dataset(graph: MultimodalGraph, out_dir, clusters: int | None = None) -> Path:
    """Write a dataset directory and return the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"edges = edges.txt"]
    write_edge_list(out_dir / "edges.txt", graph.edges)
    if graph.labels is not None:
        write_labels(out_dir / "labels.txt", graph.labels)
        lines.append("labels = labels.txt")
    for m in graph.modalities:
        fname = f"{m.name}.features.bin"
        write_feature_matrix(out_dir / fname, m.x)
        lines.append(f"modality.{m.name}.features = {fname}")
    if clusters is not None:
        lines.append(f"clusters = {clusters}")
    manifest = out_dir / "manifest.txt"
    manifest.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return manifest


# ---------------------------------------------------------------------------
# graph operators


def add_isolated_self_loops(adj: sp.csr_matrix) -> tuple[sp.csr_matrix, int]:
    """Float64 CSR copy of ``adj`` with a unit self-loop on every isolated node,
    and the number of loops added."""
    adj = sp.csr_matrix(adj, dtype=np.float64)
    isolated = np.asarray(adj.sum(axis=1)).ravel() == 0
    if isolated.any():
        adj = (adj + sp.diags(isolated.astype(np.float64))).tocsr()
    return adj, int(isolated.sum())


def normalize_adjacency(adj: sp.csr_matrix) -> NormalizedOperators:
    """Symmetric degree normalization; isolated nodes get a unit self-loop first."""
    adj, _ = add_isolated_self_loops(adj)
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(degrees)
    d_half = sp.diags(inv_sqrt)
    a_hat = (d_half @ adj @ d_half).tocsr()
    return NormalizedOperators(a_hat=a_hat)


def laplacian(ops: NormalizedOperators) -> sp.csr_matrix:
    """Normalized graph Laplacian I - A_hat (eigenvalues in [0, 2])."""
    n = ops.a_hat.shape[0]
    return (sp.eye(n, format="csr") - ops.a_hat).tocsr()
