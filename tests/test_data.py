"""Dataset I/O, graph containers, and operator normalization."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mmgc.data import (
    ModalityFeatures,
    MultimodalGraph,
    induce_subgraph,
    load_dataset,
    normalize_adjacency,
    parse_keyvalues,
    read_edge_list,
    read_feature_matrix,
    read_labels,
    save_dataset,
    symmetric_adjacency,
    write_edge_list,
    write_feature_matrix,
    write_labels,
)

from helpers import edges_from_pairs, er_graph, path_graph


# ---------------------------------------------------------------- containers

def test_graph_counts(small_graph):
    assert small_graph.n_nodes == 24
    assert small_graph.n_edges == small_graph.edges.nnz // 2
    assert small_graph.modality("text").dim == 6
    with pytest.raises(KeyError):
        small_graph.modality("audio")


def test_induce_subgraph_prefix(small_graph):
    sub = induce_subgraph(small_graph, 10)
    assert sub.n_nodes == 10
    assert sub.modality("text").x.shape == (10, 6)
    assert sub.labels is not None and sub.labels.shape == (10,)
    # edges restricted to the kept prefix
    dense_full = small_graph.edges.toarray()[:10, :10]
    assert np.array_equal(sub.edges.toarray(), dense_full)


def test_induce_subgraph_cap_is_noop(small_graph):
    sub = induce_subgraph(small_graph, 10_000)
    assert sub.n_nodes == small_graph.n_nodes


# ------------------------------------------------------------- feature files

def test_feature_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((17, 5)).astype(np.float32)
    path = tmp_path / "m.bin"
    write_feature_matrix(path, x)
    back = read_feature_matrix(path)
    assert back.dtype == np.float32
    assert np.array_equal(
        back.view(np.uint32), x.view(np.uint32)
    ), "roundtrip must be bit identical"


@settings(max_examples=25, deadline=None)
@given(
    arrays(
        np.float32,
        st.tuples(st.integers(1, 8), st.integers(1, 6)),
        elements=st.floats(-1e6, 1e6, width=32),
    )
)
def test_feature_roundtrip_property(tmp_path_factory, x):
    path = tmp_path_factory.mktemp("feat") / "x.bin"
    write_feature_matrix(path, x)
    back = read_feature_matrix(path)
    assert back.shape == x.shape
    assert np.array_equal(back.view(np.uint32), x.view(np.uint32))


def test_feature_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        read_feature_matrix(path)


def test_feature_truncated_payload(tmp_path):
    path = tmp_path / "trunc.bin"
    write_feature_matrix(path, np.ones((4, 4), dtype=np.float32))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="truncated"):
        read_feature_matrix(path)


def test_feature_trailing_bytes(tmp_path):
    path = tmp_path / "trail.bin"
    write_feature_matrix(path, np.ones((2, 2), dtype=np.float32))
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(ValueError):
        read_feature_matrix(path)


def test_feature_implausible_header(tmp_path):
    from mmgc.data import FEATURE_MAGIC

    path = tmp_path / "huge.bin"
    header = np.array([1 << 40, 1 << 40], dtype=np.uint64).tobytes()
    path.write_bytes(FEATURE_MAGIC + header)
    with pytest.raises(ValueError):
        read_feature_matrix(path)


# ----------------------------------------------------------------- edge files

def test_edge_list_roundtrip(tmp_path):
    adj = er_graph(15, 0.3, seed=3)
    path = tmp_path / "edges.txt"
    write_edge_list(path, adj)
    back = read_edge_list(path, 15)
    assert np.array_equal(back.toarray(), adj.toarray())


def test_edge_list_symmetrizes_and_dedupes(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# comment line\n0 1\n1 0\n0 1\n2 2\n", encoding="utf-8")
    adj = read_edge_list(path, 3)
    dense = adj.toarray()
    assert dense[0, 1] == 1.0 and dense[1, 0] == 1.0
    assert dense[2, 2] == 0.0, "self loops are dropped on read"
    assert adj.nnz == 2


def test_edge_list_errors(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("0 1 2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 'u v'"):
        read_edge_list(path, 3)
    path.write_text("0 x\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_edge_list(path, 3)
    path.write_text("0 9\n", encoding="utf-8")
    with pytest.raises(ValueError, match="out of range"):
        read_edge_list(path, 3)


@pytest.mark.parametrize("seed", range(4))
def test_symmetric_adjacency_matches_pair_builder(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    pairs = rng.integers(0, n, size=(60, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    # repeat some pairs as given and some reversed
    pairs = np.vstack([pairs, pairs[:10], pairs[10:20, ::-1]])
    got = symmetric_adjacency(n, pairs[:, 0], pairs[:, 1])
    want = edges_from_pairs(n, pairs.tolist())
    assert got.dtype == np.float64
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_edge_file_rows_sorted(tmp_path):
    adj = edges_from_pairs(5, [(3, 1), (0, 4), (2, 1)])
    path = tmp_path / "edges.txt"
    write_edge_list(path, adj)
    rows = [
        tuple(int(v) for v in line.split())
        for line in path.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert rows == sorted(rows)
    assert all(u < v for u, v in rows)


# ---------------------------------------------------------------- label files

def test_labels_roundtrip(tmp_path):
    labels = np.array([0, 2, 1, -1, 2], dtype=np.int64)
    path = tmp_path / "labels.txt"
    write_labels(path, labels)
    back = read_labels(path, 5)
    assert np.array_equal(back, labels)


def test_labels_count_mismatch(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\n1\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_labels(path, 3)


def test_labels_below_minus_one(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\n-2\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_labels(path, 2)


# ------------------------------------------------------------- key=value files

def test_parse_keyvalues(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(
        "# a comment\nn = 10\nk=3\n\nname = hello world\n", encoding="utf-8"
    )
    pairs = parse_keyvalues(path)
    assert pairs == {"n": "10", "k": "3", "name": "hello world"}


@pytest.mark.parametrize(
    "content,match",
    [
        ("novalue\n", "="),
        ("= x\n", "key"),
        ("k =\n", "value"),
        ("k = 1\nk = 2\n", "duplicate"),
    ],
)
def test_parse_keyvalues_errors(tmp_path, content, match):
    path = tmp_path / "cfg.txt"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ValueError, match=match):
        parse_keyvalues(path)


# ------------------------------------------------------------ dataset manifest

def test_dataset_roundtrip(tmp_path, small_graph):
    manifest = save_dataset(small_graph, tmp_path / "ds", clusters=3)
    graph, clusters = load_dataset(manifest)
    assert clusters == 3
    assert graph.n_nodes == small_graph.n_nodes
    assert graph.n_edges == small_graph.n_edges
    assert [m.name for m in graph.modalities] == ["text", "image"]
    for mine, theirs in zip(small_graph.modalities, graph.modalities):
        assert np.array_equal(mine.x, theirs.x)
    assert np.array_equal(graph.labels, small_graph.labels)


def test_dataset_same_bytes_on_rewrite(tmp_path, small_graph):
    m1 = save_dataset(small_graph, tmp_path / "a", clusters=3)
    m2 = save_dataset(small_graph, tmp_path / "b", clusters=3)
    for name in ("edges.txt", "labels.txt", "text.features.bin", "manifest.txt"):
        assert (m1.parent / name).read_bytes() == (m2.parent / name).read_bytes()


def test_load_dataset_unknown_key(tmp_path, small_graph):
    manifest = save_dataset(small_graph, tmp_path / "ds")
    text = manifest.read_text() + "mystery = 1\n"
    manifest.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match="mystery"):
        load_dataset(manifest)


def test_load_dataset_row_mismatch(tmp_path, small_graph):
    manifest = save_dataset(small_graph, tmp_path / "ds")
    write_feature_matrix(
        manifest.parent / "text.features.bin",
        np.zeros((small_graph.n_nodes + 1, 6), dtype=np.float32),
    )
    with pytest.raises(ValueError):
        load_dataset(manifest)


def test_nan_entries_imputed_with_column_means(tmp_path, small_graph):
    x = small_graph.modality("text").x.copy()
    x[2, 3] = np.nan
    mods = [ModalityFeatures("text", x)] + [
        m for m in small_graph.modalities if m.name != "text"
    ]
    graph = MultimodalGraph(small_graph.edges, mods, small_graph.labels)
    manifest = save_dataset(graph, tmp_path / "ds")
    loaded, _ = load_dataset(manifest)
    col = np.delete(x[:, 3], 2).astype(np.float64)
    got = loaded.modality("text").x[2, 3]
    assert np.isfinite(got)
    assert got == pytest.approx(col.mean(), rel=1e-6)


def test_all_nan_column_imputes_zero(tmp_path, small_graph):
    x = small_graph.modality("image").x.copy()
    x[:, 1] = np.nan
    mods = [m for m in small_graph.modalities if m.name != "image"]
    mods.append(ModalityFeatures("image", x))
    graph = MultimodalGraph(small_graph.edges, mods, small_graph.labels)
    manifest = save_dataset(graph, tmp_path / "ds")
    loaded, _ = load_dataset(manifest)
    assert np.all(loaded.modality("image").x[:, 1] == 0.0)


def test_infinite_entries_rejected(tmp_path, small_graph):
    x = small_graph.modality("text").x.copy()
    x[0, 0] = np.inf
    mods = [ModalityFeatures("text", x)] + [
        m for m in small_graph.modalities if m.name != "text"
    ]
    graph = MultimodalGraph(small_graph.edges, mods, small_graph.labels)
    manifest = save_dataset(graph, tmp_path / "ds")
    with pytest.raises(ValueError, match="infinite"):
        load_dataset(manifest)


# ------------------------------------------------------- operator normalization

def test_two_node_edge_normalization():
    adj = edges_from_pairs(2, [(0, 1)])
    ops = normalize_adjacency(adj)
    assert np.allclose(ops.a_hat.toarray(), [[0.0, 1.0], [1.0, 0.0]])


def test_triangle_normalization(triangle):
    ops = normalize_adjacency(triangle)
    dense = ops.a_hat.toarray()
    expected = np.full((3, 3), 0.5)
    np.fill_diagonal(expected, 0.0)
    assert np.allclose(dense, expected)


def test_triangle_laplacian_spectrum(triangle):
    ops = normalize_adjacency(triangle)
    lap = np.eye(3) - ops.a_hat.toarray()
    eigs = np.sort(np.linalg.eigvalsh(lap))
    assert np.allclose(eigs, [0.0, 1.5, 1.5], atol=1e-12)


def test_isolated_node_gets_self_loop():
    adj = edges_from_pairs(3, [(0, 1)])  # node 2 isolated
    ops = normalize_adjacency(adj)
    dense = ops.a_hat.toarray()
    assert dense[2, 2] == 1.0
    assert dense[2, 0] == 0.0 and dense[2, 1] == 0.0


def test_empty_graph_laplacian_is_zero():
    adj = sp.csr_matrix((4, 4))
    ops = normalize_adjacency(adj)
    lap = np.eye(4) - ops.a_hat.toarray()
    assert np.allclose(lap, 0.0)


def test_sqrt_degree_vector_is_fixed():
    adj = er_graph(40, 0.2, seed=9)
    ops = normalize_adjacency(adj)
    deg = np.asarray(adj.sum(axis=1)).ravel()
    deg[deg == 0] = 1.0  # isolated nodes carry a self loop
    v = np.sqrt(deg)
    assert np.allclose(ops.a_hat @ v, v, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 25), st.floats(0.05, 0.6), st.integers(0, 10_000))
def test_laplacian_positive_semidefinite(n, p, seed):
    adj = er_graph(n, p, seed=seed)
    ops = normalize_adjacency(adj)
    lap = np.eye(n) - ops.a_hat.toarray()
    rng = np.random.default_rng(seed)
    for _ in range(3):
        x = rng.standard_normal(n)
        quad = x @ lap @ x
        assert quad >= -1e-8 * (x @ x)


def test_path_graph_normalization():
    ops = normalize_adjacency(path_graph(4))
    dense = ops.a_hat.toarray()
    assert dense[0, 1] == pytest.approx(1.0 / np.sqrt(2.0))
    assert dense[1, 2] == pytest.approx(0.5)
