"""Shared builders and independent reference implementations for tests."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from mmgc.data import ModalityFeatures, MultimodalGraph


def edges_from_pairs(n: int, pairs) -> sp.csr_matrix:
    rows, cols = [], []
    for u, v in pairs:
        rows += [u, v]
        cols += [v, u]
    adj = sp.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(n, n)
    )
    adj.sum_duplicates()
    adj.data[:] = 1.0
    return adj


def path_graph(n: int) -> sp.csr_matrix:
    return edges_from_pairs(n, [(i, i + 1) for i in range(n - 1)])


def ring_graph(n: int) -> sp.csr_matrix:
    return edges_from_pairs(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> sp.csr_matrix:
    return edges_from_pairs(
        n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    )


def er_graph(n: int, p: float, seed: int = 0) -> sp.csr_matrix:
    """Symmetric 0/1 adjacency, no self loops, every node kept."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < p, k=1)
    dense = (upper | upper.T).astype(np.float64)
    return sp.csr_matrix(dense)


def random_graph(
    n: int,
    dims,
    seed: int = 0,
    p: float = 0.15,
    labels_k: int | None = None,
) -> MultimodalGraph:
    rng = np.random.default_rng(seed)
    edges = er_graph(n, p, seed=seed + 1)
    mods = [
        ModalityFeatures(name=f"mod{i}", x=rng.standard_normal((n, d)).astype(np.float32))
        for i, d in enumerate(dims)
    ]
    labels = None
    if labels_k is not None:
        labels = rng.integers(0, labels_k, size=n).astype(np.int64)
    return MultimodalGraph(edges=edges, modalities=mods, labels=labels)


def dense_power_series(mat: np.ndarray, coeff: float, t: int) -> np.ndarray:
    """sum_{s=0..t} (coeff * mat)^s via explicit matrix powers."""
    d = mat.shape[0]
    out = np.zeros((d, d))
    for s in range(t + 1):
        out += np.linalg.matrix_power(coeff * mat, s)
    return out


def reference_dual_filter(a_hat, z, shifts, alpha, beta, t) -> np.ndarray:
    """Independent truncated-series oracle built from explicit powers."""
    a_dense = a_hat.toarray() if sp.issparse(a_hat) else np.asarray(a_hat, float)
    s_bar = np.mean([np.asarray(s, float) for s in shifts], axis=0)
    ca = alpha / (alpha + 1.0)
    cb = beta / (beta + 1.0)
    left = dense_power_series(a_dense, ca, t)
    right = dense_power_series(s_bar, cb, t)
    pre = 1.0 / ((alpha + 1.0) * (beta + 1.0))
    return pre * (left @ np.asarray(z, float) @ right)


def reference_exact(a_hat, z, shifts, alpha, beta) -> np.ndarray:
    """Independent closed form via explicit matrix inverses."""
    a_dense = a_hat.toarray() if sp.issparse(a_hat) else np.asarray(a_hat, float)
    n = a_dense.shape[0]
    s_bar = np.mean([np.asarray(s, float) for s in shifts], axis=0)
    d = s_bar.shape[0]
    left = np.linalg.inv((1.0 + alpha) * np.eye(n) - alpha * a_dense)
    right = np.linalg.inv((1.0 + beta) * np.eye(d) - beta * s_bar)
    return left @ np.asarray(z, float) @ right


def objective_gradient(a_hat, h, z, shifts, cfg) -> np.ndarray:
    """Gradient of the jointly penalized filtering objective at ``h``.

    The objective is ||h - z||_F^2 plus alpha times the node smoothness
    quadratic form plus beta times the mean feature smoothness form.
    Zero exactly at the solution of the coupled (Sylvester) first-order
    condition; at the sequential closed form the residual is the
    alpha*beta cross term, which vanishes when either strength is zero.
    """
    z = np.asarray(z, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    s_bar = np.mean([np.asarray(s, float) for s in shifts], axis=0)
    lap = sp.eye(a_hat.shape[0], format="csr") - sp.csr_matrix(a_hat)
    feat_lap = np.eye(s_bar.shape[0]) - s_bar
    return 2.0 * (h - z) + 2.0 * cfg.alpha * (lap @ h) + 2.0 * cfg.beta * (h @ feat_lap)


def rel_frobenius(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.linalg.norm(b)
    return float(np.linalg.norm(a - b) / denom) if denom > 0 else float(np.linalg.norm(a))
