"""Deterministic Lloyd k-means with plus-plus seeding and restarts.

Squared Euclidean metric on unnormalized rows.  Every run is fully
reproducible from its seed; restarts derive child seeds from one root
sequence and the best inertia wins (earliest restart on ties).  An empty
cluster is refilled with the point farthest from its assigned centroid
among the points whose cluster keeps another member, so no cluster is
ever left without members.  Centroids are updated with one sparse
cluster-by-point indicator product, which sums each cluster's rows in
point order, as a per-cluster mean would, without gathering them.

The restarts run at the same time on the thread budget (``threads``;
None means ``os.cpu_count()``), at most one thread per restart, the
calling thread included; numpy releases the interpreter lock inside the
distance products and reductions.  Each restart depends only on its own
child seed and its result is kept by restart index, so the outcome never
depends on the budget.  A multi-threaded BLAS competes with these threads
for the cores; the gain needs one BLAS thread per process.  Seeding
scores each new center with the Lloyd distance kernel and the squared
row norms that every restart shares, so a restart's scratch beyond its
n x k distance matrix stays far below one n x d array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .parallel import map_indexed, thread_budget


@dataclass
class Clustering:
    assignments: np.ndarray
    centroids: np.ndarray
    inertia: float
    iterations: int
    # inertia after the assignment step of each Lloyd iteration; never increases
    inertia_history: list[float] = field(default_factory=list)

    @property
    def k(self) -> int:
        return int(self.centroids.shape[0])


def _squared_distances(x: np.ndarray, x2: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Row-to-centroid squared distances; ``x2`` holds the squared row norms, (n, 1)."""
    c2 = np.einsum("ij,ij->i", centroids, centroids)[None, :]
    d2 = x @ centroids.T
    d2 *= 2.0
    np.subtract(x2, d2, out=d2)
    d2 += c2
    np.clip(d2, 0.0, None, out=d2)
    return d2


def _plus_plus_init(
    x: np.ndarray, x2: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]), dtype=np.float64)
    centroids[0] = x[int(rng.integers(n))]
    d2 = _squared_distances(x, x2, centroids[:1])[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))  # all remaining mass on duplicates
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = x[idx]
        np.minimum(d2, _squared_distances(x, x2, centroids[j:j + 1])[:, 0], out=d2)
    return centroids


def _refill_empty(
    x: np.ndarray,
    centroids: np.ndarray,
    assignments: np.ndarray,
    point_d2: np.ndarray,
    counts: np.ndarray,
) -> None:
    """Move the farthest point whose cluster keeps another member into each
    empty cluster, in place; a moved point is its new cluster's centroid."""
    for j in np.flatnonzero(counts == 0):
        movable = np.where(counts[assignments] > 1, point_d2, -np.inf)
        far = int(movable.argmax())
        counts[assignments[far]] -= 1
        counts[j] = 1
        centroids[j] = x[far]
        assignments[far] = j
        point_d2[far] = 0.0


def _lloyd(
    x: np.ndarray, x2: np.ndarray, centroids: np.ndarray, max_iters: int
) -> Clustering:
    n, k = x.shape[0], centroids.shape[0]
    centroids = centroids.copy()
    assignments = np.full(n, -1, dtype=np.int64)
    # the indicator's values and column pointers: one point per column
    ones, indptr = np.ones(n), np.arange(n + 1)
    history: list[float] = []
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        d2 = _squared_distances(x, x2, centroids)
        new_assign = d2.argmin(axis=1)
        point_d2 = d2[np.arange(n), new_assign]
        counts = np.bincount(new_assign, minlength=k)
        _refill_empty(x, centroids, new_assign, point_d2, counts)
        history.append(float(point_d2.sum()))
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        indicator = sp.csc_matrix((ones, assignments, indptr), shape=(k, n))
        centroids = indicator @ x
        centroids /= counts[:, None]
    return Clustering(assignments, centroids, history[-1], iterations, history)


def _restarts(
    x: np.ndarray,
    k: int,
    seeds: list[np.random.SeedSequence],
    threads: int | None = None,
) -> list[Clustering]:
    """One seeded Lloyd run per seed, in seed order, on the thread budget.

    After a restart raises, no new restart starts and the exception of the
    earliest failed restart reaches the caller.
    """
    x2 = np.einsum("ij,ij->i", x, x)[:, None]  # read-only, shared by every restart

    def restart(i: int) -> Clustering:
        init = _plus_plus_init(x, x2, k, np.random.default_rng(seeds[i]))
        return _lloyd(x, x2, init, 300)

    return map_indexed(restart, len(seeds), thread_budget(threads))


def kmeans_fit(
    x: np.ndarray,
    k: int,
    seed: int = 0,
    n_init: int = 10,
    threads: int | None = None,
) -> Clustering:
    """Cluster rows of ``x`` into ``k`` groups with the best of ``n_init``
    restarts, each of at most 300 Lloyd iterations.

    ``threads`` is the thread budget of the restarts; the result does not
    depend on it.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("kmeans_fit expects a non-empty 2-d array")
    if not np.isfinite(x).all():
        raise ValueError("kmeans_fit input contains non-finite values")
    n = x.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"k = {k} exceeds the number of rows ({n})")
    if n_init < 1:
        raise ValueError(f"n_init must be >= 1, got {n_init}")

    seeds = np.random.SeedSequence(seed).spawn(n_init)
    # min keeps the first of equal keys: the earliest restart wins ties
    return min(_restarts(x, k, seeds, threads), key=lambda c: c.inertia)
