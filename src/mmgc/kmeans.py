"""Deterministic Lloyd k-means with plus-plus seeding and restarts.

Squared Euclidean metric on unnormalized rows.  Every run is fully
reproducible from its seed; restarts derive child seeds from one root
sequence and the best inertia wins (earliest restart on ties).  An empty
cluster is refilled with the point farthest from its assigned centroid
among the points whose cluster keeps another member, so no cluster is
ever left without members.  Centroids are updated with one sparse
cluster-by-point indicator product, which sums each cluster's rows in
point order, as a per-cluster mean would, without gathering them.

Restarts run in lockstep groups of ``_GROUP`` (5) consecutive seeds.  Per
Lloyd iteration a group computes one distance product over the stacked
centroids of its live restarts and one stacked indicator product for all
their centroid sums; a restart leaves its group on the iteration its
assignments repeat.  Each restart gets the bits it would get alone: every
distance is the same dot product, the assignment takes the first minimum
as ``argmin`` does, and each cluster still sums its rows in point order.

Every fit runs ``_RESTARTS`` (10) restarts: two groups of five.  The thread
budget (``threads``; None means ``os.cpu_count()``) bounds this split and
nothing else in a fit: at a budget of 1 both groups run on the calling
thread, and above it the second group runs on one helper thread, so a fit
uses at most two threads whatever the budget.  numpy and scipy release the
interpreter lock inside the products that dominate a group.  The groups
are fixed and results are kept by restart index, so the outcome never
depends on the budget.  A multi-threaded BLAS competes with the helper for
the cores, so the split pays under one BLAS thread per process.

Seeding scores each new center with the Lloyd distance kernel and the
squared row norms that every restart shares; a group's scratch, about 400
bytes per point for 5 restarts of k = 4, stays below one n x d array.
"""

from __future__ import annotations

import operator
import os
import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


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
    """Centroid-to-row squared distances, (m, n) for m centroids; ``x2`` holds
    the squared row norms, (n,)."""
    c2 = np.einsum("ij,ij->i", centroids, centroids)[:, None]
    d2 = centroids @ x.T
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
    d2 = _squared_distances(x, x2, centroids[:1])[0]
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))  # all remaining mass on duplicates
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = x[idx]
        np.minimum(d2, _squared_distances(x, x2, centroids[j:j + 1])[0], out=d2)
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


def _assign(
    x: np.ndarray, x2: np.ndarray, centroids: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Assignments and point distances, (restarts, n) each, for stacked
    centroids of k rows per restart.  A point takes the first centroid at
    its minimum, as argmin picks it: the number of centroids before it,
    all above the minimum."""
    d2 = _squared_distances(x, x2, centroids).reshape(-1, k, x.shape[0])
    point_d2 = d2.min(axis=1)
    above = d2[:, 0] != point_d2
    assignments = above.astype(np.intp)
    for j in range(1, k - 1):
        above &= d2[:, j] != point_d2
        assignments += above
    return assignments, point_d2


def _centroid_means(x: np.ndarray, assignments: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Stacked cluster means, (restarts * k, d), from one cluster-by-point
    indicator per restart: each point column holds one entry per restart,
    so each cluster sums its rows in point order."""
    group, n = assignments.shape
    k = counts.shape[1]
    rows = (assignments + np.arange(0, group * k, k)[:, None]).T.ravel()
    indicator = sp.csc_matrix(
        (np.ones(rows.size), rows, np.arange(0, rows.size + 1, group)), shape=(group * k, n)
    )
    centroids = indicator @ x
    centroids /= counts.reshape(-1, 1)
    return centroids


def _lloyd(
    x: np.ndarray, x2: np.ndarray, inits: np.ndarray, max_iters: int
) -> list[Clustering]:
    """Lloyd runs from each of the ``inits`` (restarts, k, d), in lockstep.

    The live restarts share one distance product over their stacked
    centroids and one stacked indicator product per iteration; a restart
    leaves the group on the iteration its assignments repeat.
    """
    group, k, _ = inits.shape
    live = list(range(group))
    centroids = inits.reshape(group * k, -1).copy()  # the live restarts', stacked
    assignments = np.full((group, x.shape[0]), -1, dtype=np.intp)
    histories: list[list[float]] = [[] for _ in live]
    results: list[Clustering | None] = [None] * group
    for iterations in range(1, max_iters + 1):
        new_assign, point_d2 = _assign(x, x2, centroids, k)
        counts = np.zeros((len(live), k), dtype=np.intp)
        moving = []
        for i, r in enumerate(live):
            counts[i] = np.bincount(new_assign[i], minlength=k)
            block = centroids[i * k:(i + 1) * k]
            _refill_empty(x, block, new_assign[i], point_d2[i], counts[i])
            histories[r].append(float(point_d2[i].sum()))
            if np.array_equal(new_assign[i], assignments[i]):
                results[r] = Clustering(new_assign[i].copy(), block.copy(), histories[r][-1],
                                        iterations, histories[r])
            else:
                moving.append(i)
        live = [live[i] for i in moving]
        if not live:
            break
        assignments = new_assign[moving]
        centroids = _centroid_means(x, assignments, counts[moving])
    for i, r in enumerate(live):  # stopped by max_iters, with updated centroids
        results[r] = Clustering(assignments[i].copy(), centroids[i * k:(i + 1) * k].copy(),
                                histories[r][-1], max_iters, histories[r])
    return results


_GROUP = 5  # restarts per lockstep group; fixed, so the bits never follow the budget
_RESTARTS = 10  # restarts per fit: two lockstep groups


def thread_budget(threads: int | None) -> int:
    """The threads a budget allows (the CPU count for None); every routine that
    takes a budget refuses a non-integer or one below 1 through this check."""
    if threads is None:
        return os.cpu_count() or 1
    try:
        threads = operator.index(threads)
    except TypeError:
        raise ValueError(f"threads must be an integer, got {threads!r}") from None
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return threads


def _restarts(
    x: np.ndarray,
    k: int,
    seeds: list[np.random.SeedSequence],
    threads: int | None = None,
) -> list[Clustering]:
    """One seeded Lloyd run per seed, in seed order, in lockstep groups of
    ``_GROUP`` consecutive seeds.

    At a budget of 1, or with one group, every group runs on the calling
    thread; otherwise the first group runs on it and the others on one
    helper thread.  After a group raises, neither thread starts another
    group, the helper is joined and the exception of the earliest failed
    group reaches the caller.
    """
    budget = thread_budget(threads)
    x2 = np.einsum("ij,ij->i", x, x)  # read-only, shared by every restart
    starts = range(0, len(seeds), _GROUP)
    groups: list[list[Clustering]] = [[] for _ in starts]
    failures: dict[int, BaseException] = {}
    failed = threading.Event()

    def run(indices: range) -> None:
        for g in indices:
            if failed.is_set():
                return
            try:
                inits = np.stack([
                    _plus_plus_init(x, x2, k, np.random.default_rng(seed))
                    for seed in seeds[starts[g]:starts[g] + _GROUP]
                ])
                groups[g] = _lloyd(x, x2, inits, 300)
            except BaseException as exc:  # re-raised in the calling thread
                failures[g] = exc
                failed.set()
                return

    if budget == 1 or len(starts) == 1:
        run(range(len(starts)))
    else:
        helper = threading.Thread(target=run, args=(range(1, len(starts)),),
                                  name="mmgc-kmeans")
        helper.start()
        run(range(1))
        helper.join()
    if failures:
        raise failures[min(failures)]
    return [c for group in groups for c in group]


def kmeans_fit(
    x: np.ndarray,
    k: int,
    seed: int = 0,
    threads: int | None = None,
) -> Clustering:
    """Cluster rows of ``x`` into ``k`` groups with the best of ``_RESTARTS``
    (10) restarts, each of at most 300 Lloyd iterations.

    ``threads`` is the thread budget of the restarts, which use at most two
    threads; the result does not depend on it.
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

    seeds = np.random.SeedSequence(seed).spawn(_RESTARTS)
    # min keeps the first of equal keys: the earliest restart wins ties
    return min(_restarts(x, k, seeds, threads), key=lambda c: c.inertia)
