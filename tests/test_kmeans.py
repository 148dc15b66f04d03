"""Lloyd iteration, plus-plus seeding, lockstep groups and restart selection."""

from __future__ import annotations

import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmgc import kmeans
from mmgc.kmeans import kmeans_fit


def _blobs(seed=0, n_per=20, centers=((0.0, 0.0), (10.0, 10.0))):
    rng = np.random.default_rng(seed)
    parts, labels = [], []
    for idx, c in enumerate(centers):
        parts.append(rng.standard_normal((n_per, len(c))) * 0.2 + np.asarray(c))
        labels += [idx] * n_per
    return np.vstack(parts), np.asarray(labels)


def _sq_norms(x):
    """The squared row norms that kmeans_fit shares with seeding and Lloyd."""
    return np.einsum("ij,ij->i", x, x)


def _lloyd_alone(x, init, max_iters=300):
    """One restart from ``init``, run as a lockstep group of one."""
    return kmeans._lloyd(x, _sq_norms(x), init[None], max_iters)[0]


def test_k_equals_n_gives_zero_inertia():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((7, 3))
    res = kmeans_fit(x, 7, seed=0)
    assert res.inertia == pytest.approx(0.0, abs=1e-12)
    assert len(set(res.assignments.tolist())) == 7


def test_k_equals_one_gives_mean_centroid(monkeypatch):
    """With k = 1 the restarts run in lockstep groups like any other k: every
    point joins the one cluster at the column mean, and neither the group
    size nor the thread budget changes the assignments or centroids."""
    for n in (30, 1000):
        x = np.random.default_rng(n).standard_normal((n, 4))
        fits = []
        for size in (1, 5):
            monkeypatch.setattr(kmeans, "_GROUP", size)
            fits += [kmeans_fit(x, 1, seed=0, threads=t) for t in (1, 2)]
        for res in fits:
            assert np.all(res.assignments == 0)
            assert np.allclose(res.centroids[0], x.mean(axis=0), atol=1e-12)
            assert res.assignments.tobytes() == fits[0].assignments.tobytes()
            assert res.centroids.tobytes() == fits[0].centroids.tobytes()
            assert res.inertia == pytest.approx(fits[0].inertia, rel=1e-12, abs=0)


def test_separated_blobs_recovered_exactly():
    x, labels = _blobs()
    res = kmeans_fit(x, 2, seed=3)
    a = res.assignments
    same = (a == a[0]).sum()
    assert same in (20, 40 - 20)
    # one-to-one with the generating blobs
    assert len(set(a[:20].tolist())) == 1
    assert len(set(a[20:].tolist())) == 1
    assert a[0] != a[20]


def test_inertia_history_non_increasing(monkeypatch):
    monkeypatch.setattr(kmeans, "_RESTARTS", 1)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((60, 5))
    res = kmeans_fit(x, 4, seed=1)
    hist = np.asarray(res.inertia_history)
    assert np.all(np.diff(hist) <= 1e-9)
    assert res.inertia == pytest.approx(hist[-1])


def test_same_seed_same_result():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((50, 3))
    a = kmeans_fit(x, 3, seed=9)
    b = kmeans_fit(x, 3, seed=9)
    assert np.array_equal(a.assignments, b.assignments)
    assert np.array_equal(a.centroids, b.centroids)


def test_explicit_init_centroids_respected():
    x, _ = _blobs(seed=7)
    init = np.array([[0.0, 0.0], [10.0, 10.0]])
    res = _lloyd_alone(x, init)
    assert np.all(res.assignments[:20] == 0)
    assert np.all(res.assignments[20:] == 1)


def test_fixed_init_permutation_equivariance():
    """Relabeling the init centroids relabels the output the same way."""
    rng = np.random.default_rng(8)
    x = rng.standard_normal((40, 3))
    init = rng.standard_normal((3, 3))
    res_a = _lloyd_alone(x, init)
    res_b = _lloyd_alone(x, init[[2, 0, 1]])
    remap = np.array([1, 2, 0])  # old index -> new index under the roll
    assert np.array_equal(remap[res_a.assignments], res_b.assignments)


def test_duplicate_points_do_not_crash():
    x = np.ones((12, 2))
    res = kmeans_fit(x, 3, seed=0)
    assert res.inertia == pytest.approx(0.0, abs=1e-12)


def test_empty_cluster_refilled():
    # two tight far blobs, k=3: one centroid must end up empty then refill
    x, _ = _blobs(seed=9, n_per=10)
    res = kmeans_fit(x, 3, seed=4)
    assert res.inertia >= 0.0
    assert len(res.assignments) == 20


def test_validation_errors():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((5, 2))
    with pytest.raises(ValueError):
        kmeans_fit(np.empty((0, 2)), 1)
    with pytest.raises(ValueError):
        kmeans_fit(x.ravel(), 2)
    with pytest.raises(ValueError):
        kmeans_fit(x, 0)
    with pytest.raises(ValueError):
        kmeans_fit(x, 6)
    bad = x.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        kmeans_fit(bad, 2)


def test_more_restarts_never_worse(monkeypatch):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((80, 4))
    many = kmeans_fit(x, 5, seed=2)  # ten restarts
    monkeypatch.setattr(kmeans, "_RESTARTS", 1)
    one = kmeans_fit(x, 5, seed=2)
    assert many.inertia <= one.inertia + 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5))
def test_inertia_matches_assignment_definition(seed, k):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((30, 3))
    res = kmeans_fit(x, k, seed=seed)
    direct = sum(
        float(np.sum((x[res.assignments == j] - res.centroids[j]) ** 2))
        for j in range(k)
    )
    assert res.inertia == pytest.approx(direct, rel=1e-9, abs=1e-9)


# ------------------------------------------------------ concurrent restarts

def _duplicates_only(seed=12):
    """Four distinct rows repeated, clustered with k=6: every plus-plus
    seeding repeats a center, so every restart refills empty clusters."""
    rng = np.random.default_rng(seed)
    return np.repeat(rng.standard_normal((4, 3)), [20, 15, 10, 5], axis=0)


def _fit_fields(res):
    return (res.assignments.tobytes(), res.centroids.tobytes(), res.inertia,
            res.iterations, list(res.inertia_history))


def _with_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)


def _wide_clusters(seed=18, n=1000, d=64, k=4):
    """Shaped like the embeddings the trainer clusters: unequal clusters,
    64 columns, centers well inside the noise."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, k, size=n)
    return rng.standard_normal((k, d))[labels] * 0.8 + rng.standard_normal((n, d))


@pytest.mark.parametrize("x, k", [
    (_duplicates_only(), 6),
    (np.random.default_rng(13).standard_normal((200, 4)), 5),
    (_wide_clusters(), 4),
], ids=["duplicates-only", "gaussian", "wide"])
def test_restarts_byte_identical_for_any_cpu_count(x, k, monkeypatch):
    """The restarts follow the thread budget: an explicit one, or the CPU
    count when it is None; the result is the same for every budget, also
    with eight groups on more threads than cores."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads as often as possible
    try:
        fits = [_fit_fields(kmeans_fit(x, k, seed=7, threads=t)) for t in (1, 2, 8)]
        for cpus in (1, 3):
            _with_cpus(monkeypatch, cpus)
            fits.append(_fit_fields(kmeans_fit(x, k, seed=7)))
        seeds = np.random.SeedSequence(7).spawn(40)
        many = [[_fit_fields(r) for r in kmeans._restarts(x, k, seeds, threads=t)]
                for t in (1, 8)]
    finally:
        sys.setswitchinterval(interval)
    assert all(f == fits[0] for f in fits)
    assert many[0] == many[1]


def _mean_update_lloyd(x, centroids, max_iters):
    """The per-cluster mean centroid update, the definition the sparse
    indicator product must reproduce bit for bit (no empty cluster here)."""
    n, k = x.shape[0], centroids.shape[0]
    centroids = centroids.copy()
    assignments = np.full(n, -1)
    x2 = _sq_norms(x)
    for _ in range(max_iters):
        new_assign = kmeans._squared_distances(x, x2, centroids).argmin(axis=0)
        assert np.bincount(new_assign, minlength=k).min() > 0
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        centroids = np.vstack([x[assignments == j].mean(axis=0) for j in range(k)])
    return assignments, centroids


@pytest.mark.parametrize("k", [2, 3, 6])
def test_assignment_takes_the_first_minimum_as_argmin(k):
    """With duplicated centers every point ties between two centroids; the
    stacked assignment picks the first, as argmin does, for each restart."""
    x = _duplicates_only()
    x2 = _sq_norms(x)
    picks = np.random.default_rng(24).choice([0, 20, 35, 45], size=(4, k))
    picks[:, -1] = picks[:, 0]  # the last center repeats the first
    inits = x[picks]
    assignments, point_d2 = kmeans._assign(x, x2, inits.reshape(-1, 3), k)
    for i, init in enumerate(inits):
        d2 = kmeans._squared_distances(x, x2, init)
        assert ((d2 == d2.min(axis=0)).sum(axis=0) > 1).any()
        assert assignments[i].tobytes() == d2.argmin(axis=0).tobytes()
        assert point_d2[i].tobytes() == d2.min(axis=0).tobytes()


def test_max_iters_stop_returns_the_updated_centroids():
    """A restart stopped by max_iters returns the means of its last
    assignments, in a group as alone, whatever iteration the others stop on."""
    x = _wide_clusters()
    inits = np.stack([kmeans._plus_plus_init(x, _sq_norms(x), 4, np.random.default_rng(s))
                      for s in range(5)])
    for max_iters in (1, 2, 3):
        group = kmeans._lloyd(x, _sq_norms(x), inits, max_iters)
        assert [_fit_fields(r) for r in group] == [
            _fit_fields(_lloyd_alone(x, init, max_iters)) for init in inits]
        for r in group:
            if r.iterations == max_iters:
                means = np.vstack([x[r.assignments == j].mean(axis=0) for j in range(4)])
                assert r.centroids.tobytes() == means.tobytes()


@pytest.mark.parametrize("x, k", [
    (np.random.default_rng(13).standard_normal((200, 4)), 5),
    (_wide_clusters(), 4),
    (_wide_clusters(seed=19, n=3000, d=7, k=9), 9),
], ids=["gaussian", "wide", "narrow"])
def test_sparse_centroid_update_matches_cluster_means(x, k):
    init = kmeans._plus_plus_init(x, _sq_norms(x), k, np.random.default_rng(0))
    res = _lloyd_alone(x, init)
    assignments, centroids = _mean_update_lloyd(x, init, 300)
    assert res.assignments.tobytes() == assignments.tobytes()
    assert res.centroids.tobytes() == centroids.tobytes()


@pytest.mark.parametrize("x, k, seeds", [
    (np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]]), 3, range(4)),
    (np.repeat(np.array([[0.0, 0.0], [3.0, 1.0], [5.0, 5.0]]), [1, 1, 6], axis=0), 5, range(8)),
], ids=["three-points", "two-singletons"])
def test_refill_never_empties_another_cluster(x, k, seeds):
    """A refill takes its point from a cluster that keeps another member;
    taking a singleton's only member left a NaN centroid and inertia."""
    for seed in seeds:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = kmeans_fit(x, k, seed=seed)
        assert np.isfinite(res.inertia)
        assert np.isfinite(res.centroids).all()
        assert np.bincount(res.assignments, minlength=k).min() >= 1
        assert res.iterations < 300


def test_duplicates_only_input_refills_empty_clusters():
    x = _duplicates_only()
    init = kmeans._plus_plus_init(x, _sq_norms(x), 6, np.random.default_rng(0))
    assert len(np.unique(init, axis=0)) == 4  # two centers start empty
    res = kmeans_fit(x, 6, seed=7)
    assert np.bincount(res.assignments, minlength=6).min() >= 1


@pytest.mark.parametrize("cpus", [1, 8])
def test_tied_restarts_pick_the_first(cpus, monkeypatch):
    # k = n: every restart reaches inertia 0, each with its own labelling
    x = np.random.default_rng(14).standard_normal((6, 2))
    seeds = np.random.SeedSequence(3).spawn(10)
    runs = kmeans._restarts(x, 6, seeds, threads=cpus)
    assert {r.inertia for r in runs} == {0.0}
    assert len({r.assignments.tobytes() for r in runs}) > 1
    best = _fit_fields(kmeans_fit(x, 6, seed=3, threads=cpus))
    monkeypatch.setattr(kmeans, "_RESTARTS", 1)
    assert best == _fit_fields(kmeans_fit(x, 6, seed=3))


@pytest.mark.parametrize("cpus, restarts, helpers",
                         [(1, 10, 0), (2, 10, 1), (8, 10, 1), (8, 3, 0), (8, 23, 1)])
def test_helper_threads_bounded_by_cpus_and_restarts(cpus, restarts, helpers, monkeypatch):
    """Groups of five restarts on the calling thread and at most one helper:
    min(threads, groups, 2) - 1 helpers."""
    started = []
    real_thread = threading.Thread

    class CountingThread(real_thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(kmeans.threading, "Thread", CountingThread)
    monkeypatch.setattr(kmeans, "_RESTARTS", restarts)
    x, _ = _blobs(seed=15)
    kmeans_fit(x, 2, seed=0, threads=cpus)
    assert len(started) == helpers
    started.clear()
    _with_cpus(monkeypatch, cpus)  # no budget given: the CPU count
    kmeans_fit(x, 2, seed=0)
    assert len(started) == helpers


def test_exception_in_a_restart_reaches_caller(monkeypatch):
    """A group whose Lloyd run raises starts no new group; the helpers are
    joined before the exception reaches the caller."""
    calls = []
    lock = threading.Lock()
    real_lloyd = kmeans._lloyd

    def failing_lloyd(x, x2, inits, max_iters):
        with lock:
            calls.append(len(inits))
            if len(calls) == 2:
                raise RuntimeError("restart failed")
        return real_lloyd(x, x2, inits, max_iters)

    monkeypatch.setattr(kmeans, "_lloyd", failing_lloyd)
    monkeypatch.setattr(kmeans, "_RESTARTS", 20)  # four groups of five
    x, _ = _blobs(seed=16)
    before = threading.active_count()
    for cpus in (1, 2):
        calls.clear()
        with pytest.raises(RuntimeError, match="restart failed"):
            kmeans_fit(x, 2, seed=0, threads=cpus)
        assert set(calls) == {5}
        assert len(calls) < 4  # no new group starts after a failure
        assert threading.active_count() == before  # helpers joined


@pytest.mark.parametrize("x, k", [
    (_duplicates_only(), 6),
    (np.random.default_rng(13).standard_normal((200, 4)), 5),
    (_wide_clusters(), 4),
], ids=["duplicates-only", "gaussian", "wide"])
def test_group_size_never_changes_a_restart(x, k, monkeypatch):
    """Every restart gets the same bits in lockstep groups of any size,
    including a last group that is not full."""
    seeds = np.random.SeedSequence(7).spawn(10)
    runs = []
    for size in (1, 3, 5, 10):
        monkeypatch.setattr(kmeans, "_GROUP", size)
        runs.append([_fit_fields(r) for r in kmeans._restarts(x, k, seeds, threads=2)]
                    + [_fit_fields(kmeans_fit(x, k, seed=7))])
    assert all(r == runs[0] for r in runs)


def test_mixed_group_matches_each_restart_alone(monkeypatch):
    """Restarts 1 and 3 of the group start with a duplicated center, so they
    refill an empty cluster while the others do not; every restart leaves
    the group on its own iteration with the bits of a run alone."""
    x = _wide_clusters(seed=21, n=600, d=8)
    rng = np.random.default_rng(22)
    inits = np.stack([x[rng.choice(len(x), 4, replace=False)] for _ in range(5)])
    inits[1, 2] = inits[1, 0]
    inits[3, 1] = inits[3, 3]
    refills = []
    real_refill = kmeans._refill_empty

    def spy(x, centroids, assignments, point_d2, counts):
        refills[-1] |= bool((counts == 0).any())
        real_refill(x, centroids, assignments, point_d2, counts)

    monkeypatch.setattr(kmeans, "_refill_empty", spy)
    alone = []
    for init in inits:
        refills.append(False)
        alone.append(_lloyd_alone(x, init))
    assert refills == [False, True, False, True, False]
    group = kmeans._lloyd(x, _sq_norms(x), inits, 300)
    assert len({r.iterations for r in group}) > 1
    assert [_fit_fields(r) for r in group] == [_fit_fields(r) for r in alone]


def test_plus_plus_scratch_below_one_n_by_d_array():
    """Seeding scores one center at a time with the Lloyd distance kernel
    and the shared row norms: its peak allocation stays below one n x d
    array, so concurrent restarts do not each hold one."""
    x = np.random.default_rng(17).standard_normal((16000, 64))
    x2 = _sq_norms(x)
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        kmeans._plus_plus_init(x, x2, 10, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes


def test_lockstep_group_scratch_below_one_n_by_d_array():
    """One group of five restarts at k = 4 holds its stacked distances,
    assignments and indicator, and still peaks below one n x d array."""
    x = _wide_clusters(seed=23, n=4000, d=64)
    x2 = _sq_norms(x)
    inits = np.stack([kmeans._plus_plus_init(x, x2, 4, np.random.default_rng(s))
                      for s in range(5)])
    tracemalloc.start()
    try:
        runs = kmeans._lloyd(x, x2, inits, 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert min(r.iterations for r in runs) > 2
    assert peak < x.nbytes


def _reference_plus_plus(x, k, rng):
    """k-means++ seeding with explicit ``((x - c) ** 2).sum(1)`` distances;
    returns the chosen row indices."""
    n = x.shape[0]
    picks = [int(rng.integers(n))]
    d2 = ((x - x[picks[0]]) ** 2).sum(1)
    for _ in range(1, k):
        total = d2.sum()
        picks.append(int(rng.integers(n)) if total <= 0.0
                     else int(rng.choice(n, p=d2 / total)))
        d2 = np.minimum(d2, ((x - x[picks[-1]]) ** 2).sum(1))
    return picks


@pytest.mark.parametrize("n, d, k", [(50, 2, 3), (300, 8, 7), (1000, 64, 10)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_plus_plus_picks_the_reference_rows(n, d, k, seed):
    x = np.random.default_rng(100 + seed).standard_normal((n, d))
    picks = _reference_plus_plus(x, k, np.random.default_rng(seed))
    init = kmeans._plus_plus_init(x, _sq_norms(x), k, np.random.default_rng(seed))
    assert init.tobytes() == x[picks].tobytes()
