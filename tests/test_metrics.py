"""Clustering agreement scores against a brute-force oracle."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmgc.metrics import (
    accuracy,
    all_metrics,
    ari,
    completeness,
    contingency_table,
    nmi,
    pairwise_f1,
)

from oracle_metrics import (
    accuracy_bruteforce,
    ari_oracle,
    completeness_oracle,
    contingency,
    f1_oracle,
    nmi_oracle,
)


# ------------------------------------------------------------- hand examples

def test_accuracy_hand_values():
    assert accuracy([0, 0, 1, 1], [0, 1, 0, 1]) == 0.5
    assert accuracy([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
    assert accuracy([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0


def test_nmi_hand_values():
    assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0
    assert nmi([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
    assert nmi([0, 1, 2], [2, 0, 1]) == 1.0


def test_ari_hand_values():
    assert ari([0, 0, 1, 1], [0, 1, 0, 1]) == -0.5
    assert ari([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0


def test_f1_hand_values():
    assert pairwise_f1([0, 0, 0], [0, 0, 1]) == 0.5
    assert pairwise_f1([0, 1, 2], [0, 1, 2]) == 1.0


def test_completeness_hand_values():
    # every member of each truth class inside one predicted cluster
    assert completeness([0, 0, 1, 1], [0, 0, 0, 0]) == 1.0
    assert completeness([0, 0, 0, 0], [0, 1, 2, 3]) == 1.0
    assert completeness([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0
    assert completeness([0, 1, 0, 1], [0, 0, 1, 1]) < 1.0


def test_degenerate_pairs_follow_the_documented_conventions():
    """n = 1, all singletons or one cluster on both sides score as identical
    partitions; one cluster against all singletons, in either order, has no
    shared pair and no mutual information."""
    for truth, pred in (([0], [3]), ([0, 1, 2, 3], [3, 2, 1, 0]), ([0, 0, 0], [5, 5, 5])):
        for fn in (nmi, ari, pairwise_f1, completeness):
            assert fn(truth, pred) == 1.0, fn.__name__
    one, singletons = [0, 0, 0, 0], [0, 1, 2, 3]
    for truth, pred in ((one, singletons), (singletons, one)):
        assert nmi(truth, pred) == 0.0
        assert ari(truth, pred) == 0.0
        assert pairwise_f1(truth, pred) == 0.0
        assert completeness(truth, pred) == 1.0


def test_relabeled_partitions_score_perfect():
    truth = [0, 0, 1, 2, 2, 1]
    pred = [2, 2, 0, 1, 1, 0]
    assert accuracy(truth, pred) == 1.0
    assert nmi(truth, pred) == 1.0
    assert ari(truth, pred) == 1.0
    assert pairwise_f1(truth, pred) == 1.0
    assert completeness(truth, pred) == 1.0


def test_contingency_table_matches_dict_oracle():
    rng = np.random.default_rng(0)
    truth = rng.integers(0, 4, size=50)
    pred = rng.integers(0, 3, size=50)
    table = contingency_table(truth, pred)
    ref = contingency(truth.tolist(), pred.tolist())
    t_vals = sorted(set(truth.tolist()))
    p_vals = sorted(set(pred.tolist()))
    for a, t in enumerate(t_vals):
        for b, p in enumerate(p_vals):
            assert table[a, b] == ref.get((t, p), 0)


def test_all_metrics_keys_and_consistency():
    truth = [0, 0, 1, 1, 2, 2]
    pred = [0, 1, 1, 1, 2, 0]
    scores = all_metrics(truth, pred)
    assert set(scores) == {"acc", "nmi", "f1", "ari", "cs"}
    assert scores["acc"] == accuracy(truth, pred)
    assert scores["nmi"] == nmi(truth, pred)
    assert scores["f1"] == pairwise_f1(truth, pred)
    assert scores["ari"] == ari(truth, pred)
    assert scores["cs"] == completeness(truth, pred)


def test_input_validation():
    with pytest.raises(ValueError):
        accuracy([0, 1], [0, 1, 2])
    with pytest.raises(ValueError):
        nmi([], [])
    with pytest.raises(ValueError):
        ari([[0], [1]], [[0], [1]])


def test_non_contiguous_label_values():
    truth = [10, 10, -1, 7]
    pred = [3, 3, 5, 9]
    assert accuracy(truth, pred) == accuracy_bruteforce(truth, pred)
    assert nmi(truth, pred) == pytest.approx(nmi_oracle(truth, pred), abs=1e-12)


def test_accuracy_solves_the_rectangular_table():
    """All-singleton predictions against 4 classes match 4 nodes, and the
    solve stays far below the k x k int64 square (3.2 GB at k = 20000)."""
    n = 20_000
    truth = np.arange(n) % 4
    pred = np.arange(n)
    accuracy([0, 1], [0, 1])  # load scipy.optimize outside the traced window
    tracemalloc.start()
    try:
        value = accuracy(truth, pred)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 4 / n
    assert peak < 8 * n * n // 200


# -------------------------------------------------------------- oracle sweep

@settings(max_examples=120, deadline=None)
@given(
    st.integers(2, 50),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 10_000),
)
def test_metrics_match_oracle(n, kt, kp, seed):
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, kt, size=n).tolist()
    pred = rng.integers(0, kp, size=n).tolist()
    assert accuracy(truth, pred) == pytest.approx(
        accuracy_bruteforce(truth, pred), abs=1e-12
    )
    assert nmi(truth, pred) == pytest.approx(nmi_oracle(truth, pred), abs=1e-12)
    assert ari(truth, pred) == pytest.approx(ari_oracle(truth, pred), abs=1e-12)
    assert pairwise_f1(truth, pred) == pytest.approx(
        f1_oracle(truth, pred), abs=1e-12
    )
    assert completeness(truth, pred) == pytest.approx(
        completeness_oracle(truth, pred), abs=1e-12
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.integers(1, 4), st.integers(0, 10_000))
def test_scores_invariant_under_relabeling(n, k, seed):
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, k, size=n)
    pred = rng.integers(0, k, size=n)
    shuffle = rng.permutation(k + 2)
    pred2 = shuffle[pred]
    for fn in (accuracy, nmi, ari, pairwise_f1, completeness):
        assert fn(truth, pred) == pytest.approx(fn(truth, pred2), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30), st.integers(1, 4), st.integers(0, 10_000))
def test_scores_bounded(n, k, seed):
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, k, size=n)
    pred = rng.integers(0, k, size=n)
    assert 0.0 <= accuracy(truth, pred) <= 1.0
    assert 0.0 <= nmi(truth, pred) <= 1.0
    assert -1.0 <= ari(truth, pred) <= 1.0
    assert 0.0 <= pairwise_f1(truth, pred) <= 1.0
    assert 0.0 <= completeness(truth, pred) <= 1.0
