"""Contrastive losses, pruning, and walk sampling."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from mmgc import losses as losses_module
from mmgc.losses import (
    SampleSet,
    _impostor_blocks,
    _sub_rng,
    community_loss,
    cross_modality_loss,
    hard_positive_sets,
    mms_loss,
    neighborhood_loss,
    passthrough_pruned,
    prune_graph,
    sample_neighborhoods,
)

from helpers import complete_graph, edges_from_pairs, ring_graph


def _unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _central_difference(f, x, coords, step=1e-6):
    out = {}
    for idx in coords:
        shift = np.zeros_like(x)
        shift[idx] = step
        out[idx] = (f(x + shift) - f(x - shift)) / (2.0 * step)
    return out


def _check_gradient(f_value, x, grad, seed=0, coords=8, step=1e-6, tol=2e-5):
    rng = np.random.default_rng(seed)
    flat = [tuple(idx) for idx in np.ndindex(*x.shape)]
    picks = [flat[i] for i in rng.choice(len(flat), size=min(coords, len(flat)), replace=False)]
    fd = _central_difference(f_value, x, picks, step=step)
    for idx, want in fd.items():
        got = grad[idx]
        scale = max(1.0, abs(want))
        assert abs(got - want) <= tol * scale, (idx, got, want)


# ------------------------------------------------------------------ mms loss

def test_mms_identity_pair_hand_value():
    z = np.eye(2)
    value, grad_a, grad_b = mms_loss(z, z, delta=0.0)
    want = 2.0 * math.log(1.0 + math.exp(-1.0))
    assert value == pytest.approx(want, abs=1e-12)
    assert value == pytest.approx(0.62652, abs=1e-5)
    assert np.allclose(grad_a, grad_b)


def test_mms_single_row_is_zero():
    z = np.array([[1.0, 0.0]])
    value, grad_a, grad_b = mms_loss(z, z)
    assert value == 0.0
    assert np.all(grad_a == 0.0) and np.all(grad_b == 0.0)


def test_mms_shape_errors():
    with pytest.raises(ValueError, match="equal-shape"):
        mms_loss(np.ones((3, 2)), np.ones((4, 2)))
    with pytest.raises(ValueError, match="2-d"):
        mms_loss(np.ones(3), np.ones(3))


def test_mms_mirror_symmetry():
    rng = np.random.default_rng(0)
    a = _unit_rows(rng.standard_normal((7, 4)))
    b = _unit_rows(rng.standard_normal((7, 4)))
    v_ab, ga_ab, gb_ab = mms_loss(a, b, delta=0.1, negative_cap=3, seed=5)
    v_ba, ga_ba, gb_ba = mms_loss(b, a, delta=0.1, negative_cap=3, seed=5)
    assert v_ab == pytest.approx(v_ba, abs=1e-14)
    assert np.allclose(ga_ab, gb_ba, atol=1e-14)
    assert np.allclose(gb_ab, ga_ba, atol=1e-14)


def test_mms_cap_beyond_population_matches_full():
    rng = np.random.default_rng(1)
    a = _unit_rows(rng.standard_normal((6, 3)))
    b = _unit_rows(rng.standard_normal((6, 3)))
    full = mms_loss(a, b, seed=2)
    capped = mms_loss(a, b, negative_cap=5, seed=2)
    assert full[0] == capped[0]
    assert np.array_equal(full[1], capped[1])


def test_mms_cap_validation():
    a = np.eye(3)
    with pytest.raises(ValueError):
        mms_loss(a, a, negative_cap=0)


def test_mms_margin_monotone():
    rng = np.random.default_rng(2)
    a = _unit_rows(rng.standard_normal((9, 4)))
    b = _unit_rows(rng.standard_normal((9, 4)))
    low = mms_loss(a, b, delta=0.0)[0]
    high = mms_loss(a, b, delta=0.3)[0]
    assert high > low


def test_mms_deterministic_for_seed():
    rng = np.random.default_rng(3)
    a = _unit_rows(rng.standard_normal((10, 4)))
    b = _unit_rows(rng.standard_normal((10, 4)))
    r1 = mms_loss(a, b, negative_cap=4, seed=11)
    r2 = mms_loss(a, b, negative_cap=4, seed=11)
    assert r1[0] == r2[0]
    assert np.array_equal(r1[1], r2[1])
    r3 = mms_loss(a, b, negative_cap=4, seed=12)
    assert r1[0] != r3[0]


@pytest.mark.parametrize("n,cap", [(10, 3), (200, 40), (300, 256)])
def test_impostor_blocks_partition_rows_and_skip_own_block(n, cap):
    blocks = _impostor_blocks(n, cap, _sub_rng(4))
    rows = np.concatenate([block for block, _ in blocks])
    assert np.array_equal(np.sort(rows), np.arange(n))
    for block, impostors in blocks:
        assert impostors.shape == (cap,)
        assert np.unique(impostors).shape == (cap,)
        assert not np.isin(impostors, block).any()


def test_impostor_blocks_give_each_row_a_uniform_draw():
    # every other row is an impostor of row 0 with probability cap / (n - 1)
    n, cap, trials = 10, 3, 4000
    counts = np.zeros(n)
    for seed in range(trials):
        for block, impostors in _impostor_blocks(n, cap, _sub_rng(seed)):
            if 0 in block:
                counts[impostors] += 1
    assert counts[0] == 0
    p = cap / (n - 1)
    sd = math.sqrt(trials * p * (1 - p))
    assert np.all(np.abs(counts[1:] - trials * p) <= 5 * sd), counts


@pytest.mark.parametrize("cap", [None, 3])
def test_mms_gradients_match_finite_differences(cap):
    rng = np.random.default_rng(4)
    a = _unit_rows(rng.standard_normal((8, 4)))
    b = _unit_rows(rng.standard_normal((8, 4)))
    value, grad_a, grad_b = mms_loss(a, b, delta=0.1, negative_cap=cap, seed=7)
    _check_gradient(
        lambda x: mms_loss(x, b, delta=0.1, negative_cap=cap, seed=7)[0],
        a, grad_a, seed=0,
    )
    _check_gradient(
        lambda x: mms_loss(a, x, delta=0.1, negative_cap=cap, seed=7)[0],
        b, grad_b, seed=1,
    )


def _mms_value_oracle(a, b, delta, cap, seed):
    """The margin loss value summed row by row over each row's impostors:
    all other rows when the cap does not bind, else the row's block draw."""
    n = a.shape[0]
    if cap is None or cap >= n - 1:
        impostors = {l: np.delete(np.arange(n), l) for l in range(n)}
    else:
        impostors = {int(l): imp for block, imp in _impostor_blocks(n, cap, _sub_rng(seed))
                     for l in block}
    total = 0.0
    for l in range(n):
        imp = impostors[l]
        pos = float(a[l] @ b[l])
        d1 = math.exp(pos - delta) + float(np.exp(a[imp] @ b[l]).sum())  # anchor b[l]
        d2 = math.exp(pos - delta) + float(np.exp(b[imp] @ a[l]).sum())  # anchor a[l]
        total += math.log(d1) + math.log(d2) - 2.0 * (pos - delta)
    return total / n


@pytest.mark.parametrize("n,cap", [(9, None), (40, 7), (200, 256), (300, 256)])
def test_mms_value_matches_row_by_row_oracle(n, cap):
    rng = np.random.default_rng(n)
    a = _unit_rows(rng.standard_normal((n, 6)))
    b = _unit_rows(rng.standard_normal((n, 6)))
    value = mms_loss(a, b, delta=0.1, negative_cap=cap, seed=9)[0]
    assert value == pytest.approx(_mms_value_oracle(a, b, 0.1, cap, 9), rel=1e-12, abs=0)


# -------------------------------------------------------- cross-modality loss

def test_cross_modality_needs_two():
    with pytest.raises(ValueError):
        cross_modality_loss([np.eye(3)])


def test_cross_modality_swap_symmetry():
    rng = np.random.default_rng(5)
    a = _unit_rows(rng.standard_normal((6, 3)))
    b = _unit_rows(rng.standard_normal((6, 3)))
    v1, g1 = cross_modality_loss([a, b], seed=3)
    v2, g2 = cross_modality_loss([b, a], seed=3)
    assert v1 == pytest.approx(v2, abs=1e-14)
    assert np.allclose(g1[0], g2[1], atol=1e-14)
    assert np.allclose(g1[1], g2[0], atol=1e-14)


def test_cross_modality_three_sets_gradients():
    rng = np.random.default_rng(6)
    zs = [_unit_rows(rng.standard_normal((6, 3))) for _ in range(3)]
    value, grads = cross_modality_loss(zs, delta=0.1, negative_cap=3, seed=9)
    assert value > 0.0
    for which in range(3):
        def f(x, which=which):
            stack = [x if i == which else zs[i] for i in range(3)]
            return cross_modality_loss(stack, delta=0.1, negative_cap=3, seed=9)[0]

        _check_gradient(f, zs[which], grads[which], seed=which)


def _plain_cross_modality_loss(zs, cap, seed):
    """The margin loss summed as first written: one pair after another into
    zero accumulators."""
    total = 0.0
    grads = [np.zeros_like(z) for z in zs]
    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            value, g_i, g_j = mms_loss(
                zs[i], zs[j], negative_cap=cap, seed=losses_module._sub_seed(seed, i, j)
            )
            total += 2.0 * value
            grads[i] += 2.0 * g_i
            grads[j] += 2.0 * g_j
    return total, grads


@pytest.mark.parametrize("sets", [2, 3, 4])
def test_cross_modality_is_byte_identical_to_the_plain_pairwise_sum(sets):
    """Four sets fold three pair gradients into each input's sum; the value
    and gradients are those of the plain pairwise sum, byte for byte, and
    the inputs keep their bytes."""
    rng = np.random.default_rng(15)
    zs = [_unit_rows(rng.standard_normal((40, 5))) for _ in range(sets)]
    inputs = [z.tobytes() for z in zs]
    want_value, want_grads = _plain_cross_modality_loss(zs, 8, seed=9)
    value, grads = cross_modality_loss(zs, negative_cap=8, seed=9)
    assert value == want_value
    assert [g.tobytes() for g in grads] == [g.tobytes() for g in want_grads]
    assert [z.tobytes() for z in zs] == inputs


@pytest.mark.parametrize("failing_pair", [1, 2, 3])
def test_cross_modality_raises_what_a_pair_raises(failing_pair, monkeypatch):
    """Three sets make the pairs (0, 1), (0, 2) and (1, 2), folded in that
    order; whichever of them raises, the call raises the same error."""
    rng = np.random.default_rng(16)
    zs = [_unit_rows(rng.standard_normal((10, 3))) for _ in range(3)]
    i, j = [(0, 1), (0, 2), (1, 2)][failing_pair - 1]
    real = losses_module.mms_loss

    def failing(z_a, z_b, **kwargs):
        if z_a is zs[i] and z_b is zs[j]:
            raise FloatingPointError(f"pair ({i}, {j})")
        return real(z_a, z_b, **kwargs)

    monkeypatch.setattr(losses_module, "mms_loss", failing)
    with pytest.raises(FloatingPointError, match=rf"pair \({i}, {j}\)"):
        cross_modality_loss(zs, negative_cap=3)


@pytest.mark.parametrize("calls", [1, 2])
def test_cross_modality_holds_one_wave_of_pair_gradients(calls):
    """Four sets make six pairs.  Each pair is folded before the next starts,
    so a wave is one pair: the call holds the four sums and one running pair
    (half an n x d array of slack), not every pair's gradients.  A second call
    in a row, as in training, stays under the same bound, so nothing of the
    first call outlives it."""
    n, d, cap = 2000, 64, 64
    rng = np.random.default_rng(19)
    zs = [_unit_rows(rng.standard_normal((n, d))) for _ in range(4)]
    one_pair = _traced_peak(lambda: mms_loss(zs[0], zs[1], negative_cap=cap, seed=3))

    def run():
        for _ in range(calls):
            cross_modality_loss(zs, negative_cap=cap)

    peak = _traced_peak(run)
    assert peak < (len(zs) + 0.5) * n * d * 8 + one_pair


def _cross_modal_score(zs, u, v):
    """Sum over unordered modality pairs (a, b) of 0.5 * (a[u].b[v] + a[v].b[u])."""
    total = 0.0
    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            a, b = zs[i], zs[j]
            total += 0.5 * (float(a[u] @ b[v]) + float(a[v] @ b[u]))
    return total


def test_cross_modal_similarity_two_nodes():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([[1.0, 0.0], [1.0, 0.0]])
    # pair (0,1): 0.5 * (a0.b1 + a1.b0) = 0.5 * (1 + 0)
    assert _cross_modal_score([a, b], 0, 1) == pytest.approx(0.5)


# ------------------------------------------------------------------- pruning

def test_passthrough_counts():
    adj = edges_from_pairs(4, [(0, 1), (1, 2)])  # node 3 isolated
    pruned = passthrough_pruned(adj)
    assert pruned.threshold is None
    assert pruned.kept_count == 2
    assert pruned.removed_count == 0
    assert pruned.self_loops == 1
    assert pruned.edges[3, 3] == 1.0


def test_prune_single_modality_keeps_every_edge():
    # no modality pair to score: every score and the bar are 0
    adj = edges_from_pairs(3, [(0, 1)])
    pruned = prune_graph(adj, [np.eye(3)])
    assert pruned.threshold == 0.0
    assert pruned.kept_count == 1
    assert pruned.removed_count == 0
    # the input edges, plus the self-loop of isolated node 2
    assert pruned.self_loops == 1
    assert (pruned.edges != adj + sp.diags([0.0, 0.0, 1.0])).nnz == 0


def test_prune_empty_graph_passes_through_enabled():
    adj = sp.csr_matrix((5, 5))
    z = _unit_rows(np.random.default_rng(0).standard_normal((5, 3)))
    pruned = prune_graph(adj, [z, z])
    assert pruned.threshold is None
    assert pruned.kept_count == 0
    assert pruned.self_loops == 5


def test_prune_keeps_aligned_edges_drops_mismatched():
    # two blocks with orthogonal embeddings shared across both modalities:
    # intra-block similarity 1.0, cross-block 0.0
    n = 10
    z = np.zeros((n, 2))
    z[:5, 0] = 1.0
    z[5:, 1] = 1.0
    adj = edges_from_pairs(
        n, [(0, 1), (1, 2), (5, 6), (6, 7), (0, 5), (2, 7), (3, 8)]
    )
    pruned = prune_graph(adj, [z, z], seed=0)
    dense = pruned.edges.toarray()
    assert dense[0, 1] == 1.0 and dense[5, 6] == 1.0
    assert dense[0, 5] == 0.0 and dense[2, 7] == 0.0 and dense[3, 8] == 0.0
    assert pruned.kept_count == 4
    assert pruned.removed_count == 3


def test_prune_threshold_separates_kept_from_removed():
    rng = np.random.default_rng(8)
    n = 30
    zs = [_unit_rows(rng.standard_normal((n, 5))) for _ in range(2)]
    adj = edges_from_pairs(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.2]
    )
    pruned = prune_graph(adj, zs, seed=4)
    thr = pruned.threshold
    assert thr is not None
    kept = sp.triu(pruned.edges, k=1).tocoo()
    for u, v in zip(kept.row, kept.col):
        if u != v:
            assert _cross_modal_score(zs, int(u), int(v)) >= thr
    original = sp.triu(adj, k=1).tocoo()
    kept_pairs = {(int(u), int(v)) for u, v in zip(kept.row, kept.col)}
    for u, v in zip(original.row, original.col):
        if (int(u), int(v)) not in kept_pairs:
            assert _cross_modal_score(zs, int(u), int(v)) < thr


def test_prune_every_node_can_walk():
    rng = np.random.default_rng(9)
    n = 20
    zs = [_unit_rows(rng.standard_normal((n, 4))) for _ in range(2)]
    adj = edges_from_pairs(n, [(i, (i + 1) % n) for i in range(n)])
    pruned = prune_graph(adj, zs, seed=1)
    degrees = np.diff(pruned.edges.indptr)
    assert (degrees >= 1).all()


def _gather_rows(monkeypatch, rows, row_bytes):
    """Patch the gather budget so that a block holds ``rows`` rows."""
    monkeypatch.setattr(losses_module, "_GATHER_BYTES", rows * row_bytes)


def _pruned_bytes(pruned):
    csr = pruned.edges
    return (pruned.threshold, pruned.kept_count, pruned.removed_count, pruned.self_loops,
            csr.indptr.tobytes(), csr.indices.tobytes(), csr.data.tobytes())


def _plain_pair_scores(zs, us, vs):
    """The pair scores as first written: every pair gathered at once."""
    scores = np.zeros(us.shape[0])
    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            forward = np.einsum("rd,rd->r", zs[i][us], zs[j][vs])
            backward = np.einsum("rd,rd->r", zs[i][vs], zs[j][us])
            scores += 0.5 * (forward + backward)
    return scores


@pytest.mark.parametrize("rows", [1, 7, 10_000])
def test_prune_is_byte_identical_for_any_block_size(rows, monkeypatch):
    rng = np.random.default_rng(10)
    n, d = 60, 5
    zs = [_unit_rows(rng.standard_normal((n, d))) for _ in range(3)]
    adj = edges_from_pairs(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.1]
    )
    inputs = [z.tobytes() for z in zs]
    triu = sp.triu(adj, k=1).tocoo()
    assert triu.nnz > 7  # several blocks at 7 rows
    want = _pruned_bytes(prune_graph(adj, zs, seed=2))
    _gather_rows(monkeypatch, rows, d * 8)
    got = losses_module._pair_scores(zs, triu.row, triu.col)
    assert got.tobytes() == _plain_pair_scores(zs, triu.row, triu.col).tobytes()
    assert _pruned_bytes(prune_graph(adj, zs, seed=2)) == want
    assert [z.tobytes() for z in zs] == inputs


def _random_graph(n, edges, seed):
    rng = np.random.default_rng(seed)
    u, v = rng.integers(0, n, edges), rng.integers(0, n, edges)
    keep = u != v
    u, v = u[keep], v[keep]
    adj = sp.csr_matrix((np.ones(2 * u.size), (np.r_[u, v], np.r_[v, u])), shape=(n, n))
    adj.data[:] = 1.0
    return adj


# n x d float64 arrays at n=16000, d=64: the bounds of the peak tests below
_BIG_N, _BIG_D = 16000, 64
_BIG_ARRAY = _BIG_N * _BIG_D * 8


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_prune_scratch_below_two_n_by_d_arrays():
    """Pair scores gather rows in blocks: one call at mean degree 16 allocates
    less than two n x d arrays above its inputs, not two |E| x d gathers."""
    rng = np.random.default_rng(11)
    adj = _random_graph(_BIG_N, 8 * _BIG_N, seed=11)
    zs = [_unit_rows(rng.standard_normal((_BIG_N, _BIG_D))) for _ in range(3)]
    assert _traced_peak(lambda: prune_graph(adj, zs, seed=1)) < 2 * _BIG_ARRAY


def test_prune_two_nodes_never_pairs_a_node_with_itself(monkeypatch):
    pairs = []
    real = losses_module._pair_scores

    def recording(zs, us, vs):
        pairs.append((us.copy(), vs.copy()))
        return real(zs, us, vs)

    monkeypatch.setattr(losses_module, "_pair_scores", recording)
    rng = np.random.default_rng(14)
    zs = [_unit_rows(rng.standard_normal((2, 3))) for _ in range(2)]
    for seed in range(50):
        prune_graph(complete_graph(2), zs, seed=seed)
    references = pairs[::2]  # each call scores its reference pairs, then its edges
    assert len(references) == 50
    for us, vs in references:
        assert (us != vs).all()
        assert set(us.tolist()) | set(vs.tolist()) <= {0, 1}


# ------------------------------------------------------------- walk sampling

def test_walks_are_valid_paths():
    adj = ring_graph(12)
    samples = sample_neighborhoods(adj, walk_length=5, seed=3)
    dense = adj.toarray()
    for anchor in range(12):
        pos = samples.positives[anchor]
        assert pos.shape == (5,)
        assert dense[anchor, pos[0]] == 1.0
        for a, b in zip(pos[:-1], pos[1:]):
            assert dense[a, b] == 1.0


def _padded_anchors(samples, n):
    """Check every anchor's negatives against its walk; return the anchors
    whose walk and anchor cover all ``n`` nodes (their rows must be -1)."""
    padded = []
    for anchor, (pos, neg) in enumerate(zip(samples.positives, samples.negatives)):
        excluded = set(pos.tolist()) | {anchor}
        if len(excluded) == n:
            assert (neg == -1).all()
            padded.append(anchor)
        else:
            assert ((neg >= 0) & (neg < n)).all()
            assert excluded.isdisjoint(neg.tolist())
    return padded


def test_negatives_avoid_walk_and_anchor():
    adj = ring_graph(15)
    samples = sample_neighborhoods(adj, walk_length=4, seed=0)
    assert samples.negatives.shape == (15, 4)
    assert _padded_anchors(samples, 15) == []
    for n in (3, 5, 12, 40):
        for seed in range(40):
            samples = sample_neighborhoods(ring_graph(n), 4, seed=seed)
            _padded_anchors(samples, n)


def test_negatives_are_uniform_outside_the_walk():
    # isolated nodes carry a self-loop, so every walk stays at its anchor;
    # the draws of 2000 seeds give each anchor 20000 negatives
    n, walk, seeds = 9, 10, 2000
    adj = passthrough_pruned(sp.csr_matrix((n, n))).edges
    draws = [sample_neighborhoods(adj, walk, seed=seed) for seed in range(seeds)]
    assert all((s.positives == np.arange(n)[:, None]).all() for s in draws)
    negatives = np.hstack([s.negatives for s in draws])
    q = walk * seeds
    p = 1.0 / (n - 1)
    sd = math.sqrt(q * p * (1 - p))
    for anchor in range(n):
        counts = np.bincount(negatives[anchor], minlength=n)
        assert counts[anchor] == 0
        others = np.delete(counts, anchor)
        assert np.all(np.abs(others - q * p) <= 5 * sd), (anchor, others)


def test_sampling_deterministic_and_seed_sensitive():
    adj = ring_graph(10)
    s1 = sample_neighborhoods(adj, 4, seed=5)
    s2 = sample_neighborhoods(adj, 4, seed=5)
    s3 = sample_neighborhoods(adj, 4, seed=6)
    assert all(np.array_equal(a, b) for a, b in zip(s1.positives, s2.positives))
    assert all(np.array_equal(a, b) for a, b in zip(s1.negatives, s2.negatives))
    assert any(
        not np.array_equal(a, b) for a, b in zip(s1.positives, s3.positives)
    )


def test_degree_zero_rejected():
    adj = edges_from_pairs(3, [(0, 1)])  # node 2 isolated
    with pytest.raises(ValueError, match="self-loops"):
        sample_neighborhoods(adj, 2)


def test_empty_complement_gives_empty_negatives():
    adj = complete_graph(2)
    samples = sample_neighborhoods(adj, walk_length=3, seed=0)
    assert samples.positives.shape == (2, 3)
    assert samples.negatives.shape == (2, 3)
    assert (samples.negatives == -1).all()
    # a walk of 4 covers at most 5 ring nodes: on rings of 3 and 5 some
    # anchors have nothing left to draw and others do; on larger rings none
    for n in (3, 5, 12, 40):
        padded = sum(
            len(_padded_anchors(sample_neighborhoods(ring_graph(n), 4, seed=seed), n))
            for seed in range(40)
        )
        if n <= 5:
            assert 0 < padded < 40 * n
        else:
            assert padded == 0


def test_sampling_scratch_below_four_n_by_walk_arrays():
    """Negatives are ranks stepped past sorted excluded ids one column at a
    time: one call, outputs included, allocates less than four n x walk int64
    arrays, not an n x q x walk comparison."""
    adj = passthrough_pruned(_random_graph(_BIG_N, 8 * _BIG_N, seed=15)).edges
    walk = 10
    peak = _traced_peak(lambda: sample_neighborhoods(adj, walk, seed=15))
    assert peak < 4 * _BIG_N * walk * 8


def test_sampling_validation():
    adj = ring_graph(5)
    with pytest.raises(ValueError):
        sample_neighborhoods(adj, 0)


@pytest.mark.parametrize("walk", [1, 3, 10])
def test_sampler_draws_walk_length_negatives(walk):
    samples = sample_neighborhoods(ring_graph(40), walk, seed=1)
    assert samples.positives.shape == (40, walk)
    assert samples.negatives.shape == (40, walk)


def test_sampler_refuses_a_positional_seed_or_count():
    # a third positional argument, once the negatives count, is never
    # taken for the seed
    with pytest.raises(TypeError):
        sample_neighborhoods(ring_graph(5), 2, 3)


# --------------------------------------------------------- neighborhood loss

def _per_anchor_loss(h, samples):
    """Reference value and gradient, one anchor at a time; -1 negatives skipped."""
    value = 0.0
    grad = np.zeros_like(h)
    for i in range(h.shape[0]):
        pos = samples.positives[i]
        neg = samples.negatives[i][samples.negatives[i] >= 0]
        ep = np.exp(h[pos] @ h[i])
        en = np.exp(h[neg] @ h[i])
        total = ep.sum() + en.sum()
        value += math.log(total) - math.log(ep.sum())
        d_pos = ep * (1.0 / total - 1.0 / ep.sum())
        d_neg = en / total
        grad[i] += d_pos @ h[pos] + d_neg @ h[neg]
        for j, c in zip(pos, d_pos):
            grad[j] += c * h[i]
        for j, c in zip(neg, d_neg):
            grad[j] += c * h[i]
    return value, grad


def test_neighborhood_hand_value_one_pos_one_neg():
    h = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    # anchors 0 and 1: positive score 1, negative score -1 -> log(1 + e^-2);
    # anchor 2: positive and negative both score -1 -> log 2
    samples = SampleSet(
        positives=np.array([[1], [0], [0]]),
        negatives=np.array([[2], [2], [1]]),
    )
    value, grad = neighborhood_loss(h, samples)
    want = 2.0 * math.log(1.0 + math.exp(-2.0)) + math.log(2.0)
    assert value == pytest.approx(want, abs=1e-12)
    assert value == pytest.approx(0.947003, abs=1e-6)


def test_neighborhood_identical_rows_log2_per_anchor():
    n, ell = 6, 3
    h = np.tile(np.array([[0.6, 0.8]]), (n, 1))
    pos = np.tile(np.arange(1, 1 + ell) % n, (n, 1))
    neg = np.tile(np.arange(1 + ell, 1 + 2 * ell) % n, (n, 1))
    value, _ = neighborhood_loss(h, SampleSet(positives=pos, negatives=neg))
    assert value == pytest.approx(n * math.log(2.0), abs=1e-12)


def test_neighborhood_rect_matches_ragged_oracle():
    rng = np.random.default_rng(10)
    n = 9
    h = _unit_rows(rng.standard_normal((n, 4)))
    adj = ring_graph(n)
    samples = sample_neighborhoods(adj, 3, seed=2)
    value, grad = neighborhood_loss(h, samples)
    want, want_grad = _per_anchor_loss(h, samples)
    assert value == pytest.approx(want, rel=1e-12)
    np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-15)


def test_neighborhood_mixed_negatives_match_per_anchor_oracle():
    # a 5-clique with the pendant path 4-5-6-7: one 12-step walk covers
    # every other node, so that anchor has no node left to draw from
    n = 8
    adj = edges_from_pairs(
        n, [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(4, 5), (5, 6), (6, 7)]
    )
    samples = sample_neighborhoods(adj, walk_length=12, seed=0)
    padded = (samples.negatives == -1).all(axis=1)
    assert padded.sum() == 1 and (samples.negatives[~padded] >= 0).all()
    h = _unit_rows(np.random.default_rng(13).standard_normal((n, 4)))
    value, grad = neighborhood_loss(h, samples)
    want, want_grad = _per_anchor_loss(h, samples)
    assert value == pytest.approx(want, rel=1e-12)
    np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-15)


def test_neighborhood_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    n = 8
    h = _unit_rows(rng.standard_normal((n, 3)))
    samples = sample_neighborhoods(ring_graph(n), 3, seed=4)
    value, grad = neighborhood_loss(h, samples)
    _check_gradient(lambda x: neighborhood_loss(x, samples)[0], h, grad, seed=2)


def test_neighborhood_size_mismatch():
    h = np.eye(3)
    samples = SampleSet(positives=np.array([[0]]), negatives=np.array([[1]]))
    with pytest.raises(ValueError):
        neighborhood_loss(h, samples)


def test_neighborhood_padded_negatives_score_nothing():
    # with every negative padded, each anchor scores log(p / p) = 0; a
    # padding entry read as row -1 (= row 2) would add exp(0) to anchor 0
    h = np.eye(3)
    samples = SampleSet(
        positives=np.array([[1], [2], [0]]),
        negatives=np.full((3, 2), -1),
    )
    value, grad = neighborhood_loss(h, samples)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert np.abs(grad).max() == pytest.approx(0.0, abs=1e-12)


def _padded_samples(n, walk, q, seed):
    rng = np.random.default_rng(seed)
    negatives = rng.integers(0, n, (n, q))
    negatives[::3, q // 2:] = -1  # partly padded rows
    negatives[::7] = -1  # anchors with nothing to draw
    return SampleSet(positives=rng.integers(0, n, (n, walk)), negatives=negatives)


def _plain_neighborhood_loss(h, samples):
    """The neighborhood loss as first written: every walk and negative
    gathered at once."""
    pos, neg = samples.positives, samples.negatives
    n = h.shape[0]
    ep = np.exp(np.einsum("rcd,rd->rc", h[pos], h))
    sum_p = ep.sum(axis=1)
    en = np.where(neg >= 0, np.exp(np.einsum("rcd,rd->rc", h[neg], h)), 0.0)
    sum_n = en.sum(axis=1)
    value = float(np.sum(np.log(sum_p + sum_n) - np.log(sum_p)))
    grad = np.zeros_like(h)
    for idx, coef in (
        (pos, ep * (1.0 / (sum_p + sum_n) - 1.0 / sum_p)[:, None]),
        (neg, en / (sum_p + sum_n)[:, None]),
    ):
        grad += np.einsum("rc,rcd->rd", coef, h[idx])
        keep = idx >= 0
        anchors = np.broadcast_to(np.arange(n)[:, None], idx.shape)
        grad += sp.csr_matrix((coef[keep], (idx[keep], anchors[keep])), shape=(n, n)) @ h
    return value, grad


@pytest.mark.parametrize("rows", [1, 7, 10_000])
def test_neighborhood_is_byte_identical_for_any_block_size(rows, monkeypatch):
    n, d, walk = 50, 6, 4
    h = _unit_rows(np.random.default_rng(12).standard_normal((n, d)))
    samples = _padded_samples(n, walk, 3, seed=12)
    value, grad = neighborhood_loss(h, samples)
    want_value, want_grad = _plain_neighborhood_loss(h, samples)
    assert value == want_value and grad.tobytes() == want_grad.tobytes()
    _gather_rows(monkeypatch, rows, walk * d * 8)  # the walks are the wider gather
    got_value, got_grad = neighborhood_loss(h, samples)
    assert got_value == value
    assert got_grad.tobytes() == grad.tobytes()


def test_neighborhood_sums_repeated_walk_visits_as_first_written():
    """On a 5-node ring a 10-step walk revisits nodes, some three times or
    more, so the transposed pairs matrix sums repeated entries; the loss
    still equals the plain one byte for byte."""
    n = 5
    h = _unit_rows(np.random.default_rng(14).standard_normal((n, 3)))
    samples = sample_neighborhoods(ring_graph(n), 10, seed=14)
    visits = [np.bincount(row, minlength=n).max() for row in samples.positives]
    assert max(visits) >= 3
    value, grad = neighborhood_loss(h, samples)
    want_value, want_grad = _plain_neighborhood_loss(h, samples)
    assert value == want_value and grad.tobytes() == want_grad.tobytes()


@pytest.mark.parametrize("n", [2, 50])
def test_neighborhood_is_byte_identical_to_the_plain_loss_in_blocks(n, monkeypatch):
    """Over several blocks (one at n = 2) the loss gives the plain loss's
    bytes, and the inputs keep their bytes."""
    d, walk = 6, 4
    h = _unit_rows(np.random.default_rng(18).standard_normal((n, d)))
    samples = _padded_samples(n, walk, 3, seed=18)
    inputs = [a.tobytes() for a in (h, samples.positives, samples.negatives)]
    _gather_rows(monkeypatch, 7, walk * d * 8)  # several blocks
    want_value, want_grad = _plain_neighborhood_loss(h, samples)
    value, grad = neighborhood_loss(h, samples)
    assert value == want_value and grad.tobytes() == want_grad.tobytes()
    assert [a.tobytes() for a in (h, samples.positives, samples.negatives)] == inputs


def test_neighborhood_scratch_below_four_n_by_d_arrays():
    """Walk and negative scores gather rows in blocks: one call allocates less
    than four n x d arrays above its inputs, not n x walk x d gathers."""
    h = _unit_rows(np.random.default_rng(13).standard_normal((_BIG_N, _BIG_D)))
    samples = _padded_samples(_BIG_N, 10, 10, seed=13)
    assert _traced_peak(lambda: neighborhood_loss(h, samples)) < 4 * _BIG_ARRAY


# --------------------------------------------------------- community loss

def test_hard_positive_count_rule():
    rng = np.random.default_rng(12)
    h = _unit_rows(rng.standard_normal((15, 4)))
    assignments = np.zeros(15, dtype=np.int64)
    centroids = h.mean(axis=0, keepdims=True)
    assert hard_positive_sets(h, assignments, centroids, 0.3)[0].shape[0] == 4
    assert hard_positive_sets(h, assignments, centroids, 1.0)[0].shape[0] == 15
    sub = hard_positive_sets(h[:3], assignments[:3], centroids, 0.3)
    assert sub[0].shape[0] == 1  # floor(0.9) -> 0, clamped to 1


def test_hard_positive_floor_nudge():
    rng = np.random.default_rng(13)
    h = _unit_rows(rng.standard_normal((5, 3)))
    centroids = h.mean(axis=0, keepdims=True)
    sets = hard_positive_sets(h, np.zeros(5, dtype=np.int64), centroids, 0.6)
    assert sets[0].shape[0] == 3  # 5 * 0.6 == 3.0 despite float rounding


def test_hard_positive_ranking_and_ties():
    base = np.array([1.0, 0.0])
    h = np.array([
        [0.0, 1.0],     # cosine 0 with centroid
        [1.0, 0.0],     # cosine 1
        [0.8, 0.6],     # cosine 0.8
        [1.0, 0.0],     # cosine 1 (tie with node 1)
    ])
    sets = hard_positive_sets(
        h, np.zeros(4, dtype=np.int64), base[None, :], 0.5
    )
    assert sets[0].tolist() == [1, 3]  # ties broken by ascending id


def test_hard_positive_sets_keeping_every_member_are_unranked():
    rng = np.random.default_rng(14)
    h = rng.standard_normal((12, 3))
    assignments = np.array([0, 1, 0, 3, 1, 0, 1, 0, 1, 0, 1, 0], dtype=np.int64)
    centroids = rng.standard_normal((4, 3))  # cluster 2 is empty, cluster 3 has one member
    sets = hard_positive_sets(h, assignments, centroids, 1.0)
    for c in range(4):
        want = np.flatnonzero(assignments == c)
        assert sets[c].dtype == want.dtype and sets[c].tobytes() == want.tobytes()
    assert hard_positive_sets(h, assignments, centroids, 0.3)[3].tolist() == [3]


def test_hard_positive_empty_cluster_and_theta_validation():
    h = np.eye(3)
    centroids = np.eye(2, 3)
    sets = hard_positive_sets(h, np.zeros(3, dtype=np.int64), centroids, 0.5)
    assert sets[1].shape[0] == 0
    with pytest.raises(ValueError):
        hard_positive_sets(h, np.zeros(3, dtype=np.int64), centroids, 0.0)
    with pytest.raises(ValueError):
        hard_positive_sets(h, np.zeros(3, dtype=np.int64), centroids, 1.5)


def test_community_single_cluster_identical_rows_zero():
    h = np.tile(np.array([[0.6, 0.8]]), (5, 1))
    assignments = np.zeros(5, dtype=np.int64)
    centroids = np.array([[0.6, 0.8]])
    hard = hard_positive_sets(h, assignments, centroids, 1.0)
    value, grad = community_loss(h, assignments, centroids, hard)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_community_all_empty_raises():
    h = np.eye(2)
    with pytest.raises(ValueError, match="empty"):
        community_loss(
            h, np.zeros(2, dtype=np.int64), np.eye(1, 2),
            [np.empty(0, dtype=np.int64)],
        )


def test_community_set_count_mismatch():
    h = np.eye(2)
    with pytest.raises(ValueError, match="per cluster"):
        community_loss(h, np.zeros(2, dtype=np.int64), np.eye(2), [np.array([0])])


def test_community_gradient_matches_finite_differences():
    rng = np.random.default_rng(14)
    n, k = 10, 3
    h = _unit_rows(rng.standard_normal((n, 4)))
    assignments = rng.integers(0, k, size=n)
    assignments[:k] = np.arange(k)  # every cluster non-empty
    centroids = np.vstack([
        _unit_rows(h[assignments == c].mean(axis=0, keepdims=True))
        for c in range(k)
    ])
    hard = hard_positive_sets(h, assignments, centroids, 0.5)
    value, grad = community_loss(h, assignments, centroids, hard)
    _check_gradient(
        lambda x: community_loss(x, assignments, centroids, hard)[0],
        h, grad, seed=3,
    )


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_community_value_nonnegative(seed):
    """Numerators are subsets of the shared denominator's terms."""
    rng = np.random.default_rng(seed)
    n, k = 12, 3
    h = _unit_rows(rng.standard_normal((n, 4)))
    assignments = rng.integers(0, k, size=n)
    assignments[:k] = np.arange(k)
    centroids = np.vstack([
        _unit_rows(h[assignments == c].mean(axis=0, keepdims=True))
        for c in range(k)
    ])
    hard = hard_positive_sets(h, assignments, centroids, 0.4)
    value, _ = community_loss(h, assignments, centroids, hard)
    assert value >= 0.0
