"""Contrastive losses, similarity-based graph pruning, and walk sampling.

Every loss returns ``(value, gradients)`` with analytically derived
gradients, validated against central finite differences in the test
suite.  All losses expect row-L2-normalized inputs (callers normalize
and chain the normalization Jacobian), so every dot product lies in
[-1, 1] and the exponentials involved are bounded; no log-sum-exp
shifting is needed.  Walk samples are rectangular index arrays, one row
per anchor, so the neighborhood loss is vectorized over anchors.

Edge pruning and the neighborhood loss gather the embedding rows of
the pairs they score in row blocks of at most 512 KiB (``_GATHER_BYTES``),
so their scratch is O(block * walk_length * d) rather than O(|E| * d)
and O(n * walk_length * d), with the same bits for any block size.  The
gather serves the scores only: the neighborhood loss takes its gradient
through sparse anchor-by-sample matrices of O(n * walk_length) entries.

Every routine here runs on the calling thread and takes no thread budget,
as a second thread bought them nothing: on 2 cores with one BLAS thread,
budgets 1 and 2 took 26.2 and 25.9 ms in the margin loss of three 1000 x 64
sets, and at n = 16000 85.5 and 86.2 ms in pruning and 56.8 and 59.3 ms in
the neighborhood loss, while whole fits with them on one thread read a 1-4%
lower median time and about 1% lower peak RSS (``BENCH_28.json``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data import add_isolated_self_loops, symmetric_adjacency


def _sub_rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, tags)]))


def _sub_seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([int(seed), *map(int, tags)]).generate_state(1)[0])


# bytes of embedding rows one gather may hold when pairs or walk samples are
# scored (at least one row per block): 1024 pairs or 102 walks of 10 at
# d=64.  At n=16000, d=64, walk 10, 130k edges and three embeddings,
# prune_graph took 240 ms with 512 KiB, 258 ms with 2 MiB and 478 ms with
# 8 MiB, and the neighborhood loss, which gathers for its scores only, 65
# to 71 ms across these sizes (minimum of 15 calls; 2-core Xeon VM, 4 MB L2
# per core, one BLAS thread).
_GATHER_BYTES = 1 << 19


def _row_blocks(n: int, row_bytes: int) -> list[slice]:
    """Consecutive slices covering ``range(n)``, each gathering at most
    ``_GATHER_BYTES`` when one row costs ``row_bytes``."""
    step = max(1, _GATHER_BYTES // row_bytes)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


# ---------------------------------------------------------------------------
# margin contrastive alignment between two embedding sets


# anchor rows per block that share one impostor draw in the capped margin
# loss.  Smaller blocks stay closer to independent draws per row; at
# n=1000, cap=256, d=64 one call took 19 ms with 32 rows, 16 ms with 64 and
# 14 ms with 128 (2-core Xeon VM, one BLAS thread).
_IMPOSTOR_BLOCK = 64


def _impostor_blocks(
    n: int, cap: int, rng: np.random.Generator
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split the rows into random blocks, each with ``cap`` shared impostors.

    A uniform permutation cuts the rows into blocks of at most
    ``_IMPOSTOR_BLOCK`` (fewer when ``n - cap`` is smaller); each block
    draws ``cap`` distinct impostors uniformly from the rows outside it.
    Averaged over the permutation, every row's impostor set is a uniform
    ``cap``-subset of the other rows, as with an independent draw per row.
    Beyond the one O(n) permutation, a block costs O(cap * log(block)):
    the draw picks ranks among the outside rows, which are mapped to row
    ids through the block's sorted ids without listing the outside rows.
    """
    size = min(_IMPOSTOR_BLOCK, n - cap)
    order = rng.permutation(n)
    blocks = []
    for start in range(0, n, size):
        block = order[start:start + size]
        # rank r among the outside rows is row r + #{block rows <= that row}
        ranks = rng.choice(n - block.size, size=cap, replace=False)
        gaps = np.sort(block) - np.arange(block.size)
        impostors = ranks + np.searchsorted(gaps, ranks, side="right")
        blocks.append((block, impostors))
    return blocks


def mms_loss(
    z_a: np.ndarray,
    z_b: np.ndarray,
    delta: float = 0.1,
    negative_cap: int | None = None,
    seed: int = 0,
):
    """Margin contrastive loss aligning matched rows of two embedding sets.

    Row ``l`` of each input forms the positive pair; the other rows act
    as impostors against the opposite anchor, with the positive logit
    reduced by the margin ``delta``.  Both anchor directions are scored
    and the total is averaged over rows.  ``negative_cap`` bounds the
    impostor count per row by uniform sampling without replacement (all
    other rows are used when the cap is None or not binding); rows in
    one random block of ``_impostor_blocks`` share their draw, so the
    capped loss costs O(n * cap * d) arithmetic and O(n * cap) memory
    instead of O(n^2 * d) and O(n^2).  Returns
    ``(value, grad_a, grad_b)``.
    """
    z_a = np.asarray(z_a, dtype=np.float64)
    z_b = np.asarray(z_b, dtype=np.float64)
    if z_a.shape != z_b.shape or z_a.ndim != 2:
        raise ValueError("mms_loss expects two equal-shape 2-d arrays")
    if negative_cap is not None and negative_cap < 1:
        raise ValueError("negative_cap must be >= 1 when set")
    n = z_a.shape[0]
    grad_a = np.zeros_like(z_a)
    grad_b = np.zeros_like(z_b)
    if n == 1:
        return 0.0, grad_a, grad_b

    pos = np.einsum("ij,ij->i", z_a, z_b)
    pos_e = np.exp(pos - delta)
    if negative_cap is None or negative_cap >= n - 1:
        # every other row is an impostor: e[l, k] = exp(z_a[l] . z_b[k]).
        # Kept apart from the blocks below: with n - 1 <= cap they would hold
        # one row each, and at n = 200, d = 64 a call took 18.1 ms through
        # them against 0.55 ms here (minimum of 30 calls; 2-core Xeon VM, one
        # BLAS thread).
        e = np.exp(z_a @ z_b.T)
        np.fill_diagonal(e, 0.0)
        d1 = pos_e + e.sum(axis=0)  # anchor row l of z_b, impostor rows of z_a
        d2 = pos_e + e.sum(axis=1)  # anchor row l of z_a, impostor rows of z_b
        mix = e / d2[:, None] + e / d1[None, :]
        grad_a += (mix @ z_b) / n
        grad_b += (mix.T @ z_a) / n
    else:
        d1 = np.empty(n)
        d2 = np.empty(n)
        for block, imp in _impostor_blocks(n, negative_cap, _sub_rng(seed)):
            a_blk, b_blk = z_a[block], z_b[block]
            a_imp, b_imp = z_a[imp], z_b[imp]
            e1 = np.exp(b_blk @ a_imp.T)  # impostor rows of z_a against anchors of z_b
            e2 = np.exp(a_blk @ b_imp.T)  # anchors of z_a against impostor rows of z_b
            d1[block] = pos_e[block] + e1.sum(axis=1)
            d2[block] = pos_e[block] + e2.sum(axis=1)
            w1 = e1 / (n * d1[block])[:, None]
            w2 = e2 / (n * d2[block])[:, None]
            grad_a[block] += w2 @ b_imp
            grad_b[block] += w1 @ a_imp
            grad_a[imp] += w1.T @ b_blk  # impostors are distinct within a block
            grad_b[imp] += w2.T @ a_blk
    value = float(np.sum(np.log(d1) + np.log(d2) - 2.0 * (pos - delta))) / n

    # positive-pair pull from both directions
    coef = ((1.0 - pos_e / d1) + (1.0 - pos_e / d2)) / n
    grad_a -= coef[:, None] * z_b
    grad_b -= coef[:, None] * z_a
    return value, grad_a, grad_b


def cross_modality_loss(
    z_list: list[np.ndarray],
    delta: float = 0.1,
    negative_cap: int | None = None,
    seed: int = 0,
):
    """Margin loss summed over all ordered pairs of embedding sets.

    ``z_list`` typically holds the filtered embedding first, then one
    entry per modality.  The two orderings of a pair mirror each other
    exactly when they share one impostor draw, so each unordered pair is
    evaluated once and doubled.  The pairs run one after another, each
    folded into the sums before the next starts, the first gradient of each
    input serving as its sum.  Returns ``(value, grads)`` with one gradient
    array per input.
    """
    m = len(z_list)
    if m < 2:
        raise ValueError("cross_modality_loss needs at least two embedding sets")
    total = 0.0
    grads: list = [None] * m
    for i in range(m):
        for j in range(i + 1, m):
            value, g_i, g_j = mms_loss(
                z_list[i], z_list[j], delta=delta, negative_cap=negative_cap,
                seed=_sub_seed(seed, i, j),
            )
            total += 2.0 * value
            for k, g in ((i, g_i), (j, g_j)):
                g *= 2.0  # mms_loss returns new arrays
                if grads[k] is None:
                    grads[k] = g
                else:
                    grads[k] += g
            del g_i, g_j, g  # the next pair runs beside the m sums alone
    return total, grads


# ---------------------------------------------------------------------------
# cross-modal similarity and adaptive edge pruning


def _pair_scores(z_list: list[np.ndarray], us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Symmetrized cross-modal similarity for aligned node-index arrays,
    gathered in row blocks."""
    scores = np.zeros(us.shape[0], dtype=np.float64)
    m = len(z_list)
    width = max(z.shape[1] for z in z_list)
    for blk in _row_blocks(us.shape[0], width * 8):
        zu = [z[us[blk]] for z in z_list]
        zv = [z[vs[blk]] for z in z_list]
        for i in range(m):
            for j in range(i + 1, m):
                forward = np.einsum("rd,rd->r", zu[i], zv[j])
                backward = np.einsum("rd,rd->r", zv[i], zu[j])
                scores[blk] += 0.5 * (forward + backward)
        del zu, zv  # before the next block gathers
    return scores


@dataclass
class PrunedGraph:
    """Walk substrate produced by similarity-based edge pruning.

    ``edges`` keeps the surviving adjacency plus a unit self-loop on
    every node left without neighbors, so random walks always have a
    step to take.  ``threshold`` is None when no bar was applied (the
    ``no_aas`` ablation, or a graph without edges).
    """

    edges: sp.csr_matrix
    threshold: float | None
    kept_count: int
    removed_count: int
    self_loops: int


def passthrough_pruned(adj: sp.csr_matrix) -> PrunedGraph:
    """Wrap a graph unpruned, with no bar (``no_aas``, or no edges to score)."""
    ready, loops = add_isolated_self_loops(adj)
    kept = int(sp.triu(adj, k=1).nnz)
    return PrunedGraph(
        edges=ready, threshold=None, kept_count=kept, removed_count=0, self_loops=loops,
    )


def prune_graph(adj: sp.csr_matrix, z_list: list[np.ndarray], seed: int = 0) -> PrunedGraph:
    """Drop edges whose cross-modal similarity falls below an adaptive bar.

    The bar is mean + population standard deviation of the similarity
    over ``|E|`` uniformly sampled node pairs (u != v, with replacement,
    seeded).  With one modality no pair is scored, so every score and the
    bar are 0 and every edge is kept.
    """
    n = adj.shape[0]
    triu = sp.triu(adj, k=1).tocoo()
    n_edges = triu.nnz
    if n_edges == 0:
        return passthrough_pruned(adj)

    rng = _sub_rng(seed)
    us = rng.integers(0, n, size=n_edges)
    vs = rng.integers(0, n - 1, size=n_edges)  # a rank among the nodes other than u
    vs += vs >= us
    sample_scores = _pair_scores(z_list, us, vs)
    threshold = float(sample_scores.mean() + sample_scores.std())

    edge_scores = _pair_scores(z_list, triu.row, triu.col)
    keep = edge_scores >= threshold
    ready, loops = add_isolated_self_loops(
        symmetric_adjacency(n, triu.row[keep], triu.col[keep])
    )
    return PrunedGraph(
        edges=ready,
        threshold=threshold,
        kept_count=int(keep.sum()),
        removed_count=int(n_edges - keep.sum()),
        self_loops=loops,
    )


# ---------------------------------------------------------------------------
# neighborhood sampling and loss


@dataclass
class SampleSet:
    """Walk positives and negative draws, one row per anchor.

    ``positives`` is an int64 array of shape (n, walk_length) holding the
    nodes each anchor's walk visited; ``negatives`` has shape
    (n, walk_length) too, and an entry of -1 is padding that scores nothing
    (a row of -1 marks an anchor with no node left to draw from).
    """

    positives: np.ndarray
    negatives: np.ndarray


def sample_neighborhoods(adj: sp.csr_matrix, walk_length: int, *, seed: int = 0) -> SampleSet:
    """One uniform random walk plus uniform negative draws per anchor.

    Positives are the ``walk_length`` visited nodes (start excluded as a
    position, revisits kept).  Negatives are ``walk_length`` independent
    uniform draws from the nodes outside the walk and the anchor; when no
    such node exists the anchor's row is all -1.  Each draw is a uniform
    rank among those nodes, mapped to a node id by stepping it past the
    anchor's sorted excluded ids, so the cost is O(n * walk_length^2)
    with no redraws.  Every node must have at least one neighbor (see
    ``PrunedGraph``).
    """
    adj = sp.csr_matrix(adj)
    n = adj.shape[0]
    if walk_length < 1:
        raise ValueError("walk_length must be >= 1")
    degrees = np.diff(adj.indptr)
    if (degrees == 0).any():
        raise ValueError("every node needs a neighbor; add self-loops first")

    rng = _sub_rng(seed)
    current = np.arange(n, dtype=np.int64)
    positives = np.empty((n, walk_length), dtype=np.int64)
    for step in range(walk_length):
        offsets = rng.integers(0, degrees[current])
        current = adj.indices[adj.indptr[current] + offsets]
        positives[:, step] = current

    # each anchor's excluded ids ascending, repeats moved past every node id
    excluded = np.sort(np.column_stack([np.arange(n), positives]), axis=1)
    repeat = excluded[:, 1:] == excluded[:, :-1]
    excluded[:, 1:][repeat] = n
    excluded.sort(axis=1)
    allowed = n - 1 - walk_length + repeat.sum(axis=1)
    # rank r among the allowed ids is the id reached by stepping r past each
    # excluded id at or below it, in ascending order
    negatives = rng.integers(0, np.maximum(allowed, 1)[:, None], size=(n, walk_length))
    for column in excluded.T:
        negatives += negatives >= column[:, None]
    negatives[allowed == 0] = -1
    return SampleSet(positives=positives, negatives=negatives)


def neighborhood_loss(h: np.ndarray, samples: SampleSet):
    """Walk-positive contrastive loss over anchors, summed (not averaged).

    Per anchor, the walk visits score against the anchor embedding in
    the numerator while the negatives only enlarge the denominator; -1
    padding in ``samples.negatives`` is masked out.  The scores are
    gathered in row blocks.  Returns ``(value, grad)``.
    """
    h = np.asarray(h, dtype=np.float64)
    n = h.shape[0]
    pos, neg = samples.positives, samples.negatives
    if pos.ndim != 2 or neg.ndim != 2 or pos.shape[0] != n or neg.shape[0] != n:
        raise ValueError("sample set needs one row per embedding row")
    if pos.shape[1] < 1:
        raise ValueError("every anchor needs at least one positive")

    ep = np.empty(pos.shape)
    en = np.empty(neg.shape)
    for blk in _row_blocks(n, max(pos.shape[1], neg.shape[1]) * h.shape[1] * 8):
        ep[blk] = np.exp(np.einsum("rcd,rd->rc", h[pos[blk]], h[blk]))
        en[blk] = np.exp(np.einsum("rcd,rd->rc", h[neg[blk]], h[blk]))
    sum_p = ep.sum(axis=1)
    # padding gathers row -1, whose score the mask then drops
    en = np.where(neg >= 0, en, 0.0)
    sum_n = en.sum(axis=1)
    value = float(np.sum(np.log(sum_p + sum_n) - np.log(sum_p)))

    grad = np.zeros_like(h)
    for idx, coef in (
        (pos, ep * (1.0 / (sum_p + sum_n) - 1.0 / sum_p)[:, None]),
        (neg, en / (sum_p + sum_n)[:, None]),
    ):
        # row r lists anchor r's kept samples in sample order; a csr product
        # adds each row's entries in stored order
        keep = idx >= 0
        indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
        pairs = sp.csr_matrix((coef[keep], idx[keep], indptr), shape=(n, n))
        back = pairs.T.tocsr()  # row j: the anchors that drew j, ascending
        back.sum_duplicates()  # an anchor's repeats add in sample order
        grad += pairs @ h
        grad += back @ h
    return value, grad


# ---------------------------------------------------------------------------
# community-level loss with hard positive selection


def hard_positive_sets(
    h: np.ndarray, assignments: np.ndarray, centroids: np.ndarray, theta: float
) -> list[np.ndarray]:
    """Per cluster, the member ids most cosine-aligned with the centroid.

    Keeps ``max(1, floor(size * theta))`` members per cluster, ranked by
    cosine similarity to the cluster centroid with ties broken by
    ascending node id.  A set that keeps every member (any cluster at
    theta = 1, a one-member cluster, an empty one) is the members unranked,
    in ascending id order.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    h = np.asarray(h, dtype=np.float64)
    assignments = np.asarray(assignments)
    k = centroids.shape[0]
    row_norms = np.linalg.norm(h, axis=1)
    cent_norms = np.linalg.norm(centroids, axis=1)
    sets: list[np.ndarray] = []
    for c in range(k):
        members = np.flatnonzero(assignments == c)
        count = max(1, int(math.floor(members.shape[0] * theta + 1e-9)))
        if count >= members.shape[0]:
            sets.append(members)
            continue
        denom = row_norms[members] * cent_norms[c]
        raw = h[members] @ centroids[c]
        cosine = np.where(denom > 0, raw / np.where(denom > 0, denom, 1.0), 0.0)
        order = np.lexsort((members, -cosine))
        sets.append(members[order[:count]])
    return sets


def community_loss(
    h: np.ndarray,
    assignments: np.ndarray,
    centroids: np.ndarray,
    hard_sets: list[np.ndarray],
):
    """Cluster-level contrastive loss against centroid anchors.

    Hard positives of each cluster score against their own centroid in
    the numerators; one shared denominator pools every member-to-own-
    centroid score across clusters.  ``h`` rows and ``centroids`` must
    be L2-normalized by the caller; centroids are treated as constants
    in the gradient.  Returns ``(value, grad)``.
    """
    h = np.asarray(h, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    assignments = np.asarray(assignments)
    n = h.shape[0]
    k = centroids.shape[0]
    if len(hard_sets) != k:
        raise ValueError("need one hard positive set per cluster")

    own = centroids[assignments]
    own_scores = np.einsum("ij,ij->i", h, own)
    own_e = np.exp(own_scores)
    den = float(own_e.sum())

    value = 0.0
    grad = np.zeros_like(h)
    active = 0
    for c in range(k):
        hs = hard_sets[c]
        if hs.shape[0] == 0:
            continue
        active += 1
        e_hard = np.exp(h[hs] @ centroids[c])
        num = float(e_hard.sum())
        value += math.log(den) - math.log(num)
        grad[hs] -= (e_hard / num)[:, None] * centroids[c][None, :]
    if active == 0:
        raise ValueError("all hard positive sets are empty")
    value /= n
    grad /= n
    own *= ((active / n) * (own_e / den))[:, None]  # own is a gathered copy
    grad += own
    return value, grad
