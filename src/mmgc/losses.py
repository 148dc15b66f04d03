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
neighborhood loss takes its gradient through sparse anchor-by-sample
matrices of O(n * walk_length) entries, and adds each of their four
products into the gradient one row block at a time; the community loss
scales the own centroids, gathered by row block too, by one coefficient
per row, as every hard positive lies in its own cluster.  So beside its
gradient either loss holds one block of rows, not a second n x d array;
each row sums as in the full computation, whatever the block size.

The capped margin loss draws its impostor blocks once per call, and every
pair of embedding sets shares that draw, which stays uniform for each pair.
Per block it gathers each set's block and impostor rows once, adds every
pair's products and positive-pair pull into small buffers per set, and
scatters each buffer into its set's gradient once.  So beside its m
gradients it holds one block's scratch and no n x d array per pair: over
three unit 1000 x 64 (4000 x 64) sets a call took 30.1-33.3 (122.8-128.1)
ms, against 34.4-41.1 (140.5-169.0) ms with one draw and one pass per pair
(medians of 15 calls, three rounds; 2-core Xeon VM, one BLAS thread).

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
# loss.  Smaller blocks stay closer to independent draws per row; over three
# unit 1000 x 64 sets at cap=256 one call took 36.6-39.0 ms with 32 rows,
# 31.1-31.8 ms with 64 and 26.7-27.1 ms with 128 (medians of 15 calls, two
# rounds; 2-core Xeon VM, one BLAS thread).
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


def _check_cap(negative_cap: int | None) -> None:
    if negative_cap is not None and negative_cap < 1:
        raise ValueError("negative_cap must be >= 1 when set")


def _scores_all_pairs(n: int, negative_cap: int | None) -> bool:
    """Whether every other row is an impostor: the cap is None or does not bind."""
    return negative_cap is None or negative_cap >= n - 1


def _capped_margin(
    z_list: list[np.ndarray], delta: float, cap: int, seed: int, scale: float
):
    """The margin loss over every unordered pair of ``z_list``, times
    ``scale``, on one impostor draw from ``seed`` that all pairs share.

    Per block of ``_impostor_blocks`` each set's block rows and impostor
    rows are gathered once.  Each ordered pair (anchors of one set,
    impostor rows of the other) exponentiates its scores and divides them
    in place into gradient weights, whose two products add into one small
    buffer per set and role: block rows and impostor rows.  The positive-
    pair pull of the block rows adds into the first; then each buffer is
    added into its set's gradient in one scatter, as a block's rows and
    impostors are distinct.  Beside the m gradients a call thus holds one
    block's gathers and buffers, O(m * (block + cap) * d).  Returns
    ``(value, grads)``.
    """
    n = z_list[0].shape[0]
    norm = n / scale  # each row's terms are averaged over n, then scaled
    grads = [np.zeros_like(z) for z in z_list]
    pairs = [(i, j) for i in range(len(z_list)) for j in range(i + 1, len(z_list))]
    total = 0.0
    for block, imp in _impostor_blocks(n, cap, _sub_rng(seed)):
        rows = [z[block] for z in z_list]
        imps = [z[imp] for z in z_list]
        g_rows = [np.zeros_like(r) for r in rows]
        g_imps = [np.zeros_like(r) for r in imps]
        for i, j in pairs:
            pos = np.einsum("ij,ij->i", rows[i], rows[j])
            pos_e = np.exp(pos - delta)
            dens = []
            for a, b in ((i, j), (j, i)):
                e = rows[a] @ imps[b].T  # anchors of set a, impostor rows of set b
                np.exp(e, out=e)
                den = pos_e + e.sum(axis=1)
                e /= (norm * den)[:, None]
                g_rows[a] += e @ imps[b]
                g_imps[b] += e.T @ rows[a]
                dens.append(den)
            d_i, d_j = dens
            total += float(np.sum(np.log(d_i) + np.log(d_j) - 2.0 * (pos - delta)))
            coef = ((1.0 - pos_e / d_i) + (1.0 - pos_e / d_j)) / norm
            g_rows[i] -= coef[:, None] * rows[j]
            g_rows[j] -= coef[:, None] * rows[i]
        for grad, g_row, g_imp in zip(grads, g_rows, g_imps):
            grad[block] += g_row
            grad[imp] += g_imp
    return total / norm, grads


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
    instead of O(n^2 * d) and O(n^2).  The capped loss is the two-set
    case of ``cross_modality_loss``'s, at half its value.  Returns
    ``(value, grad_a, grad_b)``.
    """
    z_a = np.asarray(z_a, dtype=np.float64)
    z_b = np.asarray(z_b, dtype=np.float64)
    if z_a.shape != z_b.shape or z_a.ndim != 2:
        raise ValueError("mms_loss expects two equal-shape 2-d arrays")
    _check_cap(negative_cap)
    n = z_a.shape[0]
    if not _scores_all_pairs(n, negative_cap):
        value, (grad_a, grad_b) = _capped_margin([z_a, z_b], delta, negative_cap, seed, 1.0)
        return value, grad_a, grad_b

    grad_a = np.zeros_like(z_a)
    grad_b = np.zeros_like(z_b)
    if n == 1:
        return 0.0, grad_a, grad_b
    # every other row is an impostor: e[l, k] = exp(z_a[l] . z_b[k]).  Kept
    # apart from the blocks: with n - 1 <= cap they would hold one row each,
    # and at n = 200, d = 64 a call took 18.1 ms through them against
    # 0.55 ms here (minimum of 30 calls; 2-core Xeon VM, one BLAS thread).
    pos = np.einsum("ij,ij->i", z_a, z_b)
    pos_e = np.exp(pos - delta)
    e = np.exp(z_a @ z_b.T)
    np.fill_diagonal(e, 0.0)
    d1 = pos_e + e.sum(axis=0)  # anchor row l of z_b, impostor rows of z_a
    d2 = pos_e + e.sum(axis=1)  # anchor row l of z_a, impostor rows of z_b
    mix = e / d2[:, None] + e / d1[None, :]
    grad_a += (mix @ z_b) / n
    grad_b += (mix.T @ z_a) / n
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
    entry per modality; every set must be a 2-d array of the first's
    shape, which is checked before any work.  The two orderings of a pair
    mirror each other exactly when they share one impostor draw, so each
    unordered pair is evaluated once and doubled.  With a binding cap
    (``negative_cap < n - 1``) every pair shares one draw of
    ``_impostor_blocks`` from ``seed``, still a uniform draw for each
    pair, and all pairs sum block by block into the m gradients.
    Otherwise each unordered pair is one ``mms_loss`` call, folded into
    the sums before the next starts, the first gradient of each input
    serving as its sum.  Returns ``(value, grads)`` with one gradient
    array per input.
    """
    m = len(z_list)
    if m < 2:
        raise ValueError("cross_modality_loss needs at least two embedding sets")
    z_list = [np.asarray(z, dtype=np.float64) for z in z_list]
    for idx, z in enumerate(z_list):
        if z.ndim != 2:
            raise ValueError(f"cross_modality_loss: set {idx} is not 2-d (shape {z.shape})")
        if z.shape != z_list[0].shape:
            raise ValueError(
                f"cross_modality_loss: set {idx} has shape {z.shape}, set 0 {z_list[0].shape}"
            )
    _check_cap(negative_cap)
    if not _scores_all_pairs(z_list[0].shape[0], negative_cap):
        return _capped_margin(z_list, delta, negative_cap, seed, 2.0)

    total = 0.0
    grads: list = [None] * m
    for i in range(m):
        for j in range(i + 1, m):
            value, g_i, g_j = mms_loss(
                z_list[i], z_list[j], delta=delta, negative_cap=negative_cap
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
    en[neg < 0] = 0.0  # padding gathers row -1, whose score the mask drops
    sum_n = en.sum(axis=1)
    total = sum_p + sum_n
    value = float(np.sum(np.log(total) - np.log(sum_p)))

    # the scores turn into their gradient coefficients in place
    ep *= (1.0 / total - 1.0 / sum_p)[:, None]
    en /= total[:, None]
    grad = np.zeros_like(h)
    blocks = _row_blocks(n, h.shape[1] * 8)
    for idx, coef in ((pos, ep), (neg, en)):
        # row r lists anchor r's kept samples in sample order; a csr product
        # adds each row's entries in stored order
        keep = idx >= 0
        indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
        pairs = sp.csr_matrix((coef[keep], idx[keep], indptr), shape=(n, n))
        back = pairs.T.tocsr()  # row j: the anchors that drew j, ascending
        back.sum_duplicates()  # an anchor's repeats add in sample order
        for product in (pairs, back):
            _add_product_in_blocks(grad, product, h, blocks)
        del pairs, back, product  # before the next pair is built
    return value, grad


def _add_product_in_blocks(out: np.ndarray, a: sp.csr_matrix, x: np.ndarray,
                           blocks: list[slice]) -> None:
    """``out += a @ x`` one row block at a time: each block's rows are a csr
    matrix on slices of ``a``'s arrays, so no product of ``out``'s size is
    held, and every row sums in stored order as in the full product.

    scipy's row slice ``a[blk]`` gives the same bits but copies the block:
    the walk loss's two positive-sample products took 20.7-23.2 ms that way
    against 19.0-21.1 ms here (medians of 40 alternations, three rounds;
    n = 16000, walk 10, d = 64, 2-core Xeon VM, one BLAS thread)."""
    for blk in blocks:
        ptr = a.indptr[blk.start:blk.stop + 1]
        lo, hi = ptr[0], ptr[-1]
        part = sp.csr_matrix((a.data[lo:hi], a.indices[lo:hi], ptr - lo),
                             shape=(ptr.size - 1, a.shape[1]))
        out[blk] += part @ x


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
    add_to: np.ndarray | None = None,
):
    """Cluster-level contrastive loss against centroid anchors.

    Hard positives of each cluster score against their own centroid in
    the numerators; one shared denominator pools every member-to-own-
    centroid score across clusters.  ``h`` rows and ``centroids`` must
    be L2-normalized by the caller, and each hard set inside its own
    cluster (as ``hard_positive_sets`` returns them; a set holding a row
    of another cluster is refused); centroids are treated as constants in
    the gradient.  The own centroids are gathered one row block at a
    time.  Returns ``(value, grad)``; with ``add_to`` the gradient is added
    into that array with the bits of ``add_to += grad`` and ``grad`` is
    ``add_to``, so no second n x d array is held.
    """
    h = np.asarray(h, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    assignments = np.asarray(assignments)
    n = h.shape[0]
    k = centroids.shape[0]
    if len(hard_sets) != k:
        raise ValueError("need one hard positive set per cluster")
    active = sum(hs.shape[0] > 0 for hs in hard_sets)
    if active == 0:
        raise ValueError("all hard positive sets are empty")
    blocks = _row_blocks(n, h.shape[1] * 8)

    own_e = np.empty(n)
    for blk in blocks:
        own_e[blk] = np.exp(np.einsum("ij,ij->i", h[blk], centroids[assignments[blk]]))
    den = float(own_e.sum())
    weight = (active / n) * (own_e / den)

    value = 0.0
    share = np.zeros(n)  # a hard row's share of its cluster's numerator
    for c, hs in enumerate(hard_sets):
        if hs.shape[0] == 0:
            continue
        if (assignments[hs] != c).any():
            raise ValueError(f"hard positive set {c} holds a row of another cluster")
        e_hard = np.exp(h[hs] @ centroids[c])
        num = float(e_hard.sum())
        value += math.log(den) - math.log(num)
        share[hs] = e_hard / num

    # every hard row lies in its own cluster, so a row's gradient is its own
    # centroid mu times weight - share / n (share is 0 off the hard sets),
    # computed as mu * weight - (mu * share) / n.  That keeps the bits of the
    # loss as first written, weight * mu + (0 - share * mu) / n, signed zeros
    # included: weight and share are >= 0, so both products take mu's sign,
    # and a + (0 - x) / n differs from a - x / n only at a = -0.0, x = +0.0.
    grad = np.empty_like(h) if add_to is None else add_to
    for blk in blocks:
        rows = centroids[assignments[blk]]
        pull = rows * share[blk, None]
        pull /= n
        rows *= weight[blk, None]
        rows -= pull
        if add_to is None:
            grad[blk] = rows
        else:
            grad[blk] += rows
    return value / n, grad
