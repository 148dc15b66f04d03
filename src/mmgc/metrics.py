"""External clustering quality metrics on a shared contingency table.

All metrics take two integer label vectors of equal length, treat label
values as opaque categories, and use natural logarithms with the
0 * log 0 = 0 convention.  Degenerate single-cluster partitions follow
fixed conventions noted per metric.

Importing this module loads numpy only.  ``accuracy`` imports
``scipy.optimize`` at its first call, so a fit, which scores NMI alone,
never loads it.
"""

from __future__ import annotations

import numpy as np


def _as_labels(truth, pred) -> tuple[np.ndarray, np.ndarray]:
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    if truth.ndim != 1 or pred.ndim != 1:
        raise ValueError("label vectors must be 1-d")
    if truth.shape[0] != pred.shape[0]:
        raise ValueError("label vectors must have equal length")
    if truth.shape[0] == 0:
        raise ValueError("label vectors must be non-empty")
    return truth, pred


def contingency_table(truth, pred) -> np.ndarray:
    """Cross-tabulate partitions; rows index truth classes, columns predictions."""
    truth, pred = _as_labels(truth, pred)
    _, ti = np.unique(truth, return_inverse=True)
    _, pi = np.unique(pred, return_inverse=True)
    kt = int(ti.max()) + 1
    kp = int(pi.max()) + 1
    table = np.zeros((kt, kp), dtype=np.int64)
    np.add.at(table, (ti, pi), 1)
    return table


def _same_partition(table: np.ndarray) -> bool:
    """Equal up to relabelling: each row and each column has one non-zero cell."""
    nonzero = table != 0
    return bool((nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) == 1).all())


def accuracy(truth, pred) -> float:
    """Best-match accuracy: maximum agreement over one-to-one cluster relabelings."""
    # imported here: scipy.optimize adds about 27 MB to every process that loads it
    from scipy.optimize import linear_sum_assignment

    truth, pred = _as_labels(truth, pred)
    table = contingency_table(truth, pred)
    # solved as it stands: min(rows, cols) pairs, no square of side max(rows, cols)
    rows, cols = linear_sum_assignment(-table)
    return float(table[rows, cols].sum()) / truth.shape[0]


def _xlogy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x, dtype=np.float64)
    mask = x > 0
    out[mask] = x[mask] * np.log(y[mask])
    return out


def nmi(truth, pred) -> float:
    """Mutual information normalized by the geometric mean of the entropies.

    Identical partitions give 1.0; if either side is a single cluster
    (zero entropy) the score is 0.0.
    """
    table = contingency_table(truth, pred).astype(np.float64)
    if _same_partition(table):
        return 1.0
    n = table.sum()
    a = table.sum(axis=1)
    b = table.sum(axis=0)
    if a.shape[0] < 2 or b.shape[0] < 2:
        return 0.0
    p = table / n
    outer = np.outer(a / n, b / n)
    mi = float(np.sum(_xlogy(p, np.where(p > 0, p / np.where(outer > 0, outer, 1.0), 1.0))))
    h_t = -float(np.sum(_xlogy(a / n, a / n)))
    h_p = -float(np.sum(_xlogy(b / n, b / n)))
    return max(0.0, mi) / np.sqrt(h_t * h_p)


def _pair_counts(table: np.ndarray):
    # exact integer pair counts so simple hand values come out exact
    comb = lambda v: int((v * (v - 1) // 2).sum())
    cells = table.astype(object)
    sum_cells = comb(cells)
    sum_truth = comb(table.sum(axis=1).astype(object))
    sum_pred = comb(table.sum(axis=0).astype(object))
    n = int(table.sum())
    total = n * (n - 1) // 2
    return sum_cells, sum_truth, sum_pred, total


def ari(truth, pred) -> float:
    """Adjusted Rand index.  Identical partitions give 1.0 (also when both
    are degenerate and the plain formula is 0/0)."""
    table = contingency_table(truth, pred)
    if _same_partition(table):
        return 1.0
    sum_cells, sum_truth, sum_pred, total = _pair_counts(table)
    # one final division over integer numerator and denominator keeps the
    # value exact whenever the true ratio is representable; the denominator is
    # sum_truth * (total - sum_pred) + sum_pred * (total - sum_truth), zero
    # only for identical partitions
    numerator = 2 * (sum_cells * total - sum_truth * sum_pred)
    denominator = total * (sum_truth + sum_pred) - 2 * sum_truth * sum_pred
    return numerator / denominator


def pairwise_f1(truth, pred) -> float:
    """F1 over same-cluster node pairs.  Identical partitions give 1.0."""
    table = contingency_table(truth, pred)
    if _same_partition(table):
        return 1.0
    sum_cells, sum_truth, sum_pred, _ = _pair_counts(table)
    return 2.0 * sum_cells / (sum_truth + sum_pred)


def completeness(truth, pred) -> float:
    """Completeness of truth classes under the prediction.

    One minus the conditional entropy of the truth given the prediction,
    normalized by the truth entropy.  Fixed conventions: 1.0 for
    identical partitions and whenever either side is a single cluster.
    """
    table = contingency_table(truth, pred).astype(np.float64)
    if _same_partition(table):
        return 1.0
    if table.shape[0] < 2 or table.shape[1] < 2:
        return 1.0
    n = table.sum()
    a = table.sum(axis=1)
    b = table.sum(axis=0)
    # sum_ij (n_ij/n) log(n_ij / b_j), zero cells contribute zero
    ratio = table / b[None, :]
    num = float(np.sum(_xlogy(table / n, np.where(table > 0, ratio, 1.0))))
    den = float(np.sum(_xlogy(a / n, a / n)))
    # for independent partitions num == den up to rounding
    return max(0.0, 1.0 - num / den)


def all_metrics(truth, pred) -> dict[str, float]:
    """The five reported scores as raw fractions."""
    return {
        "acc": accuracy(truth, pred),
        "nmi": nmi(truth, pred),
        "f1": pairwise_f1(truth, pred),
        "ari": ari(truth, pred),
        "cs": completeness(truth, pred),
    }
