"""Dataset diagnostics: cross-modal dependence and feature outlier scans.

Importing this module loads numpy only.  ``distance_correlation`` imports
``scipy.spatial`` (and with it ``scipy.linalg``) at its first call, so a
fit, which uses the outlier scan alone, never loads them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_DCOR_ROW_CAP = 4000  # rows distance_correlation keeps; above it, a seed-0 subsample

# z-score beyond which an entry counts as feature-wise noise; shared by
# the outlier scan and by the feature-domain repair in filters.py
OUTLIER_TAU = 4.0


def _double_centered_distances(x: np.ndarray) -> np.ndarray:
    """The distance matrix minus its row and column means plus its mean,
    centred in place so that no full-size temporary is made."""
    # imported here: scipy.spatial, with scipy.linalg, adds about 16 MB to a process
    from scipy.spatial.distance import pdist, squareform

    d = squareform(pdist(x, metric="euclidean"))
    row_means = d.mean(axis=1, keepdims=True)
    col_means = d.mean(axis=0, keepdims=True)
    mean = d.mean()
    d -= row_means
    d -= col_means
    d += mean
    return d


def distance_correlation(x, y) -> float:
    """Distance correlation between two row-aligned samples.

    Rows are observations; both inputs must have the same row count.
    Above ``_DCOR_ROW_CAP`` (4000) rows, one shared subsample of that many
    rows, drawn with seed 0, keeps the quadratic cost bounded.  Returns
    0.0 when either sample has zero distance variance (constant rows).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if y.ndim == 1:
        y = y[:, None]
    if x.shape[0] != y.shape[0]:
        raise ValueError("inputs must have the same number of rows")
    n = x.shape[0]
    if n < 2:
        return 0.0
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("distance_correlation inputs must be finite")
    if n > _DCOR_ROW_CAP:
        keep = np.random.default_rng(0).choice(n, size=_DCOR_ROW_CAP, replace=False)
        keep.sort()
        x = x[keep]
        y = y[keep]
    a = _double_centered_distances(x)
    b = _double_centered_distances(y)
    dcov2 = float((a * b).mean())
    dvar_x = float((a * a).mean())
    dvar_y = float((b * b).mean())
    if dvar_x <= 0.0 or dvar_y <= 0.0:
        return 0.0
    return float(np.sqrt(max(0.0, dcov2) / np.sqrt(dvar_x * dvar_y)))


@dataclass
class OutlierReport:
    """Per-modality z-score outlier scan (population standard deviations).

    Node-domain percentages are over rows, feature-domain over columns.
    """

    tau: float
    n_rows: int
    n_cols: int
    entry_mask: np.ndarray  # boolean (n_rows, n_cols), True where |z| > tau
    rows_flagged: int
    cols_flagged: int
    entries_flagged: int
    cols_skipped: int  # constant columns, excluded from the scan
    modality: str = ""

    @property
    def pct_nodes_with_outlier(self) -> float:
        return 100.0 * self.rows_flagged / self.n_rows if self.n_rows else 0.0

    @property
    def pct_features_with_outlier(self) -> float:
        return 100.0 * self.cols_flagged / self.n_cols if self.n_cols else 0.0

    def to_json_dict(self) -> dict:
        return {
            "modality": self.modality,
            "tau": self.tau,
            "rows": self.n_rows,
            "cols": self.n_cols,
            "rows_flagged": self.rows_flagged,
            "cols_flagged": self.cols_flagged,
            "entries_flagged": self.entries_flagged,
            "cols_skipped": self.cols_skipped,
            "pct_nodes_with_outlier": self.pct_nodes_with_outlier,
            "pct_features_with_outlier": self.pct_features_with_outlier,
        }


def zscore_outliers(x, tau: float = OUTLIER_TAU, modality: str = "") -> OutlierReport:
    """Flag entries more than ``tau`` population standard deviations from
    their column mean.  Constant columns are skipped entirely."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("zscore_outliers expects a 2-d array")
    if not (np.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be finite and positive, got {tau}")
    mean = x.mean(axis=0)
    std = x.std(axis=0)  # population (ddof=0)
    live = std > 0.0
    z = np.zeros_like(x)
    z[:, live] = (x[:, live] - mean[live]) / std[live]
    mask = np.abs(z) > tau
    return OutlierReport(
        tau=float(tau),
        n_rows=x.shape[0],
        n_cols=x.shape[1],
        entry_mask=mask,
        rows_flagged=int(mask.any(axis=1).sum()),
        cols_flagged=int(mask.any(axis=0).sum()),
        entries_flagged=int(mask.sum()),
        cols_skipped=int((~live).sum()),
        modality=modality,
    )
