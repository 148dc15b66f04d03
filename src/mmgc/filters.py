"""Dual-domain low-pass filtering of multimodal node embeddings.

The denoiser solves a reconstruction objective with two quadratic
smoothness penalties: one over the node graph (weight ``alpha``) and one
over a feature-affinity graph averaged across modalities (weight
``beta``).  The closed form is a pair of resolvent factors around the
embedding matrix; the runtime path truncates each resolvent's geometric
series at order ``t``.  Per-step contraction of the series is
``alpha / (alpha + 1)`` on the node side and ``beta / (beta + 1)`` on
the feature side.

This module also holds an extension of this repository that the paper's
abstract does not describe: with feature-domain denoising (FDD) on
(``beta > 0``), ``filter_attributes`` screens each modality's raw
attributes before projection and replaces every entry whose residual
against the node-filtered attributes is a z-score outlier of its column
(the screen, and the threshold, of ``diagnostics.zscore_outliers``) with
a filtered value that leaves the outlier out.  The smoothing above
cannot do this: its feature-domain pass multiplies every row by one
d x d matrix, so it spreads an entry-level spike over the row instead
of removing it.

The node-domain series, the bulk of the filter's cost, is linear and
acts on rows, so it commutes with the projections that act on columns.
``node_filter`` is the one routine that runs it: ``dual_filter`` is
``node_filter`` followed by the feature half, and a fit's setup runs it
once per modality in ``filter_attributes``, which also makes the repair,
so that each step's ``dual_filter`` and VJP run with alpha = 0, where
``node_filter`` hands its input back untouched.  The series runs on the
calling thread, one 64-column block at a time.  Every output entry is summed
in the same order whatever the block width, so the width changes no bit.
A second thread bought the series nothing: on 2 cores with one BLAS thread,
a fit's setup over the benchmark's planted-1k, planted-4k and nomod-16k
graphs took 11.4, 41.6 and 298 ms on one thread against 13.2, 51.2 and
297 ms with each block split in two (medians of 15 alternations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data import NormalizedOperators, check_field_types, laplacian
from .diagnostics import OUTLIER_TAU, zscore_outliers

_DENSE_LIMIT = 2000


@dataclass
class DualFilterConfig:
    alpha: float = 1.0    # node-domain smoothing strength, >= 0
    beta: float = 1.0     # feature-domain smoothing strength, >= 0
    t_layers: int = 10    # series truncation order, >= 1

    def validate(self) -> None:
        check_field_types(self)
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if self.t_layers < 1:
            raise ValueError("truncation order must be >= 1")


def feature_shift(z: np.ndarray) -> np.ndarray:
    """Build the feature-affinity shift operator for one modality.

    Columns of ``z`` are L2-normalized (zero columns stay zero), pairwise
    column dot products are scaled by 1/sqrt(n) and exponentiated, and
    the kernel is symmetrically normalized by its row sums.  The result
    is symmetric PSD with strictly positive entries; its dominant
    eigenvalue is exactly 1 with eigenvector sqrt(row sums).
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError("feature_shift expects a 2-d array")
    n, d = z.shape
    if d == 0 or n == 0:
        raise ValueError("feature_shift needs at least one row and one column")
    if not np.isfinite(z).all():
        raise ValueError("feature_shift input contains non-finite values")
    norms = np.linalg.norm(z, axis=0)
    safe = np.where(norms > 0, norms, 1.0)
    zn = z / safe
    # |dot| <= 1 after normalization, so the kernel argument is <= 1/sqrt(n)
    gram = (zn.T @ zn) / math.sqrt(n)
    kernel = np.exp(gram)
    row_sums = kernel.sum(axis=1)
    scale = 1.0 / np.sqrt(row_sums)
    s = kernel * scale[:, None] * scale[None, :]
    return (s + s.T) / 2.0


def _mean_shift(shifts: list[np.ndarray]) -> np.ndarray:
    if not shifts:
        raise ValueError("at least one feature shift operator is required")
    d = shifts[0].shape[0]
    for s in shifts:
        if s.shape != (d, d):
            raise ValueError("all shift operators must share one shape")
    out = np.zeros((d, d), dtype=np.float64)
    for s in shifts:
        out += np.asarray(s, dtype=np.float64)
    return out / len(shifts)


def _series(a_hat, y0: np.ndarray, coeff: float, t: int) -> np.ndarray:
    """sum_{s=0..t} (coeff * A)^s y0 in t >= 1 passes on one thread; A sparse or dense."""
    y = y0
    for _ in range(t):
        y = a_hat @ y
        y *= coeff
        y += y0
    return y


def dual_filter(
    a_hat,
    z: np.ndarray,
    shifts: list[np.ndarray],
    cfg: DualFilterConfig,
) -> np.ndarray:
    """Apply the truncated dual filter to the embedding matrix ``z``.

    Exactly linear in ``z`` for fixed shifts.  With alpha = beta = 0 the
    output equals ``z``.  The result is one new array, scaled in place;
    ``z`` is left as it is.
    """
    cfg.validate()
    z = np.asarray(z, dtype=np.float64)
    if z.shape[0] != a_hat.shape[0]:
        raise ValueError("row count of z must match the adjacency")
    s_bar = _mean_shift(shifts)
    if s_bar.shape[0] != z.shape[1]:
        raise ValueError("shift operators must match the embedding width")
    cb = cfg.beta / (cfg.beta + 1.0)
    right = _series(s_bar, np.eye(s_bar.shape[0]), cb, cfg.t_layers)
    out = node_filter(a_hat, z, cfg) @ right
    out *= 1.0 / (cfg.beta + 1.0)
    return out


# columns node-filtered or screened at once by node_filter and
# filter_attributes: bounds their scratch memory at a few n x 64 arrays
# whatever the attribute width
_REPAIR_COLUMNS = 64


def node_filter(a_hat, x: np.ndarray, cfg: DualFilterConfig) -> np.ndarray:
    """The node-domain half of the dual filter on its own:
    ``sum_{s=0..t} (ca * A)^s x / (alpha + 1)`` with ``ca = alpha / (alpha + 1)``.

    It acts on rows, so it commutes with any right factor: ``dual_filter`` of
    ``x @ W`` equals, up to rounding, ``dual_filter`` of ``node_filter(x) @ W``
    with alpha set to 0.  With alpha = 0 the series is the identity and
    ``x`` itself comes back: no pass runs and nothing is copied.  Otherwise
    the result is a new array, made 64 (``_REPAIR_COLUMNS``) columns at a
    time on the csr form of ``a_hat``.  Each column is summed in the same
    order whatever the other columns.
    """
    if cfg.alpha == 0.0:
        return x
    a_hat = sp.csr_matrix(a_hat)  # a csr input's arrays are shared, not copied
    ca = cfg.alpha / (cfg.alpha + 1.0)
    out = np.empty(x.shape, dtype=np.float64)
    for start in range(0, x.shape[1], _REPAIR_COLUMNS):
        cols = slice(start, start + _REPAIR_COLUMNS)
        out[:, cols] = _series(a_hat, x[:, cols], ca, cfg.t_layers)
    out /= cfg.alpha + 1.0
    return out


@dataclass
class RepairReport:
    """What ``filter_attributes`` repaired in one modality."""

    entries_replaced: int
    sparse_columns: int  # left alone: half or more of the entries share one value


def filter_attributes(
    a_hat, x: np.ndarray, cfg: DualFilterConfig
) -> tuple[np.ndarray, RepairReport]:
    """Repair one modality's raw attributes in place; return their node
    filter ``xf`` and what the repair did.

    ``x`` is a float64 array.  ``xf = node_filter(x)`` is built first and is
    the repair's estimate: the node-domain half of the dual filter works
    column by column at O(t * nnz(A)) per column; the feature domain is left
    out because its kernel alone costs O(n * d^2).  An entry whose residual
    ``x - xf`` lies more than ``OUTLIER_TAU`` population standard deviations
    from its column's mean residual is replaced.  Its replacement is the
    same filter applied once more with the flagged entries set to their
    column median, so that it does not carry the outlier itself; the
    repaired columns are then filtered again into ``xf``.  Columns whose
    residual is constant are skipped, and so are sparse or discrete
    columns, those whose median absolute deviation is zero: there at least
    half of the entries share one value, the rare values are the signal and
    a z-screen would flag them all.  Nothing is repaired when
    ``cfg.beta == 0`` (FDD off) or ``cfg.alpha == 0`` (then ``xf`` is ``x``).
    """
    cfg.validate()
    if x.shape[0] != a_hat.shape[0]:
        raise ValueError("row count of x must match the adjacency")
    report = RepairReport(entries_replaced=0, sparse_columns=0)
    xf = node_filter(a_hat, x, cfg)
    if cfg.beta == 0.0 or cfg.alpha == 0.0:
        return xf, report
    for start in range(0, x.shape[1], _REPAIR_COLUMNS):
        span = slice(start, start + _REPAIR_COLUMNS)
        block = x[:, span]
        median = np.median(block, axis=0)
        dense = np.median(np.abs(block - median), axis=0) > 0.0
        report.sparse_columns += int((~dense).sum())
        mask = zscore_outliers(block - xf[:, span], tau=OUTLIER_TAU).entry_mask & dense
        hit = mask.any(axis=0)
        if not hit.any():
            continue
        report.entries_replaced += int(mask.sum())
        # xf still carries each outlier through the series' s = 0 term:
        # filter the hit columns again with their outliers at the column median
        cols, flagged = block[:, hit], mask[:, hit]
        cols[flagged] = np.broadcast_to(median[hit], cols.shape)[flagged]
        cols[flagged] = node_filter(a_hat, cols, cfg)[flagged]
        block[:, hit] = cols
        xf[:, start + np.flatnonzero(hit)] = node_filter(a_hat, cols, cfg)
    return xf, report


def dual_filter_vjp(
    a_hat,
    grad_h: np.ndarray,
    shifts: list[np.ndarray],
    cfg: DualFilterConfig,
) -> np.ndarray:
    """Pull a gradient on the filter output back to the input embedding.

    Both series factors are symmetric polynomials, so the adjoint is the
    same operator pair applied to the incoming gradient (shifts treated
    as constants).
    """
    return dual_filter(a_hat, grad_h, shifts, cfg)


def exact_solution(
    a_hat, z: np.ndarray, shifts: list[np.ndarray], cfg: DualFilterConfig
) -> np.ndarray:
    """Dense closed form of the dual filter via two linear solves.

    Reference oracle for small instances (n <= 2000).  The output
    composes the two single-domain denoising solutions sequentially
    (feature side, then node side); it is the infinite-series limit of
    dual_filter, and the stationary point of each sub-problem rather
    than of the jointly penalized objective, whose first-order condition
    couples the domains through an alpha*beta cross term.
    """
    cfg.validate()
    n = a_hat.shape[0]
    if n > _DENSE_LIMIT:
        raise ValueError(f"exact_solution is limited to n <= {_DENSE_LIMIT}")
    z = np.asarray(z, dtype=np.float64)
    s_bar = _mean_shift(shifts)
    a_dense = a_hat.toarray() if sp.issparse(a_hat) else np.asarray(a_hat, np.float64)
    ca = cfg.alpha / (cfg.alpha + 1.0)
    cb = cfg.beta / (cfg.beta + 1.0)
    prefactor = 1.0 / ((cfg.alpha + 1.0) * (cfg.beta + 1.0))
    left = np.linalg.solve(np.eye(n) - ca * a_dense, z)
    # the right factor is symmetric, so solving on the transpose is exact
    right = np.linalg.solve(np.eye(s_bar.shape[0]) - cb * s_bar, left.T).T
    return prefactor * right


def exact_response(alpha: float, lam):
    """Steady-state per-eigenvalue gain 1 / (1 + alpha * lam)."""
    lam = np.asarray(lam, dtype=np.float64)
    out = 1.0 / (1.0 + alpha * lam)
    return float(out) if out.ndim == 0 else out


def spectral_response(alpha: float, t: int, lam):
    """Per-eigenvalue gain of the order-``t`` truncated node filter.

    Equals the steady-state gain times ``1 - (alpha (1 - lam) / (alpha + 1))^(t+1)``;
    the absolute gap to steady state shrinks by at most alpha/(alpha+1)
    per added order, uniformly over lam in [0, 2].
    """
    if t < 0:
        raise ValueError("truncation order must be >= 0")
    lam = np.asarray(lam, dtype=np.float64)
    base = alpha * (1.0 - lam) / (alpha + 1.0)
    out = (1.0 - base ** (t + 1)) / (1.0 + alpha * lam)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# dense spectral verification


@dataclass
class SpectraReport:
    """Dense spectral diagnostics for one dataset and filter setting."""

    alpha: float
    beta: float
    t_layers: int
    node_eigenvalues: np.ndarray
    node_response_exact: np.ndarray
    node_response_truncated: np.ndarray
    feature_eigenvalues: np.ndarray
    truncation_errors: np.ndarray  # index T-1 holds the order-T response error
    truncation_bounds: np.ndarray
    energy_node_domain: float
    energy_spectral_domain: float
    checks: dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("lambda,response_exact,response_truncated,error\n")
            for lam, exact, trunc in zip(
                self.node_eigenvalues,
                self.node_response_exact,
                self.node_response_truncated,
            ):
                fh.write(f"{lam:.17g},{exact:.17g},{trunc:.17g},{abs(trunc - exact):.17g}\n")

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "t_layers": self.t_layers,
            "checks": dict(self.checks),
            "passed": self.passed,
            "node_eigenvalue_range": [
                float(self.node_eigenvalues.min()),
                float(self.node_eigenvalues.max()),
            ],
            "feature_eigenvalue_range": [
                float(self.feature_eigenvalues.min()),
                float(self.feature_eigenvalues.max()),
            ],
            "truncation_errors": [float(v) for v in self.truncation_errors],
            "truncation_bounds": [float(v) for v in self.truncation_bounds],
            "energy_node_domain": self.energy_node_domain,
            "energy_spectral_domain": self.energy_spectral_domain,
        }


def spectra_report(
    ops: NormalizedOperators,
    h: np.ndarray,
    shifts: list[np.ndarray],
    cfg: DualFilterConfig,
    t_max: int = 30,
) -> SpectraReport:
    """Eigendecompose both operator domains and verify the filter's behavior
    on ``h``, an embedding that ``dual_filter`` has already filtered.

    Checks recorded (all must hold for ``passed``):

    * node/feature steady-state responses are non-increasing in eigenvalue;
    * at order ``cfg.t_layers``, the response gap to steady state is within the
      geometric tail bound pointwise over the node spectrum;
    * the max response gap over orders 1..t_max is non-increasing and
      below the tail bound at every order;
    * the node smoothness quadratic form of ``h`` equals its spectral-domain
      energy (relative gap <= 1e-8);
    * the scaled mean feature shift has dominant eigenvalue <= beta/(beta+1).
    """
    cfg.validate()
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    n = ops.a_hat.shape[0]
    if n > _DENSE_LIMIT:
        raise ValueError(f"spectra_report is limited to n <= {_DENSE_LIMIT}")
    s_bar = _mean_shift(shifts)
    if np.shape(h) != (n, s_bar.shape[0]):
        raise ValueError(f"h must have shape {(n, s_bar.shape[0])}, got {np.shape(h)}")
    lap = laplacian(ops).toarray()
    lam, vecs = np.linalg.eigh((lap + lap.T) / 2.0)
    lam_clipped = np.clip(lam, 0.0, None)

    node_exact = exact_response(cfg.alpha, lam)
    node_trunc = spectral_response(cfg.alpha, cfg.t_layers, lam)

    omega = np.linalg.eigvalsh(np.eye(s_bar.shape[0]) - s_bar)

    ratio = cfg.alpha / (cfg.alpha + 1.0)
    gap_terms = np.abs(1.0 - lam)  # <= 1 over the Laplacian spectrum
    errors = np.empty(t_max, dtype=np.float64)
    bounds = np.empty(t_max, dtype=np.float64)
    for order in range(1, t_max + 1):
        errors[order - 1] = np.max(
            np.abs(spectral_response(cfg.alpha, order, lam) - node_exact)
        )
        bounds[order - 1] = ratio ** (order + 1) * np.max(
            gap_terms ** (order + 1) * node_exact
        )

    energy_node = cfg.alpha * float(np.trace(h.T @ (lap @ h)))
    proj = vecs.T @ h
    energy_spec = cfg.alpha * float(np.sum(lam_clipped[:, None] * proj**2))
    energy_scale = max(abs(energy_node), abs(energy_spec), 1e-30)

    trunc_bound = node_exact * ratio ** (cfg.t_layers + 1)
    # the eigenvalues of s_bar are 1 - omega
    shift_top = cfg.beta / (cfg.beta + 1.0) * float(np.max(1.0 - omega))

    checks = {
        "node_response_non_increasing": bool(
            np.all(np.diff(node_exact) <= 1e-12)
        ),
        "feature_response_non_increasing": bool(
            np.all(np.diff(exact_response(cfg.beta, np.sort(omega))) <= 1e-12)
        ),
        "truncation_within_pointwise_bound": bool(
            np.all(np.abs(node_trunc - node_exact) <= trunc_bound + 1e-12)
        ),
        "truncation_errors_non_increasing": bool(
            np.all(np.diff(errors) <= 1e-15)
        ),
        "truncation_errors_below_tail_bound": bool(
            np.all(errors <= bounds + 1e-12)
        ),
        "energy_identity": bool(
            abs(energy_node - energy_spec) <= 1e-8 * energy_scale
        ),
        "feature_shift_contraction": bool(
            shift_top <= cfg.beta / (cfg.beta + 1.0) + 1e-6
        ),
    }
    return SpectraReport(
        alpha=cfg.alpha,
        beta=cfg.beta,
        t_layers=cfg.t_layers,
        node_eigenvalues=lam,
        node_response_exact=node_exact,
        node_response_truncated=node_trunc,
        feature_eigenvalues=omega,
        truncation_errors=errors,
        truncation_bounds=bounds,
        energy_node_domain=energy_node,
        energy_spectral_domain=energy_spec,
        checks=checks,
    )
