"""Synthetic multimodal graphs with planted cluster structure.

Edges follow a planted partition model.  Each modality observes the
cluster identity through its own random linear map of a latent code;
``cross_modal_correlation`` interpolates between fully shared codes
(modalities agree) and fully independent ones.  Optional spike noise
plants entry-level outliers ten population deviations from the column
mean, which the z-score screen is expected to recover.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import (
    ModalityFeatures,
    MultimodalGraph,
    check_field_types,
    save_dataset,
    symmetric_adjacency,
)

_LATENT_DIM = 64
_SPIKE_SCALE = 10.0
_NAME_RE = re.compile(r"^[A-Za-z0-9_\-]+$")


@dataclass
class ModalitySpec:
    name: str
    dim: int
    signal_strength: float = 1.0
    noise_sigma: float = 1.0


@dataclass
class SynthConfig:
    n: int
    k: int
    p_in: float
    p_out: float
    modalities: list[ModalitySpec]
    outlier_rate: float = 0.0
    cross_modal_correlation: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        check_field_types(self)
        for m in self.modalities:
            check_field_types(m)
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 1 <= self.k <= self.n:
            raise ValueError("k must lie in [1, n]")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.p_in <= self.p_out:
            warnings.warn(
                "p_in <= p_out gives no informative cluster structure",
                stacklevel=2,
            )
        for nm, p in (("p_in", self.p_in), ("p_out", self.p_out)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{nm} must lie in [0, 1]")
        if not 0.0 <= self.outlier_rate < 1.0:
            raise ValueError("outlier_rate must lie in [0, 1)")
        if not 0.0 <= self.cross_modal_correlation <= 1.0:
            raise ValueError("cross_modal_correlation must lie in [0, 1]")
        if not self.modalities:
            raise ValueError("at least one modality is required")
        names = [m.name for m in self.modalities]
        if len(set(names)) != len(names):
            raise ValueError("modality names must be unique")
        for m in self.modalities:
            if not _NAME_RE.match(m.name):
                raise ValueError(f"modality name {m.name!r} is not filesystem safe")
            if m.dim < 1:
                raise ValueError("modality dim must be >= 1")
            for nm in ("signal_strength", "noise_sigma"):
                value = getattr(m, nm)
                if not (math.isfinite(value) and value >= 0):
                    raise ValueError(
                        f"modality {m.name!r}: {nm} must be finite and "
                        f"non-negative, got {value}"
                    )


@dataclass
class SynthSummary:
    manifest: Path
    n_edges: int
    labels: np.ndarray
    spikes: dict[str, np.ndarray] = field(default_factory=dict)  # (k, 2) row/col


def _planted_edges(labels: np.ndarray, p_in: float, p_out: float,
                   rng: np.random.Generator):
    n = labels.shape[0]
    rows, cols = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for i in range(n - 1):
        js = np.arange(i + 1, n)
        p = np.where(labels[js] == labels[i], p_in, p_out)
        hit = js[rng.random(js.shape[0]) < p]
        if hit.size:
            rows.append(np.full(hit.size, i))
            cols.append(hit)
    return symmetric_adjacency(n, np.concatenate(rows), np.concatenate(cols))


def _unit_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.where(norms > 0, norms, 1.0)


def generate(cfg: SynthConfig, out_dir: str | Path) -> SynthSummary:
    """Sample a dataset and write it under ``out_dir``; returns ground truth."""
    cfg.validate()
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed)]))

    labels = rng.permutation(np.arange(cfg.n, dtype=np.int64) % cfg.k)
    adj = _planted_edges(labels, cfg.p_in, cfg.p_out, rng)

    rho = cfg.cross_modal_correlation
    shared = rng.standard_normal((cfg.k, _LATENT_DIM))
    modalities = []
    spikes: dict[str, np.ndarray] = {}
    for spec in cfg.modalities:
        own = rng.standard_normal((cfg.k, _LATENT_DIM))
        codes = _unit_rows(rho * shared + (1.0 - rho) * own)
        proj = rng.standard_normal((_LATENT_DIM, spec.dim)) / np.sqrt(_LATENT_DIM)
        x = codes[labels] @ proj * spec.signal_strength
        x += rng.standard_normal((cfg.n, spec.dim)) * spec.noise_sigma

        coords = np.empty((0, 2), dtype=np.int64)
        if cfg.outlier_rate > 0.0:
            mask = rng.random((cfg.n, spec.dim)) < cfg.outlier_rate
            if mask.any():
                # column stats taken before spiking so deviations are 10 sigma
                mu = x.mean(axis=0)
                sigma = x.std(axis=0)
                sigma = np.where(sigma > 0, sigma, 1.0)
                r_idx, c_idx = np.nonzero(mask)
                signs = rng.choice([-1.0, 1.0], size=r_idx.size)
                x[r_idx, c_idx] = mu[c_idx] + signs * _SPIKE_SCALE * sigma[c_idx]
                coords = np.column_stack([r_idx, c_idx]).astype(np.int64)
        spikes[spec.name] = coords
        modalities.append(ModalityFeatures(spec.name, x.astype(np.float32)))

    graph = MultimodalGraph(edges=adj, modalities=modalities, labels=labels)
    manifest = save_dataset(graph, out_dir, clusters=cfg.k)
    return SynthSummary(
        manifest=manifest,
        n_edges=int(adj.nnz // 2),
        labels=labels,
        spikes=spikes,
    )
