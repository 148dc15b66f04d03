"""Synthetic dataset generator: structure, determinism, and planted noise."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph

from mmgc.data import load_dataset
from mmgc.datagen import ModalitySpec, SynthConfig, generate
from mmgc.diagnostics import distance_correlation, zscore_outliers


def _spec(n=60, k=3, p_in=0.6, p_out=0.02, **kwargs):
    mods = kwargs.pop(
        "modalities",
        [ModalitySpec("text", 12), ModalitySpec("image", 8)],
    )
    return SynthConfig(n=n, k=k, p_in=p_in, p_out=p_out, modalities=mods, **kwargs)


# ------------------------------------------------------------------ validation

@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 0},
        {"k": 0},
        {"k": 100, "n": 10},
        {"p_in": 1.5},
        {"p_out": -0.1},
        {"outlier_rate": 1.0},
        {"outlier_rate": -0.5},
        {"cross_modal_correlation": 1.5},
        {"modalities": []},
        {"modalities": [ModalitySpec("a", 4), ModalitySpec("a", 4)]},
        {"modalities": [ModalitySpec("a/b", 4)]},
        {"modalities": [ModalitySpec("a", 0)]},
        {"modalities": [ModalitySpec("a", 4, noise_sigma=-1.0)]},
        {"modalities": [ModalitySpec("a", 4, noise_sigma=float("nan"))]},
        {"modalities": [ModalitySpec("a", 4, noise_sigma=float("inf"))]},
        {"modalities": [ModalitySpec("a", 4, signal_strength=float("nan"))]},
        {"modalities": [ModalitySpec("a", 4, signal_strength=float("inf"))]},
        {"seed": -1},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        _spec(**kwargs).validate()


@pytest.mark.parametrize("kwargs, name", [
    ({"seed": 1.5}, "seed"),
    ({"n": 30.5}, "n"),
    ({"k": True}, "k"),
    ({"modalities": [ModalitySpec("a", 4.5)]}, "dim"),
    ({"modalities": [ModalitySpec("a", True)]}, "dim"),
], ids=["seed-float", "n-float", "k-bool", "dim-float", "dim-bool"])
def test_config_refuses_an_int_field_of_the_wrong_type(kwargs, name):
    """``seed=1.5`` would draw as seed 1 and ``n=30.5`` fail inside numpy;
    validation names the field instead."""
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        _spec(**kwargs).validate()


def test_config_takes_numpy_integers():
    _spec(n=np.int64(60), k=np.int32(3), seed=np.uint8(2),
          modalities=[ModalitySpec("a", np.int64(4))]).validate()


def test_uninformative_probabilities_warn():
    with pytest.warns(UserWarning, match="no informative"):
        _spec(p_in=0.01, p_out=0.05).validate()


def test_dashes_and_underscores_in_names_allowed():
    _spec(modalities=[ModalitySpec("bag-of_words2", 4)]).validate()


# ---------------------------------------------------------------- determinism

def test_generation_is_byte_identical(tmp_path):
    cfg = _spec(seed=11, outlier_rate=0.01)
    s1 = generate(cfg, tmp_path / "a")
    s2 = generate(cfg, tmp_path / "b")
    assert s1.n_edges == s2.n_edges
    assert np.array_equal(s1.labels, s2.labels)
    for name in ("manifest.txt", "edges.txt", "labels.txt",
                 "text.features.bin", "image.features.bin"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


def test_seed_changes_output(tmp_path):
    a = generate(_spec(seed=0), tmp_path / "a")
    b = generate(_spec(seed=1), tmp_path / "b")
    assert not np.array_equal(a.labels, b.labels) or a.n_edges != b.n_edges


# ------------------------------------------------------------ graph structure

def test_labels_are_balanced(tmp_path):
    summary = generate(_spec(n=61, k=4), tmp_path)
    counts = np.bincount(summary.labels, minlength=4)
    assert sorted(counts.tolist()) == [15, 15, 15, 16]


def test_isolated_communities_when_p_out_zero(tmp_path):
    summary = generate(_spec(n=60, k=3, p_in=0.5, p_out=0.0, seed=2), tmp_path)
    graph, clusters = load_dataset(summary.manifest)
    n_comp, comp = csgraph.connected_components(graph.edges, directed=False)
    assert n_comp == 3
    # components align exactly with the planted labels
    for c in range(n_comp):
        assert len(set(summary.labels[comp == c].tolist())) == 1


def test_edge_count_near_expectation(tmp_path):
    n, k, p_in, p_out = 400, 4, 0.05, 0.005
    summary = generate(_spec(n=n, k=k, p_in=p_in, p_out=p_out, seed=3), tmp_path)
    counts = np.bincount(summary.labels, minlength=k)
    pairs_in = float((counts * (counts - 1) // 2).sum())
    pairs_out = n * (n - 1) / 2.0 - pairs_in
    mean = p_in * pairs_in + p_out * pairs_out
    var = pairs_in * p_in * (1 - p_in) + pairs_out * p_out * (1 - p_out)
    assert abs(summary.n_edges - mean) <= 5.0 * np.sqrt(var)


def test_roundtrip_through_manifest(tmp_path):
    cfg = _spec(n=40, k=2, seed=5)
    summary = generate(cfg, tmp_path)
    graph, clusters = load_dataset(summary.manifest)
    assert clusters == 2
    assert graph.n_nodes == 40
    assert [m.name for m in graph.modalities] == ["text", "image"]
    assert graph.modalities[0].x.shape == (40, 12)
    assert graph.modalities[0].x.dtype == np.float32
    assert np.array_equal(graph.labels, summary.labels)
    assert graph.edges.nnz == 2 * summary.n_edges


def test_single_cluster_dataset(tmp_path):
    summary = generate(_spec(n=12, k=1, p_in=0.5, p_out=0.0), tmp_path)
    assert np.all(summary.labels == 0)


# ------------------------------------------------------------- feature model

def test_perfect_correlation_couples_modalities(tmp_path):
    cfg = _spec(
        n=300, k=4, seed=6,
        modalities=[
            ModalitySpec("text", 16, noise_sigma=0.0),
            ModalitySpec("image", 10, noise_sigma=0.0),
        ],
        cross_modal_correlation=1.0,
    )
    summary = generate(cfg, tmp_path)
    graph, _ = load_dataset(summary.manifest)
    value = distance_correlation(
        graph.modalities[0].x.astype(np.float64),
        graph.modalities[1].x.astype(np.float64),
    )
    assert value >= 0.9


def test_independent_codes_report_low_coupling(tmp_path):
    # the biased dependence estimator needs a reasonable sample size before
    # independent modalities drop below the reporting threshold
    cfg = _spec(
        n=1000, k=4, seed=7,
        modalities=[
            ModalitySpec("text", 16, noise_sigma=1.0),
            ModalitySpec("image", 10, noise_sigma=1.0),
        ],
        cross_modal_correlation=0.0,
    )
    summary = generate(cfg, tmp_path)
    graph, _ = load_dataset(summary.manifest)
    value = distance_correlation(
        graph.modalities[0].x.astype(np.float64),
        graph.modalities[1].x.astype(np.float64),
    )
    assert value < 0.3


def test_zero_rate_plants_no_spikes(tmp_path):
    summary = generate(_spec(seed=8), tmp_path)
    assert all(v.shape == (0, 2) for v in summary.spikes.values())


def test_spike_population_and_recovery(tmp_path):
    rate, n, d = 0.01, 2000, 50
    cfg = SynthConfig(
        n=n, k=4, p_in=0.05, p_out=0.005,
        modalities=[ModalitySpec("feat", d)],
        outlier_rate=rate, seed=9,
    )
    summary = generate(cfg, tmp_path)
    coords = summary.spikes["feat"]

    total = n * d
    mean, sd = total * rate, np.sqrt(total * rate * (1 - rate))
    assert abs(coords.shape[0] - mean) <= 5.0 * sd

    graph, _ = load_dataset(summary.manifest)
    x = graph.modalities["feat"].x if isinstance(graph.modalities, dict) \
        else graph.modalities[0].x
    report = zscore_outliers(x.astype(np.float64), tau=4.0)
    hit = report.entry_mask[coords[:, 0], coords[:, 1]]
    assert hit.mean() > 0.95
    assert report.cols_skipped == 0


def test_spiked_entries_sit_ten_sigma_out(tmp_path):
    cfg = SynthConfig(
        n=500, k=2, p_in=0.1, p_out=0.01,
        modalities=[ModalitySpec("feat", 6)],
        outlier_rate=0.004, seed=10,
    )
    # reconstruct the clean matrix from a spike-free twin with the same seed
    clean_cfg = SynthConfig(
        n=500, k=2, p_in=0.1, p_out=0.01,
        modalities=[ModalitySpec("feat", 6)],
        outlier_rate=0.0, seed=10,
    )
    spiked = generate(cfg, tmp_path / "spiked")
    clean = generate(clean_cfg, tmp_path / "clean")
    xs, _ = load_dataset(spiked.manifest)
    xc, _ = load_dataset(clean.manifest)
    a = xs.modalities[0].x.astype(np.float64)
    b = xc.modalities[0].x.astype(np.float64)
    coords = spiked.spikes["feat"]
    assert coords.shape[0] > 0

    mu = b.mean(axis=0)
    sigma = b.std(axis=0)
    z = (a[coords[:, 0], coords[:, 1]] - mu[coords[:, 1]]) / sigma[coords[:, 1]]
    # ten pre-spike population deviations, up to float32 storage rounding
    assert np.allclose(np.abs(z), 10.0, atol=1e-3)

    untouched = np.ones(a.shape, dtype=bool)
    untouched[coords[:, 0], coords[:, 1]] = False
    assert np.array_equal(a[untouched], b[untouched])
