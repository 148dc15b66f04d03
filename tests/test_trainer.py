"""Training loop, parameter initialization, and gradient verification."""

from __future__ import annotations

import json
import math
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from mmgc import cli, filters, kmeans, trainer
from mmgc.data import (
    ModalityFeatures,
    MultimodalGraph,
    induce_subgraph,
    load_dataset,
    normalize_adjacency,
    symmetric_adjacency,
)
from mmgc.datagen import ModalitySpec, SynthConfig, generate
from mmgc.trainer import (
    Adam,
    ModelParams,
    TrainConfig,
    end_to_end_gradient_check,
    fit,
    forward,
    init_params,
    loss_gradient_checks,
)

from helpers import random_graph, rel_frobenius


# ------------------------------------------------------------- configuration

def test_train_config_defaults():
    cfg = TrainConfig()
    assert cfg.alpha == 1.0 and cfg.beta == 1.0 and cfg.t_layers == 10
    assert cfg.theta == 0.3 and cfg.delta == 0.1
    assert cfg.walk_length == 10
    assert cfg.lr == 1e-3 and cfg.weight_decay == 1e-5
    assert cfg.epochs == 100 and cfg.kmeans_interval == 5
    assert cfg.hidden_dim == 64 and trainer._IMPOSTOR_CAP == 256
    cfg.validate()


def test_filter_config_respects_fdd_switch():
    cfg = TrainConfig(alpha=2.0, beta=3.0, no_fdd=True)
    fc = cfg.filter_config()
    assert fc.alpha == 2.0 and fc.beta == 0.0
    assert TrainConfig(beta=3.0).filter_config().beta == 3.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"hidden_dim": 0},
        {"epochs": 0},
        {"lr": 0.0},
        {"kmeans_interval": 0},
        {"theta": 0.0},
        {"theta": 1.5},
        {"walk_length": 0},
        {"alpha": -1.0},
        {"t_layers": 0},
        {"weight_decay": -1.0},
        {"seed": -1},
    ],
)
def test_train_config_validation(kwargs):
    with pytest.raises(ValueError):
        TrainConfig(**kwargs).validate()


_INT_FIELDS = ("t_layers", "walk_length", "epochs", "kmeans_interval", "hidden_dim", "seed")
_SWITCHES = ("no_fdd", "no_mod_loss", "no_nbr_loss", "no_aas", "no_comm_loss", "no_hps")


@pytest.mark.parametrize("name, value", [
    *[(name, value) for name in _INT_FIELDS for value in (2.5, True)],
    *[(name, "false") for name in _SWITCHES],
    ("no_fdd", 0),
])
def test_train_config_refuses_a_field_of_the_wrong_type(name, value):
    """An int field takes an integer that is not a bool, and a switch a bool:
    ``seed=1.5`` would train as seed 1 and ``no_fdd="false"`` would turn FDD
    off."""
    with pytest.raises(ValueError, match=f"^{name} must be"):
        TrainConfig(**{name: value}).validate()


def test_train_config_takes_numpy_integers():
    TrainConfig(seed=np.int64(3), epochs=np.int32(2), t_layers=np.uint8(4)).validate()


# ------------------------------------------------------------ initialization

def test_init_params_shapes_and_bounds():
    params = init_params([6, 4], hidden_dim=8, seed=0)
    assert [w.shape for w in params.weights] == [(6, 8), (4, 8)]
    assert params.combine_logits.shape == (2,)
    assert np.all(params.combine_logits == 0.0)
    for w, d in zip(params.weights, (6, 4)):
        bound = math.sqrt(6.0 / (d + 8))
        assert np.all(np.abs(w) <= bound)
        # a uniform draw this size should fill most of the interval
        assert w.max() > 0.5 * bound and w.min() < -0.5 * bound


def test_init_params_deterministic():
    a = init_params([5], 4, seed=3)
    b = init_params([5], 4, seed=3)
    c = init_params([5], 4, seed=4)
    assert np.array_equal(a.weights[0], b.weights[0])
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_model_params_copy_is_deep():
    params = init_params([3], 2, seed=0)
    clone = params.copy()
    clone.weights[0][0, 0] += 1.0
    clone.combine_logits[0] += 1.0
    assert params.weights[0][0, 0] != clone.weights[0][0, 0]
    assert params.combine_logits[0] != clone.combine_logits[0]


# ------------------------------------------------------------------- forward

def test_forward_shapes(small_graph):
    cfg = TrainConfig(hidden_dim=8)
    params = init_params([6, 4], 8, seed=0)
    ops, cache = forward(small_graph, params, cfg)
    n = small_graph.n_nodes
    assert ops.a_hat.shape == (n, n)
    assert len(cache.z_list) == 2 and len(cache.s_list) == 2
    assert all(zi.shape == (n, 8) for zi in cache.z_list)
    assert all(si.shape == (8, 8) for si in cache.s_list)
    assert cache.h.shape == (n, 8)


def test_forward_zero_logits_average_modalities(small_graph):
    # with the filter disabled, h is the mix of the projections
    cfg = TrainConfig(hidden_dim=8, alpha=0.0, no_fdd=True)
    params = init_params([6, 4], 8, seed=1)
    cache = forward(small_graph, params, cfg)[1]
    assert np.array_equal(cache.combine_weights, [0.5, 0.5])
    assert np.allclose(cache.h, 0.5 * (cache.z_list[0] + cache.z_list[1]), atol=1e-12)


def test_forward_single_modality_mix_is_identity(small_graph):
    solo = type(small_graph)(
        edges=small_graph.edges,
        modalities=[small_graph.modalities[0]],
        labels=None,
    )
    cfg = TrainConfig(hidden_dim=8, alpha=0.0, no_fdd=True)
    params = init_params([6], 8, seed=0)
    cache = forward(solo, params, cfg)[1]
    assert np.array_equal(cache.combine_weights, [1.0])
    assert np.allclose(cache.h, cache.z_list[0], atol=1e-14)


def test_forward_disabled_filter_is_identity(small_graph):
    cfg = TrainConfig(hidden_dim=8, alpha=0.0, no_fdd=True)
    params = init_params([6, 4], 8, seed=0)
    cache = forward(small_graph, params, cfg)[1]
    w = cache.combine_weights
    assert np.allclose(cache.h, w[0] * cache.z_list[0] + w[1] * cache.z_list[1], atol=1e-14)


@pytest.mark.parametrize("switch,repaired", [
    ({}, True), ({"no_fdd": True}, False), ({"beta": 0.0}, False),
])
def test_forward_repairs_attributes_only_with_fdd(switch, repaired):
    graph = random_graph(200, (6, 4), seed=3, p=0.05)
    graph.modalities[0].x[11, 4] = 60.0
    cfg = TrainConfig(hidden_dim=8, **switch)
    params = init_params([6, 4], 8, seed=0)
    z_list = forward(graph, params, cfg)[1].z_list
    raw = [m.x.astype(np.float64) @ w for m, w in zip(graph.modalities, params.weights)]
    assert np.array_equal(z_list[1], raw[1])
    assert np.array_equal(z_list[0], raw[0]) != repaired
    if repaired:
        changed = np.flatnonzero(np.any(z_list[0] != raw[0], axis=1))
        assert changed.tolist() == [11]


@pytest.mark.parametrize("hidden_dim", [6, 16])
@pytest.mark.parametrize("no_fdd", [False, True])
@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
def test_forward_matches_dual_filter_of_the_mix(alpha, no_fdd, hidden_dim):
    # 16 attribute columns, more than the mix has or as many: forward filters
    # the attributes, not the mix, and matches dual_filter of the mix
    graph = random_graph(60, (7, 4, 5), seed=5, p=0.1)
    graph.modalities[1].x[9, 2] = 60.0  # a spike for the repair
    cfg = TrainConfig(hidden_dim=hidden_dim, alpha=alpha, no_fdd=no_fdd)
    params = init_params([7, 4, 5], hidden_dim, seed=2)
    params.combine_logits[:] = [0.3, -0.5, 0.1]
    ops, cache = forward(graph, params, cfg)
    w = cache.combine_weights
    mix = np.zeros_like(cache.z_list[0])
    for w_i, z_i in zip(w, cache.z_list):
        mix += w_i * z_i
    want = filters.dual_filter(ops.a_hat, mix, cache.s_list, cfg.filter_config())
    assert rel_frobenius(cache.h, want) <= 1e-12


def test_node_series_runs_in_setup_only(monkeypatch):
    runs = []
    real = filters._series

    def counting(a_hat, *args):
        if sp.issparse(a_hat):  # the node series; the feature series runs on a dense d x d
            runs.append(1)
        return real(a_hat, *args)

    monkeypatch.setattr(filters, "_series", counting)
    # narrow attributes with FDD: each modality is filtered once, and
    # modality 0's repaired column is refitted and filtered again; 70 columns
    # against a mix of 8, without FDD: each modality once.
    for widths, no_fdd, series_runs in (((6, 4), False, 4), ((40, 30), True, 2)):
        graph = random_graph(80, widths, seed=3, p=0.08)
        graph.modalities[0].x[11, 4] = 60.0
        counts = []
        for epochs in (1, 2, 4):
            runs.clear()
            fit(graph, 2, TrainConfig(hidden_dim=8, epochs=epochs, kmeans_interval=2,
                                      no_fdd=no_fdd), threads=1)
            counts.append(len(runs))
        assert counts == [series_runs] * 3, widths


def test_alpha_zero_makes_no_node_pass_and_no_copy(monkeypatch):
    real = filters._series

    def refuse(a_hat, *args):
        if sp.issparse(a_hat):
            raise AssertionError("the node series ran at alpha = 0")
        return real(a_hat, *args)

    monkeypatch.setattr(filters, "_series", refuse)
    graph = random_graph(80, (6, 4), seed=3, p=0.08)
    cfg = TrainConfig(alpha=0.0, hidden_dim=8, epochs=2)
    fit(graph, 2, cfg)
    setup = trainer._prepare(graph, cfg)
    assert all(xf is x for xf, x in zip(setup.xfs, setup.xs))


def test_filtered_attributes_identical_for_any_budget(monkeypatch):
    rng = np.random.default_rng(4)
    n = 4000
    edges = symmetric_adjacency(n, rng.integers(0, n, 48000), rng.integers(0, n, 48000))
    xs = [rng.standard_normal((n, d)).astype(np.float32) for d in (120, 30)]
    xs[0][7, 3] = xs[1][20, 5] = 80.0  # so both take the repaired columns' pass
    graph = MultimodalGraph(
        edges=edges, modalities=[ModalityFeatures(f"m{i}", x) for i, x in enumerate(xs)],
        labels=None,
    )
    series_columns, setups = [], []
    real_series, real_prepare = filters._series, trainer._prepare

    def series(a_hat, y0, *args):
        if sp.issparse(a_hat):  # the node series, not the dense feature series
            series_columns.append(y0.shape[1])
        return real_series(a_hat, y0, *args)

    def prepare(*args):
        setups.append(real_prepare(*args))
        return setups[-1]

    monkeypatch.setattr(filters, "_series", series)
    monkeypatch.setattr(trainer, "_prepare", prepare)
    # no loss: a fit is its setup, pruning, three forwards and the final k-means
    cfg = TrainConfig(epochs=1, no_mod_loss=True, no_nbr_loss=True, no_comm_loss=True)
    results = {}
    for threads in (1, 2, 8):
        series_columns.clear()
        fit(graph, 2, cfg, threads=threads)
        setup = setups.pop()
        results[threads] = [xf.tobytes() for xf in setup.xfs]
        assert all(r.entries_replaced > 0 for r in setup.repairs)
        # every column filtered once, each repaired column twice more
        hit = sum(int(np.any(x != raw, axis=0).sum()) for x, raw in zip(setup.xs, xs))
        assert sum(series_columns) == 150 + 2 * hit
        # each xf is the filter of its repaired attributes, bit for bit
        for x, xf in zip(setup.xs, setup.xfs):
            want = filters.node_filter(setup.ops.a_hat, x, cfg.filter_config())
            assert xf.tobytes() == want.tobytes()
    assert results[2] == results[1] and results[8] == results[1]


@pytest.mark.parametrize("switch,replaced", [({}, 1), ({"no_fdd": True}, 0)])
def test_fit_reports_repairs_per_modality(switch, replaced):
    graph = random_graph(200, (6, 4), seed=3, p=0.05)
    graph.modalities[0].x[11, 4] = 60.0
    result = fit(graph, 2, TrainConfig(hidden_dim=8, epochs=1, **switch))
    assert [r.entries_replaced for r in result.repairs] == [replaced, 0]
    assert [r.sparse_columns for r in result.repairs] == [0, 0]


# ----------------------------------------------------------------------- fit

def test_fit_smoke_and_logs(small_graph, tmp_path, monkeypatch):
    monkeypatch.setattr(trainer, "_IMPOSTOR_CAP", 8)  # below 24 nodes: the capped loss
    cfg = TrainConfig(hidden_dim=8, epochs=3, walk_length=3)
    log_path = tmp_path / "epochs.jsonl"
    result = fit(small_graph, k=3, cfg=cfg, log_path=log_path)

    assert result.clustering.assignments.shape == (small_graph.n_nodes,)
    assert result.clustering.k == 3
    assert result.h.shape == (small_graph.n_nodes, 8)
    assert len(result.epoch_logs) == 3
    assert result.stopped_at is None
    assert result.epoch_logs[0].pruned_edges == result.pruned.removed_count

    lines = log_path.read_text().splitlines()
    assert len(lines) == 3
    for i, line in enumerate(lines):
        entry = json.loads(line)
        assert entry["epoch"] == i
        assert set(entry) == {
            "epoch", "loss_total", "loss_mod", "loss_nbr",
            "loss_comm", "pruned_edges", "nmi_vs_labels",
        }
        assert math.isfinite(entry["loss_total"])
        assert entry["nmi_vs_labels"] is not None  # labels present


def test_fit_deterministic(small_graph, monkeypatch):
    monkeypatch.setattr(trainer, "_IMPOSTOR_CAP", 8)
    cfg = TrainConfig(hidden_dim=8, epochs=2, walk_length=3)
    a = fit(small_graph, k=3, cfg=cfg)
    b = fit(small_graph, k=3, cfg=cfg)
    assert np.array_equal(a.clustering.assignments, b.clustering.assignments)
    assert np.array_equal(a.h, b.h)
    assert a.epoch_logs[-1].loss_total == b.epoch_logs[-1].loss_total


def test_fit_seed_changes_trajectory(small_graph, monkeypatch):
    monkeypatch.setattr(trainer, "_IMPOSTOR_CAP", 8)
    cfg_a = TrainConfig(hidden_dim=8, epochs=2, walk_length=3, seed=0)
    cfg_b = TrainConfig(hidden_dim=8, epochs=2, walk_length=3, seed=1)
    a = fit(small_graph, k=3, cfg=cfg_a)
    b = fit(small_graph, k=3, cfg=cfg_b)
    assert not np.array_equal(a.h, b.h)


def test_fit_all_losses_disabled_keeps_params(small_graph):
    cfg = TrainConfig(
        hidden_dim=8, epochs=2,
        no_mod_loss=True, no_nbr_loss=True, no_comm_loss=True,
    )
    result = fit(small_graph, k=3, cfg=cfg)
    reference = init_params([6, 4], 8, seed=cfg.seed)
    for got, want in zip(result.params.weights, reference.weights):
        assert np.array_equal(got, want)
    assert np.array_equal(result.params.combine_logits, reference.combine_logits)
    assert result.epoch_logs[-1].loss_total == 0.0


def test_fit_no_aas_passthrough(small_graph, monkeypatch):
    monkeypatch.setattr(trainer, "_IMPOSTOR_CAP", 8)
    cfg = TrainConfig(hidden_dim=8, epochs=1, walk_length=3, no_aas=True)
    result = fit(small_graph, k=3, cfg=cfg)
    assert result.pruned.threshold is None
    assert result.pruned.removed_count == 0


def test_fit_no_comm_loss_skips_interim_clustering(small_graph, monkeypatch):
    monkeypatch.setattr(trainer, "_IMPOSTOR_CAP", 8)
    cfg = TrainConfig(hidden_dim=8, epochs=2, walk_length=3, no_comm_loss=True)
    result = fit(small_graph, k=3, cfg=cfg)
    assert all(e.loss_comm == 0.0 for e in result.epoch_logs)
    assert all(e.nmi_vs_labels is None for e in result.epoch_logs)
    assert result.clustering.k == 3  # final clustering still produced


def test_fit_k_validation(small_graph):
    with pytest.raises(ValueError, match=">= 1"):
        fit(small_graph, k=0, cfg=TrainConfig(hidden_dim=4, epochs=1))
    with pytest.raises(ValueError, match="exceeds"):
        fit(small_graph, k=10_000, cfg=TrainConfig(hidden_dim=4, epochs=1))


def test_fit_training_reduces_loss(small_graph, monkeypatch):
    monkeypatch.setattr(trainer, "_IMPOSTOR_CAP", 8)
    cfg = TrainConfig(hidden_dim=8, epochs=30, walk_length=3, lr=5e-3)
    result = fit(small_graph, k=3, cfg=cfg)
    first = result.epoch_logs[0].loss_total
    last = min(e.loss_total for e in result.epoch_logs[-5:])
    assert last < first


def test_fit_divergence_stops_on_record(tmp_path):
    # the acceptance suite's planted partition (data seed 0), first 200 nodes;
    # one Adam step of size ~1e200 leaves weights whose squares overflow
    synth = SynthConfig(
        n=1000, k=4, p_in=0.05, p_out=0.005, cross_modal_correlation=0.6, seed=0,
        modalities=[
            ModalitySpec("text", 32, signal_strength=1.0, noise_sigma=0.5),
            ModalitySpec("image", 24, signal_strength=1.0, noise_sigma=0.5),
        ],
    )
    graph, _ = load_dataset(generate(synth, tmp_path).manifest)
    graph = induce_subgraph(graph, 200)
    result = fit(graph, 4, TrainConfig(epochs=6, lr=1e200))

    assert result.stopped_at == 0
    assert len(result.epoch_logs) == result.stopped_at
    reference = init_params([32, 24], 64, seed=0)  # the update was rolled back
    for got, want in zip(result.params.weights, reference.weights):
        assert np.array_equal(got, want)
    assert np.isfinite(result.h).all()
    a = result.clustering.assignments
    assert a.shape == (200,) and a.min() >= 0 and a.max() < 4


def test_fit_stops_when_a_loss_turns_non_finite(monkeypatch):
    # the third neighborhood loss (epoch 2) reads NaN; the step's gradients
    # are dropped and the parameters stay those of a 2-epoch fit
    graph = random_graph(40, [6, 4], seed=3, labels_k=3)
    calls = []
    real = trainer.neighborhood_loss

    def nan_on_third(h_norm, samples):
        value, grad = real(h_norm, samples)
        calls.append(value)
        return (math.nan if len(calls) == 3 else value), grad

    monkeypatch.setattr(trainer, "neighborhood_loss", nan_on_third)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = fit(graph, 3, TrainConfig(epochs=6))
    assert result.stopped_at == 2
    assert [e.epoch for e in result.epoch_logs] == [0, 1]

    monkeypatch.setattr(trainer, "neighborhood_loss", real)
    reference = fit(graph, 3, TrainConfig(epochs=2)).params
    for got, want in zip(result.params.weights, reference.weights):
        assert np.array_equal(got, want)
    assert np.array_equal(result.params.combine_logits, reference.combine_logits)


def test_fit_identical_for_any_thread_budget(tmp_path, monkeypatch):
    """Budgets 1 and 3, and the budget a patched CPU count gives, train to
    the same bits."""
    synth = SynthConfig(
        n=300, k=3, p_in=0.1, p_out=0.01, cross_modal_correlation=0.6, seed=2,
        outlier_rate=0.01,
        modalities=[ModalitySpec("text", 12, noise_sigma=0.5),
                    ModalitySpec("image", 5, noise_sigma=0.5)],
    )
    graph, _ = load_dataset(generate(synth, tmp_path).manifest)
    cfg = TrainConfig(epochs=3, kmeans_interval=2, hidden_dim=16)
    monkeypatch.setattr(trainer, "_IMPOSTOR_CAP", 32)

    def run(threads=None):
        result = fit(graph, 3, cfg, threads=threads)
        params = init_params([12, 5], cfg.hidden_dim, cfg.seed)
        h = forward(graph, params, cfg)[1].h
        return result.h.tobytes(), result.clustering.assignments.tobytes(), h.tobytes()

    serial = run(threads=1)
    assert run(threads=3) == serial
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert run() == serial


def test_training_step_and_pruning_start_no_thread(small_graph, monkeypatch):
    """The setup, the loss layers and pruning run on the calling thread, even
    at a budget above 1 with BLAS pinned to one thread, where the k-means
    restarts do split."""
    for name in cli.BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    inside = []  # the names of the watched routines now running
    started = {"inside": 0, "outside": 0}
    real_start = threading.Thread.start

    def counting_start(thread):
        started["inside" if inside else "outside"] += 1
        return real_start(thread)

    def watched(name):
        real = getattr(trainer, name)

        def run(*args, **kwargs):
            inside.append(name)
            try:
                return real(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(trainer, name, run)

    watched("_prepare")
    watched("_step_gradients")
    watched("_prune")
    monkeypatch.setattr(threading.Thread, "start", counting_start)
    fit(small_graph, 3, TrainConfig(epochs=2, hidden_dim=8), threads=3)
    assert started["inside"] == 0
    assert started["outside"] > 0  # the budget was in force elsewhere


@pytest.mark.parametrize("walk_length", [3, 7])
def test_step_state_draws_walk_length_negatives(small_graph, walk_length):
    cfg = TrainConfig(hidden_dim=8, walk_length=walk_length)
    params = init_params([6, 4], 8, seed=0)
    cache = forward(small_graph, params, cfg)[1]
    pruned = trainer._prune(small_graph, cache.z_list, cfg)
    samples = trainer._step_state(0, cache, pruned, 3, cfg, threads=1).samples
    n = small_graph.n_nodes
    assert samples.positives.shape == (n, walk_length)
    assert samples.negatives.shape == (n, walk_length)


@pytest.mark.parametrize("threads", [0, -2])
def test_non_positive_thread_budget_rejected(small_graph, threads):
    with pytest.raises(ValueError, match="threads"):
        fit(small_graph, 3, TrainConfig(epochs=1), threads=threads)


@pytest.mark.parametrize("threads", [0, -3, 1.5])
@pytest.mark.parametrize("routine", ["fit", "kmeans_fit"])
def test_every_budgeted_routine_rejects_a_budget_below_one(routine, threads, small_graph,
                                                           monkeypatch):
    """Each routine that takes a budget fails with ``kmeans.thread_budget``'s
    error before any work, for a budget below 1 or one that is not an
    integer: ``fit`` before its setup."""
    x = np.random.default_rng(0).standard_normal((6, 3))
    calls = {
        "fit": lambda: fit(small_graph, 3, TrainConfig(epochs=1), threads=threads),
        "kmeans_fit": lambda: kmeans.kmeans_fit(x, 2, threads=threads),
    }

    def no_work(*args):
        raise AssertionError("work started on a budget below 1")

    monkeypatch.setattr(kmeans, "_lloyd", no_work)
    monkeypatch.setattr(trainer, "_prepare", no_work)
    rule = "an integer" if isinstance(threads, float) else ">= 1"
    with pytest.raises(ValueError, match=f"threads must be {rule}, got {threads}"):
        calls[routine]()


# -------------------------------------------------------------------- memory

# Traced peak of a one-epoch fit of a 3000-node planted graph (hidden_dim 64,
# one thread), in n x hidden_dim float64 arrays: 7.3 without the modality
# loss and 12.4 with it (inside the margin loss).  The bounds sit below 11.0
# and 16.4, the peaks of a fit whose steps keep a normalized copy next to h,
# a zero gradient to add the first loss to, the z_i without the modality
# loss, and the last step's arrays through the next forward.
@pytest.mark.parametrize("no_mod_loss,bound", [(True, 8.5), (False, 14.0)],
                         ids=["no-mod-loss", "full-model"])
def test_fit_traced_peak_in_n_by_hidden_arrays(tmp_path, no_mod_loss, bound):
    n = 3000
    synth = SynthConfig(
        n=n, k=4, p_in=50.0 / n, p_out=5.0 / n, cross_modal_correlation=0.6, seed=0,
        modalities=[ModalitySpec("text", 32, signal_strength=1.0, noise_sigma=0.5),
                    ModalitySpec("image", 24, signal_strength=1.0, noise_sigma=0.5)],
    )
    graph, _ = load_dataset(generate(synth, tmp_path).manifest)
    cfg = TrainConfig(epochs=1, no_mod_loss=no_mod_loss)
    tracemalloc.start()
    try:
        fit(graph, 4, cfg, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (n * cfg.hidden_dim * 8) < bound


def _caller_bytes(graph: MultimodalGraph) -> list[bytes]:
    edges = graph.edges
    return [a.tobytes() for a in (edges.indptr, edges.indices, edges.data,
                                  *(m.x for m in graph.modalities))]


def test_in_place_work_never_reaches_the_callers_data(monkeypatch):
    """fit, forward and the gradient check normalize and scale their own
    arrays in place, never the graph's features (a float64 modality
    included, which the setup could alias) or its csr arrays; forward's z_i
    are the raw projections of the repaired attributes, bit for bit."""
    monkeypatch.setattr(trainer, "_IMPOSTOR_CAP", 4)  # the capped margin loss
    graph = random_graph(30, (5, 3), seed=4, p=0.2, labels_k=3)
    graph.modalities[1].x = graph.modalities[1].x.astype(np.float64)
    before = _caller_bytes(graph)
    for switches in ({}, {"no_mod_loss": True}):
        cfg = TrainConfig(epochs=3, kmeans_interval=2, hidden_dim=6, walk_length=3,
                          **switches)
        fit(graph, 3, cfg, threads=1)
        assert _caller_bytes(graph) == before

        params = init_params([5, 3], cfg.hidden_dim, seed=1)
        weights = [w.copy() for w in params.weights]
        cache = forward(graph, params, cfg)[1]
        assert _caller_bytes(graph) == before
        xs = trainer._prepare(graph, cfg).xs
        for z, x, w in zip(cache.z_list, xs, weights):
            assert z.tobytes() == (x @ w).tobytes()

        report = end_to_end_gradient_check(graph, 3, cfg)
        assert report.passed, [(e.name, e.max_rel_error) for e in report.entries]
        assert _caller_bytes(graph) == before


# ---------------------------------------------------------------------- adam

def test_adam_first_step_is_signed_lr():
    opt = Adam([(2,)], lr=0.1)
    p = np.array([1.0, -1.0])
    g = np.array([0.5, -2.0])
    opt.step([p], [g])
    # bias-corrected first step: lr * g / (|g| + eps) ~= lr * sign(g)
    assert p == pytest.approx([1.0 - 0.1, -1.0 + 0.1], abs=1e-6)
    assert opt.step_count == 1


def test_adam_minimizes_quadratic():
    opt = Adam([(3,)], lr=0.05)
    target = np.array([1.0, -2.0, 0.5])
    p = np.zeros(3)
    for _ in range(400):
        opt.step([p], [2.0 * (p - target)])
    assert np.allclose(p, target, atol=1e-3)


# ------------------------------------------------------- gradient validation

def test_loss_gradient_checks_pass():
    report = loss_gradient_checks(seed=0)
    names = [e.name for e in report.entries]
    assert names == [
        "mms_loss_full", "mms_loss_capped", "neighborhood_loss", "community_loss",
    ]
    for entry in report.entries:
        assert entry.passed, (entry.name, entry.max_rel_error)


def test_end_to_end_gradient_check_passes(monkeypatch):
    monkeypatch.setattr(trainer, "_IMPOSTOR_CAP", 4)  # the capped margin loss
    graph = random_graph(12, (5, 3), seed=0, p=0.3, labels_k=3)
    cfg = TrainConfig(hidden_dim=6, walk_length=3)
    report = end_to_end_gradient_check(graph, k=3, cfg=cfg)
    assert report.passed, [(e.name, e.max_rel_error) for e in report.entries]
    assert any(e.name == "combine_logits" for e in report.entries)


@pytest.mark.parametrize("switches", [
    {"no_nbr_loss": True, "no_comm_loss": True},
    {"no_mod_loss": True, "no_comm_loss": True},
    {"no_mod_loss": True, "no_nbr_loss": True},
    {"no_fdd": True},
    {"no_aas": True},
    {"no_hps": True},
    {"alpha": 0.0},
], ids=["mod-loss-only", "nbr-loss-only", "comm-loss-only", "no-fdd", "no-aas", "no-hps",
        "alpha-0"])
def test_end_to_end_gradient_check_per_switch(switches, monkeypatch):
    monkeypatch.setattr(trainer, "_IMPOSTOR_CAP", 4)
    graph = random_graph(12, (5, 3), seed=0, p=0.3, labels_k=3)
    cfg = TrainConfig(hidden_dim=6, walk_length=3, **switches)
    report = end_to_end_gradient_check(graph, k=3, cfg=cfg)
    assert report.passed, [(e.name, e.max_rel_error) for e in report.entries]


def test_end_to_end_gradient_check_with_flags(monkeypatch):
    monkeypatch.setattr(trainer, "_IMPOSTOR_CAP", 4)
    graph = random_graph(10, (4,), seed=1, p=0.35, labels_k=2)
    cfg = TrainConfig(hidden_dim=5, walk_length=2, no_mod_loss=True, no_hps=True)
    report = end_to_end_gradient_check(graph, k=2, cfg=cfg)
    assert report.passed, [(e.name, e.max_rel_error) for e in report.entries]
