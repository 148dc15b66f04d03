"""Dual-domain filtering: series evaluation, closed form, responses."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmgc.data import load_dataset, normalize_adjacency, symmetric_adjacency
from mmgc.datagen import ModalitySpec, SynthConfig, generate
from mmgc import filters as filters_module
from mmgc.filters import (
    DualFilterConfig,
    dual_filter,
    dual_filter_vjp,
    exact_response,
    exact_solution,
    feature_shift,
    filter_attributes,
    node_filter,
    spectra_report,
    spectral_response,
)

from helpers import (
    edges_from_pairs,
    er_graph,
    objective_gradient,
    path_graph,
    ring_graph,
    reference_dual_filter,
    reference_exact,
    rel_frobenius,
)


def _instance(n, d, seed, p=0.15, m=1):
    rng = np.random.default_rng(seed)
    ops = normalize_adjacency(er_graph(n, p, seed=seed))
    z = rng.standard_normal((n, d))
    shifts = [feature_shift(rng.standard_normal((n, d))) for _ in range(m)]
    return ops, z, shifts


# -------------------------------------------------------------------- config

def test_config_validation():
    DualFilterConfig().validate()
    with pytest.raises(ValueError):
        DualFilterConfig(alpha=-0.1).validate()
    with pytest.raises(ValueError):
        DualFilterConfig(beta=-1.0).validate()
    with pytest.raises(ValueError):
        DualFilterConfig(t_layers=-1).validate()
    for name, value in (("alpha", float("nan")), ("beta", float("inf"))):
        with pytest.raises(ValueError, match=name):
            DualFilterConfig(**{name: value}).validate()


@pytest.mark.parametrize("value", [2.5, True])
def test_config_refuses_a_non_integer_truncation_order(value):
    with pytest.raises(ValueError, match=f"^t_layers must be an integer, got {value}"):
        DualFilterConfig(t_layers=value).validate()


def test_config_defaults():
    cfg = DualFilterConfig()
    assert cfg.alpha == 1.0 and cfg.beta == 1.0 and cfg.t_layers == 10


# ------------------------------------------------------------- feature shift

def test_feature_shift_identical_columns():
    z = np.tile(np.arange(1.0, 6.0)[:, None], (1, 2))
    s = feature_shift(z)
    assert np.allclose(s, 0.5)


def test_feature_shift_structure():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((8, 4))
    s = feature_shift(z)
    assert np.allclose(s, s.T)
    eigs = np.linalg.eigvalsh(s)
    assert eigs.min() >= -1e-8
    assert abs(eigs.max() - 1.0) <= 1e-8
    # kernel row sums give the top eigenvector
    zn = z / np.linalg.norm(z, axis=0, keepdims=True)
    kernel = np.exp((zn.T @ zn) / np.sqrt(8))
    v = np.sqrt(kernel.sum(axis=1))
    v = v / np.linalg.norm(v)
    assert np.linalg.norm(s @ v - v) <= 1e-6


def test_feature_shift_errors():
    with pytest.raises(ValueError):
        feature_shift(np.ones(3))
    with pytest.raises(ValueError):
        feature_shift(np.empty((0, 0)))
    bad = np.ones((3, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        feature_shift(bad)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 10), st.integers(2, 6), st.integers(0, 10_000))
def test_feature_shift_column_permutation_equivariant(n, d, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, d))
    perm = rng.permutation(d)
    s_base = feature_shift(z)
    s_perm = feature_shift(z[:, perm])
    assert np.allclose(s_perm, s_base[np.ix_(perm, perm)], atol=1e-6)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 10), st.integers(2, 6), st.integers(0, 10_000))
def test_feature_shift_column_scale_invariant(n, d, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, d))
    scales = rng.uniform(0.1, 10.0, size=d)
    assert np.allclose(feature_shift(z * scales), feature_shift(z), atol=1e-9)


def test_feature_shift_beta_scaled_spectrum():
    rng = np.random.default_rng(11)
    s = feature_shift(rng.standard_normal((20, 7)))
    top = np.linalg.eigvalsh(s).max()
    for beta in (0.1, 1.0, 10.0):
        scaled = beta / (beta + 1.0) * top
        assert scaled <= beta / (beta + 1.0) + 1e-9


# -------------------------------------------------------------- dual filter

def test_dual_filter_zero_strengths_is_identity():
    ops, z, shifts = _instance(12, 5, seed=0)
    cfg = DualFilterConfig(alpha=0.0, beta=0.0, t_layers=7)
    out = dual_filter(ops.a_hat, z, shifts, cfg)
    assert np.allclose(out, z, atol=1e-12)


@pytest.mark.parametrize("alpha,beta,t", [
    (1.0, 1.0, 1), (1.0, 1.0, 3), (0.5, 2.0, 5), (10.0, 0.1, 8), (0.0, 3.0, 4),
])
def test_dual_filter_matches_power_series_oracle(alpha, beta, t):
    ops, z, shifts = _instance(15, 6, seed=4, m=2)
    cfg = DualFilterConfig(alpha=alpha, beta=beta, t_layers=t)
    got = dual_filter(ops.a_hat, z, shifts, cfg)
    want = reference_dual_filter(ops.a_hat, z, shifts, alpha, beta, t)
    assert rel_frobenius(got, want) <= 1e-10


def test_dual_filter_shift_list_averaging():
    ops, z, shifts = _instance(10, 4, seed=5, m=2)
    cfg = DualFilterConfig(alpha=1.0, beta=2.0, t_layers=6)
    merged = [(shifts[0] + shifts[1]) / 2.0]
    assert np.allclose(
        dual_filter(ops.a_hat, z, shifts, cfg),
        dual_filter(ops.a_hat, z, merged, cfg),
        atol=1e-12,
    )


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_dual_filter_linear_in_input(seed):
    ops, z, shifts = _instance(12, 5, seed=seed)
    rng = np.random.default_rng(seed + 1)
    z2 = rng.standard_normal(z.shape)
    a, b = rng.uniform(-2, 2, size=2)
    cfg = DualFilterConfig(alpha=1.3, beta=0.7, t_layers=5)
    lhs = dual_filter(ops.a_hat, a * z + b * z2, shifts, cfg)
    rhs = a * dual_filter(ops.a_hat, z, shifts, cfg) + b * dual_filter(
        ops.a_hat, z2, shifts, cfg
    )
    assert np.allclose(lhs, rhs, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_dual_filter_is_self_adjoint(seed):
    """<F(Z), G> == <Z, F(G)> because both series factors are symmetric."""
    ops, z, shifts = _instance(11, 4, seed=seed)
    rng = np.random.default_rng(seed + 2)
    g = rng.standard_normal(z.shape)
    cfg = DualFilterConfig(alpha=0.8, beta=1.6, t_layers=6)
    lhs = float(np.sum(dual_filter(ops.a_hat, z, shifts, cfg) * g))
    rhs = float(np.sum(z * dual_filter_vjp(ops.a_hat, g, shifts, cfg)))
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_dual_filter_shape_errors():
    ops, z, shifts = _instance(9, 4, seed=1)
    cfg = DualFilterConfig()
    with pytest.raises(ValueError, match="row count"):
        dual_filter(ops.a_hat, z[:5], shifts, cfg)
    with pytest.raises(ValueError, match="width"):
        dual_filter(ops.a_hat, z[:, :3], shifts, cfg)


def test_truncation_error_small_at_default_depth():
    ops, z, shifts = _instance(50, 8, seed=13, p=0.12)
    exact = exact_solution(ops.a_hat, z, shifts, DualFilterConfig(t_layers=1))
    got = dual_filter(ops.a_hat, z, shifts, DualFilterConfig(t_layers=10))
    assert rel_frobenius(got, exact) <= 9.77e-4
    deep = dual_filter(ops.a_hat, z, shifts, DualFilterConfig(t_layers=200))
    assert rel_frobenius(deep, exact) <= 1e-10


def test_truncation_error_geometric_envelope():
    """Relative error decays geometrically with the slower domain's rate."""
    for seed in (0, 1):
        ops, z, shifts = _instance(30, 6, seed=seed, m=2)
        for alpha in (0.1, 1.0, 10.0):
            for beta in (0.1, 1.0, 10.0):
                exact = exact_solution(
                    ops.a_hat, z, shifts, DualFilterConfig(alpha, beta, 1)
                )
                ref = np.linalg.norm(exact)
                rate = max(alpha / (alpha + 1.0), beta / (beta + 1.0))
                c = 3.0 * (1.0 + 2.0 * alpha) * (1.0 + 2.0 * beta)
                for t in range(1, 31, 3):
                    cfg = DualFilterConfig(alpha, beta, t)
                    err = np.linalg.norm(
                        dual_filter(ops.a_hat, z, shifts, cfg) - exact
                    ) / ref
                    assert err <= c * rate ** (t + 1) + 1e-12


# ------------------------------------------------------------- closed form

def test_exact_solution_single_node_self_loop():
    import scipy.sparse as sp

    a_hat = sp.csr_matrix(np.array([[1.0]]))
    z = np.array([[3.5, -2.0]])
    shifts = [np.zeros((2, 2))]
    cfg = DualFilterConfig(alpha=1.0, beta=0.0, t_layers=1)
    assert np.allclose(exact_solution(a_hat, z, shifts, cfg), z, atol=1e-12)


@pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (0.3, 2.5), (5.0, 0.0)])
def test_exact_solution_matches_inverse_oracle(alpha, beta):
    ops, z, shifts = _instance(14, 5, seed=8, m=2)
    cfg = DualFilterConfig(alpha=alpha, beta=beta, t_layers=1)
    got = exact_solution(ops.a_hat, z, shifts, cfg)
    want = reference_exact(ops.a_hat, z, shifts, alpha, beta)
    assert rel_frobenius(got, want) <= 1e-10


def test_exact_solution_size_cap():
    import scipy.sparse as sp

    n = 2001
    a_hat = sp.identity(n, format="csr")
    with pytest.raises(ValueError, match="2000"):
        exact_solution(
            a_hat, np.zeros((n, 2)), [np.zeros((2, 2))], DualFilterConfig()
        )


def test_objective_gradient_vanishes_single_domain():
    """With one strength at zero the sequential form is jointly stationary."""
    ops, z, shifts = _instance(30, 6, seed=2, m=2)
    for alpha, beta in ((1.7, 0.0), (0.0, 2.3), (1.0, 0.0)):
        cfg = DualFilterConfig(alpha=alpha, beta=beta, t_layers=1)
        h = exact_solution(ops.a_hat, z, shifts, cfg)
        grad = objective_gradient(ops.a_hat, h, z, shifts, cfg)
        assert np.abs(grad).max() <= 1e-8


def test_objective_gradient_vanishes_at_coupled_solution():
    """The gradient formula is exact: zero at the Sylvester solution."""
    ops, z, shifts = _instance(30, 6, seed=2, m=2)
    alpha, beta = 1.7, 0.6
    lap = np.eye(30) - ops.a_hat.toarray()
    s_bar = np.mean(shifts, axis=0)
    lam, v = np.linalg.eigh(lap)
    omega, w = np.linalg.eigh(np.eye(s_bar.shape[0]) - s_bar)
    denom = 1.0 + alpha * lam[:, None] + beta * omega[None, :]
    h = v @ ((v.T @ z @ w) / denom) @ w.T
    cfg = DualFilterConfig(alpha=alpha, beta=beta, t_layers=1)
    grad = objective_gradient(ops.a_hat, h, z, shifts, cfg)
    assert np.abs(grad).max() <= 1e-8


def test_sequential_form_composes_single_domain_solves():
    """exact_solution == node-domain solve applied to feature-domain solve."""
    ops, z, shifts = _instance(16, 6, seed=2, m=2)
    alpha, beta = 1.7, 0.6
    cfg = DualFilterConfig(alpha=alpha, beta=beta, t_layers=1)
    h = exact_solution(ops.a_hat, z, shifts, cfg)
    cfg_feat = DualFilterConfig(alpha=0.0, beta=beta, t_layers=1)
    cfg_node = DualFilterConfig(alpha=alpha, beta=0.0, t_layers=1)
    staged = exact_solution(
        ops.a_hat, exact_solution(ops.a_hat, z, shifts, cfg_feat), shifts, cfg_node
    )
    assert np.allclose(h, staged, atol=1e-10)


def test_objective_gradient_nonzero_off_solution():
    ops, z, shifts = _instance(10, 4, seed=6)
    cfg = DualFilterConfig(alpha=1.0, beta=1.0, t_layers=1)
    grad = objective_gradient(ops.a_hat, z * 2.0, z, shifts, cfg)
    assert np.abs(grad).max() > 1e-3


# ---------------------------------------------------------------- responses

def test_exact_response_values():
    assert exact_response(1.0, 0.0) == 1.0
    assert exact_response(1.0, 1.0) == 0.5
    assert exact_response(3.0, 2.0) == pytest.approx(1.0 / 7.0, rel=1e-15)


def test_spectral_response_midband_exact():
    for t in (0, 1, 5, 10, 50):
        assert spectral_response(1.0, t, 1.0) == 0.5


def test_spectral_response_spot_values():
    assert spectral_response(1.0, 10, 0.0) == pytest.approx(
        0.99951171875, abs=1e-12
    )
    assert spectral_response(1.0, 10, 2.0) == pytest.approx(
        0.33349609375, abs=1e-12
    )


def test_spectral_response_converges_to_exact():
    lam = np.linspace(0.0, 2.0, 41)
    for alpha in (0.2, 1.0, 4.0):
        gap = np.abs(spectral_response(alpha, 200, lam) - exact_response(alpha, lam))
        assert gap.max() <= 1e-12


def test_spectral_response_truncation_bound():
    lam = np.linspace(0.0, 2.0, 81)
    for alpha in (0.5, 1.0, 2.0):
        ratio = alpha / (alpha + 1.0)
        for t in (0, 1, 3, 10):
            gap = np.abs(
                spectral_response(alpha, t, lam) - exact_response(alpha, lam)
            )
            bound = exact_response(alpha, lam) * ratio ** (t + 1)
            assert np.all(gap <= bound + 1e-15)


def test_spectral_response_rejects_negative_order():
    with pytest.raises(ValueError):
        spectral_response(1.0, -1, 0.5)


# ------------------------------------------------------------ outlier repair

def _repaired(a_hat, x, cfg=None):
    out = x.copy()
    _, report = filter_attributes(a_hat, out, cfg or DualFilterConfig())
    return out, report


def test_repair_flags_planted_spikes(tmp_path):
    cfg = SynthConfig(
        n=300, k=4, p_in=0.05, p_out=0.005,
        modalities=[ModalitySpec("text", 32, noise_sigma=0.5),
                    ModalitySpec("image", 24, noise_sigma=0.5)],
        outlier_rate=0.02, cross_modal_correlation=0.6, seed=3,
    )
    summary = generate(cfg, tmp_path)
    graph, _ = load_dataset(summary.manifest)
    ops = normalize_adjacency(graph.edges)
    for m in graph.modalities:
        x = m.x.astype(np.float64)
        out, report = _repaired(ops.a_hat, x)
        touched = out != x
        planted = np.zeros_like(touched)
        coords = summary.spikes[m.name]
        planted[coords[:, 0], coords[:, 1]] = True
        assert planted.sum() > 0
        assert touched[planted].mean() >= 0.95, m.name
        assert touched[~planted].mean() <= 0.01, m.name
        assert report.entries_replaced == touched.sum()
        assert report.sparse_columns == 0


def test_repair_leaves_spike_free_input_byte_identical():
    ops = normalize_adjacency(er_graph(200, 0.05, seed=4))
    # uniform columns have no tail beyond 4 standard deviations
    x = np.random.default_rng(4).uniform(-1.0, 1.0, size=(200, 10))
    out, report = _repaired(ops.a_hat, x)
    assert out.tobytes() == x.tobytes()
    assert report.entries_replaced == 0


def test_repair_skips_constant_residual_columns():
    # on a regular graph every constant column filters to a constant, so
    # each residual column has (up to rounding) zero spread; the all-zero
    # input has exactly zero residual spread in every column
    ops = normalize_adjacency(ring_graph(40))
    constant = np.tile([0.0, 3.25, -1.5, 0.1], (40, 1))
    for x in (constant, np.zeros((40, 3))):
        with np.errstate(divide="raise", invalid="raise"):
            out, report = _repaired(ops.a_hat, x)
        assert out.tobytes() == x.tobytes()
        assert report.entries_replaced == 0


def test_repair_leaves_sparse_binary_columns_unchanged():
    # 3%-dense 0/1 columns: every 1 is a 4-sigma outlier of its column,
    # but it is the column's signal; the Gaussian column's spike is not
    rng = np.random.default_rng(6)
    n = 1000
    ops = normalize_adjacency(er_graph(n, 0.01, seed=6))
    binary = (rng.random((n, 4)) < 0.03).astype(np.float64)
    gaussian = rng.standard_normal((n, 2))
    gaussian[17, 1] = 12.0
    x = np.hstack([binary, gaussian])
    out, report = _repaired(ops.a_hat, x)
    assert binary.sum() > 100
    assert out[:, :4].tobytes() == binary.tobytes()
    assert out[17, 5] != 12.0
    assert report.sparse_columns == 4
    assert report.entries_replaced == np.count_nonzero(out != x) >= 1


def test_repair_works_in_column_blocks(monkeypatch):
    # the column blocks bound the scratch memory; each column is screened
    # on its own, so the block width does not change the result
    ops, x, _ = _instance(80, 9, seed=5)
    x[5, ::2] += 40.0
    x[33, 1::3] -= 40.0
    whole = x.copy()
    whole_xf, report = filter_attributes(ops.a_hat, whole, DualFilterConfig())
    monkeypatch.setattr(filters_module, "_REPAIR_COLUMNS", 2)
    blocked = x.copy()
    blocked_xf, blocked_report = filter_attributes(ops.a_hat, blocked, DualFilterConfig())
    assert report.entries_replaced > 0
    assert blocked.tobytes() == whole.tobytes()
    assert blocked_xf.tobytes() == whole_xf.tobytes()
    assert blocked_report == report


def test_repair_is_off_without_filter_strength():
    ops, x, _ = _instance(60, 6, seed=2)
    x[7, 2] = 50.0
    on, report = _repaired(ops.a_hat, x)
    assert np.count_nonzero(on != x) == 1
    # the other entries are standard normal; the replacement keeps no
    # trace of the spike, which the first filter pass would still carry
    assert abs(on[7, 2]) < 1.0
    assert report.entries_replaced == 1
    for cfg in (DualFilterConfig(beta=0.0), DualFilterConfig(alpha=0.0)):
        off, report = _repaired(ops.a_hat, x, cfg)
        assert off.tobytes() == x.tobytes() and report.entries_replaced == 0


@pytest.mark.parametrize("block", [2, 256])
def test_node_filter_gives_the_series_bits_in_any_column_block(block, monkeypatch):
    monkeypatch.setattr(filters_module, "_REPAIR_COLUMNS", block)
    ops, x, _ = _instance(80, 9, seed=5)
    want = _plain_series(ops.a_hat, x, 0.5, 10) / 2.0
    assert node_filter(ops.a_hat, x, DualFilterConfig()).tobytes() == want.tobytes()


class _NoProducts:
    """An adjacency whose products raise, so any node-domain pass fails."""

    def __init__(self, n):
        self.shape = (n, n)

    def __matmul__(self, other):
        raise AssertionError("node-domain pass with alpha = 0")


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_alpha_zero_makes_no_node_pass(beta):
    ops, z, shifts = _instance(40, 5, seed=12, m=2)
    cfg = DualFilterConfig(alpha=0.0, beta=beta)
    before = z.copy()
    right = filters_module._series(filters_module._mean_shift(shifts), np.eye(5),
                                   beta / (beta + 1.0), cfg.t_layers)
    # the t passes of the series, each adding 0 * (A @ y), as run before the skip
    want = (1.0 / (beta + 1.0)) * (
        filters_module._series(ops.a_hat, z, 0.0, cfg.t_layers) @ right
    )
    for apply in (dual_filter, dual_filter_vjp):
        got = apply(_NoProducts(40), z, shifts, cfg)
        assert got.tobytes() == want.tobytes()
        assert z.tobytes() == before.tobytes() and not np.shares_memory(got, z)
    assert node_filter(_NoProducts(40), z, cfg) is z  # the identity: no pass, no copy


# -------------------------------------------------------------- column blocks

def _plain_series(a_hat, y0, coeff, t):
    """The series as first written: one new array per pass, no column blocks."""
    y = y0.copy()
    for _ in range(t):
        y = y0 + coeff * (a_hat @ y)
    return y


@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize(
    "cols, block", [(1, 256), (2, 256), (5, 256), (64, 256), (64, 5)],
    ids=["1", "2", "5", "64", "64x5"],  # 64x5: 13 column blocks
)
def test_column_split_is_byte_identical(cols, block, t, monkeypatch):
    monkeypatch.setattr(filters_module, "_REPAIR_COLUMNS", block)
    ops = normalize_adjacency(er_graph(300, 0.05, seed=8))
    wide = np.random.default_rng(8).standard_normal((300, cols + 3))
    cfg = DualFilterConfig(t_layers=t)
    # a contiguous input, a column slice, and a dense operator run on its csr form
    for a_hat, y0 in ((ops.a_hat, wide[:, :cols].copy()), (ops.a_hat, wide[:, 3:]),
                      (ops.a_hat.toarray(), wide[:, :cols].copy())):
        got = node_filter(a_hat, y0, cfg)
        assert got.tobytes() == (_plain_series(ops.a_hat, y0, 0.5, t) / 2.0).tobytes()


def _plain_feature_series(s_bar, coeff, t):
    """The feature-side factor as first written: sum_{s=0..t} (coeff * S)^s."""
    eye = np.eye(s_bar.shape[0])
    f = eye.copy()
    for _ in range(t):
        f = eye + coeff * (s_bar @ f)
    return f


@pytest.mark.parametrize("d, coeff, t", [(1, 0.5, 1), (7, 0.5, 10), (24, 0.25, 3), (64, 0.9, 30)])
def test_feature_series_byte_identical_to_plain_recurrence(d, coeff, t):
    rng = np.random.default_rng(d)
    s_bar = filters_module._mean_shift(
        [feature_shift(rng.standard_normal((50, d))) for _ in range(2)]
    )
    got = filters_module._series(s_bar, np.eye(d), coeff, t)
    assert got.tobytes() == _plain_feature_series(s_bar, coeff, t).tobytes()


def test_filter_attributes_scratch_stays_within_64_column_blocks():
    # the screen and the refits work on 64-column blocks while the filtered
    # attributes are alive: the scratch above them stays a few n x 64 arrays
    # whatever the width, here with a spike in every column
    n, d = 4000, 300
    rng = np.random.default_rng(13)
    ops = normalize_adjacency(
        symmetric_adjacency(n, rng.integers(0, n, 16000), rng.integers(0, n, 16000))
    )
    x = rng.standard_normal((n, d))
    x[rng.integers(0, n, d), np.arange(d)] = 60.0
    tracemalloc.start()
    try:
        xf, report = filter_attributes(ops.a_hat, x, DualFilterConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.entries_replaced >= d
    assert peak < xf.nbytes + 8 * n * 64 * 8


# -------------------------------------------------------------- full report

def test_spectra_report_checks_and_files(tmp_path):
    rng = np.random.default_rng(21)
    ops = normalize_adjacency(er_graph(40, 0.15, seed=3))
    z = rng.standard_normal((40, 8))
    shifts = [feature_shift(rng.standard_normal((40, 8)))]
    h = dual_filter(ops.a_hat, z, shifts, DualFilterConfig())
    report = spectra_report(ops, h, shifts, DualFilterConfig(), t_max=20)
    assert report.passed, report.checks
    expected_keys = {
        "node_response_non_increasing",
        "feature_response_non_increasing",
        "truncation_within_pointwise_bound",
        "truncation_errors_non_increasing",
        "truncation_errors_below_tail_bound",
        "energy_identity",
        "feature_shift_contraction",
    }
    assert expected_keys.issubset(report.checks.keys())

    csv_path = tmp_path / "spectra.csv"
    report.write_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "lambda,response_exact,response_truncated,error"
    assert len(lines) > 1
    payload = report.to_json_dict()
    assert payload["checks"] == report.checks


@pytest.mark.parametrize("t_max", [0, -2])
def test_spectra_report_rejects_t_max_below_one(t_max):
    rng = np.random.default_rng(22)
    ops = normalize_adjacency(path_graph(5))
    shifts = [feature_shift(rng.standard_normal((5, 3)))]
    with pytest.raises(ValueError, match="t_max"):
        spectra_report(ops, rng.standard_normal((5, 3)), shifts, DualFilterConfig(), t_max=t_max)


@pytest.mark.parametrize("shape", [(6, 3), (5, 4)])
def test_spectra_report_rejects_h_of_wrong_shape(shape):
    rng = np.random.default_rng(23)
    ops = normalize_adjacency(path_graph(5))
    shifts = [feature_shift(rng.standard_normal((5, 3)))]
    with pytest.raises(ValueError, match=r"h must have shape \(5, 3\)"):
        spectra_report(ops, rng.standard_normal(shape), shifts, DualFilterConfig())


def test_spectra_path_graph_strictly_decreasing():
    rng = np.random.default_rng(5)
    ops = normalize_adjacency(path_graph(4))
    z = rng.standard_normal((4, 3))
    shifts = [feature_shift(rng.standard_normal((4, 3)))]
    report = spectra_report(ops, z, shifts, DualFilterConfig(), t_max=10)
    lam = np.asarray(report.node_eigenvalues)
    resp = np.asarray(report.node_response_exact)
    order = np.argsort(lam)
    assert np.all(np.diff(resp[order]) < 0.0)


def test_energy_identity_random_instances():
    for seed in range(4):
        ops, z, shifts = _instance(18, 5, seed=seed, m=2)
        cfg = DualFilterConfig(alpha=1.0 + seed, beta=0.5, t_layers=8)
        h = dual_filter(ops.a_hat, z, shifts, cfg)
        lap = np.eye(18) - ops.a_hat.toarray()
        eigvals, eigvecs = np.linalg.eigh(lap)
        eigvals = np.clip(eigvals, 0.0, None)
        alpha = cfg.alpha
        lhs = alpha * np.trace(h.T @ lap @ h)
        rhs = alpha * np.linalg.norm(np.sqrt(eigvals)[:, None] * (eigvecs.T @ h)) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-8)
