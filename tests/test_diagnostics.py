"""Distance correlation and z-score outlier scans."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmgc import diagnostics
from mmgc.diagnostics import OutlierReport, distance_correlation, zscore_outliers


# ------------------------------------------------------- distance correlation

def test_dcor_self_is_one():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((200, 5))
    assert distance_correlation(x, x) == pytest.approx(1.0, abs=1e-9)


def test_dcor_independent_samples_near_zero():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2000, 3))
    y = rng.standard_normal((2000, 4))
    assert distance_correlation(x, y) <= 0.1


def test_dcor_detects_deterministic_dependence():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((300, 2))
    y = np.tanh(x) + 0.01 * rng.standard_normal((300, 2))
    assert distance_correlation(x, y) > 0.9


def test_dcor_translation_invariant():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((100, 3))
    y = rng.standard_normal((100, 2))
    base = distance_correlation(x, y)
    shifted = distance_correlation(x + 7.5, y - 3.25)
    assert shifted == pytest.approx(base, abs=1e-12)


def test_dcor_orthogonal_invariant():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((120, 3))
    y = rng.standard_normal((120, 3))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    base = distance_correlation(x, y)
    rotated = distance_correlation(x @ q, y)
    assert rotated == pytest.approx(base, abs=1e-10)


def test_dcor_promotes_1d_inputs():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(150)
    assert distance_correlation(x, x) == pytest.approx(1.0, abs=1e-9)
    assert distance_correlation(x, x[:, None]) == pytest.approx(1.0, abs=1e-9)


def test_dcor_degenerate_inputs():
    assert distance_correlation(np.zeros((1, 2)), np.zeros((1, 2))) == 0.0
    assert distance_correlation(np.empty((0, 2)), np.empty((0, 2))) == 0.0
    # constant sample: zero distance variance
    x = np.ones((50, 3))
    y = np.random.default_rng(6).standard_normal((50, 3))
    assert distance_correlation(x, y) == 0.0


def test_dcor_errors():
    with pytest.raises(ValueError, match="same number of rows"):
        distance_correlation(np.zeros((3, 2)), np.zeros((4, 2)))
    bad = np.ones((5, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        distance_correlation(bad, np.ones((5, 2)))


def test_dcor_subsample_cap_deterministic(monkeypatch):
    monkeypatch.setattr(diagnostics, "_DCOR_ROW_CAP", 200)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((600, 2))
    y = x + 0.1 * rng.standard_normal((600, 2))
    a = distance_correlation(x, y)
    b = distance_correlation(x, y)
    assert a == b
    # the subsample still sees the dependence
    assert a > 0.9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_dcor_bounded(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    x = rng.standard_normal((n, int(rng.integers(1, 4))))
    y = rng.standard_normal((n, int(rng.integers(1, 4))))
    value = distance_correlation(x, y)
    assert 0.0 <= value <= 1.0 + 1e-12


# ------------------------------------------------------------ outlier scan

def test_zscore_small_spike_stays_unflagged():
    # [1,1,1,1,100]: mean 20.8, population std 39.6 -> z = 2.0 at the spike
    x = np.array([[1.0], [1.0], [1.0], [1.0], [100.0]])
    report = zscore_outliers(x, tau=4.0)
    assert report.entries_flagged == 0
    assert report.rows_flagged == 0


def test_zscore_extreme_spike_flagged():
    x = np.zeros((100, 3))
    x[17, 1] = 1000.0
    report = zscore_outliers(x, tau=4.0)
    assert report.entry_mask[17, 1]
    assert report.entries_flagged == 1
    assert report.rows_flagged == 1 and report.cols_flagged == 1
    assert report.cols_skipped == 2  # untouched columns are constant
    assert report.pct_nodes_with_outlier == pytest.approx(1.0)


def test_zscore_constant_columns_skipped():
    x = np.column_stack([np.full(50, 3.0), np.arange(50, dtype=np.float64)])
    report = zscore_outliers(x, tau=4.0)
    assert report.cols_skipped == 1
    assert report.entries_flagged == 0  # uniform ramp has max |z| < 2


def test_zscore_positive_affine_invariance():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((200, 4))
    x[5, 2] = 50.0
    base = zscore_outliers(x, tau=4.0)
    scaled = zscore_outliers(3.5 * x - 11.0, tau=4.0)
    assert np.array_equal(base.entry_mask, scaled.entry_mask)


def test_zscore_tau_monotone():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((500, 3))
    loose = zscore_outliers(x, tau=2.0)
    tight = zscore_outliers(x, tau=4.0)
    assert tight.entries_flagged <= loose.entries_flagged


def test_zscore_validation():
    with pytest.raises(ValueError, match="2-d"):
        zscore_outliers(np.zeros(5))
    with pytest.raises(ValueError, match="positive"):
        zscore_outliers(np.zeros((3, 2)), tau=0.0)


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), -float("inf")])
def test_zscore_rejects_non_finite_tau(tau):
    with pytest.raises(ValueError, match="tau"):
        zscore_outliers(np.zeros((3, 2)), tau=tau)


def test_zscore_report_serialization():
    x = np.zeros((10, 2))
    x[0, 0] = 100.0
    report = zscore_outliers(x, tau=4.0, modality="text")
    d = report.to_json_dict()
    assert d["modality"] == "text"
    assert d["rows"] == 10 and d["cols"] == 2
    assert d["rows_flagged"] == report.rows_flagged
    assert set(d) == {
        "modality", "tau", "rows", "cols", "rows_flagged", "cols_flagged",
        "entries_flagged", "cols_skipped",
        "pct_nodes_with_outlier", "pct_features_with_outlier",
    }


def test_zscore_empty_report_percentages():
    report = OutlierReport(
        tau=4.0, n_rows=0, n_cols=0, entry_mask=np.zeros((0, 0), dtype=bool),
        rows_flagged=0, cols_flagged=0, entries_flagged=0, cols_skipped=0,
    )
    assert report.pct_nodes_with_outlier == 0.0
    assert report.pct_features_with_outlier == 0.0
