"""Tests of the benchmark itself, on tiny graphs.

    python3 -m pytest -q mmbench
"""

from __future__ import annotations

import io
import json
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import worker  # noqa: E402
from spans import Tracer, self_time  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = run.Workload("planted-1k", 120, epochs=2)


@pytest.fixture
def bench(monkeypatch, tmp_path):
    """The benchmark with planted-1k shrunk to n=120, reports under tmp_path."""
    for name, value in run.BLAS_ENV.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(run.WORKLOADS, "planted-1k", TINY)
    return tmp_path


@pytest.fixture
def manifest(tmp_path):
    from mmgc.datagen import generate

    return generate(TINY.synth_config(0), tmp_path / "data").manifest


def _run(*argv) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(list(argv)) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_metric_with_its_unit(bench, trace, kind):
    result = _run("--workload", "planted-1k", "--seed", "3", "--seconds", "0",
                  "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert list(bench.glob("planted-1k-seed3-*.json"))


def test_traced_layers_add_up_to_fit(bench):
    metrics = {k: v["value"] for k, v in _run(
        "--workload", "planted-1k", "--seed", "0", "--seconds", "0", "--trace", "1",
    )["metrics"].items()}
    top_level = [
        "data.normalize_adjacency_s", "filters.feature_shift_s", "filters.dual_filter_s",
        "filters.dual_filter_vjp_s", "losses.cross_modality_loss_s",
        "losses.sample_neighborhoods_s", "losses.neighborhood_loss_s",
        "losses.prune_graph_s", "losses.community_loss_s", "losses.hard_positive_sets_s",
        "kmeans.interim_s", "kmeans.final_s", "trainer.self_s",
    ]
    assert sum(metrics[k] for k in top_level) == pytest.approx(metrics["trainer.fit_s"])
    # forwards: one before training, one per epoch, one at the end
    assert metrics["filters.dual_filter_calls"] == TINY.epochs + 2
    assert metrics["kmeans.interim_calls"] == 1
    assert metrics["losses.mms_loss_calls"] == 3 * TINY.epochs  # 3 unordered pairs
    assert metrics["losses.mms_scored_pairs"] == 3 * TINY.epochs * TINY.n**2


def test_nomod_run_never_enters_mms_loss(manifest):
    out = worker.run_job({"manifest": str(manifest), "k": 4, "trace": True,
                          "train": dict(TINY.train_config(), no_mod_loss=True)})
    assert out["ok"]
    layers = {k: v[0] for k, v in out["layers"].items()}
    assert layers["losses.cross_modality_loss_s"] == 0.0
    assert layers["losses.mms_loss_calls"] == 0
    assert layers["losses.cross_modality_loss_peak_mb"] == 0.0


def test_gate_counts_divergence_and_corrupt_manifest(bench, manifest, tmp_path):
    job = {"manifest": str(manifest), "k": 4, "load_reps": 1, "seed": 0,
           "train": dict(TINY.train_config(), lr=1e300)}
    reports = run.run_children(job, 0.0, trace=False)
    assert run.check(reports) == len(reports) == 2

    corrupt = tmp_path / "corrupt" / "manifest.txt"
    corrupt.parent.mkdir()
    corrupt.write_text("edges = edges.txt\nmodality.text.features = missing.bin\n")
    reports = run.run_children(dict(job, manifest=str(corrupt)), 0.0, trace=False)
    assert run.check(reports) == len(reports) == 2
    assert all(not r["ok"] and r["error"] for r in reports)


def test_gate_catches_a_silent_early_stop():
    n, k = 6, 2
    good = SimpleNamespace(
        epoch_logs=[None] * 3, h=np.ones((n, 4)),
        clustering=SimpleNamespace(assignments=np.array([0, 1] * 3)),
    )
    assert worker.gate(good, n, k, epochs=3) is None
    assert "stopped early" in worker.gate(good, n, k, epochs=4)
    bad_h = SimpleNamespace(**{**vars(good), "h": np.full((n, 4), np.nan)})
    assert "non-finite" in worker.gate(bad_h, n, k, epochs=3)
    out_of_range = SimpleNamespace(
        **{**vars(good), "clustering": SimpleNamespace(assignments=np.arange(n))})
    assert "outside" in worker.gate(out_of_range, n, k, epochs=3)


def test_check_fails_a_repetition_with_another_digest():
    reports = [{"ok": True, "digest": "a", "train_seed": 0},
               {"ok": True, "digest": "b", "train_seed": 0},
               {"ok": True, "digest": "c", "train_seed": 1}]
    assert run.check(reports) == 1
    assert not reports[1]["ok"] and "differs" in reports[1]["error"]
    assert reports[2]["ok"]  # another training seed may cluster differently


def test_children_alternate_reference_and_seeded_trainings():
    ref = run.REFERENCE_SEED
    seeds = [run.training_seed(7, child, trace=False) for child in range(7)]
    assert seeds[:2] == [ref, ref] and seeds[3] == seeds[5] == ref
    assert len({seeds[2], seeds[4], seeds[6], ref}) == 4
    assert seeds[2] != run.training_seed(8, 2, trace=False)
    assert {run.training_seed(7, child, trace=True) for child in range(7)} == {ref}


def test_tracer_records_parents_self_time_and_restores():
    box = SimpleNamespace(inner=lambda: time.sleep(0.01), outer=None)
    box.outer = lambda: (box.inner(), box.inner())
    tracer = Tracer()
    with tracer:
        tracer.wrap(box, "inner", "inner")
        tracer.call("outer", box.outer)
    assert [s["name"] for s in tracer.spans] == ["outer", "inner", "inner"]
    assert [s["parent"] for s in tracer.spans] == [None, 0, 0]
    assert 0.0 <= self_time(tracer.spans, 0) < 0.01
    assert not hasattr(box.inner, "__wrapped__") and box.inner.__name__ == "<lambda>"


def test_memory_span_sees_a_temporary_allocation():
    tracer = Tracer()
    tracer.call("alloc", lambda: np.ones(2**20).sum(), memory=True)  # 8 MiB
    assert tracer.spans[0]["peak_mb"] >= 7.9


def test_run_refuses_a_checkout_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "planted-1k", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
