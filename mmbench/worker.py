"""One benchmark repetition, run in a fresh process: load, fit, check.

    python3 mmbench/worker.py '<job as JSON>'

The job names a dataset manifest, the cluster count, ``TrainConfig``
fields and whether to trace.  The last line printed is a JSON object with
the timings, ``ru_maxrss``, quality against the planted labels, an
assignment digest and, when traced, the spans and per-layer metrics.
A load or fit that raises, or a result that fails the gate, is reported
with ``"ok": false`` rather than timed.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from spans import Tracer, children, duration, self_time

# trainer imports its callees by name, so they are traced where it looks them
# up; mms_loss is looked up inside losses by cross_modality_loss.
# (module, attribute, span name, record tracemalloc peak)
TRACED = (
    ("trainer", "normalize_adjacency", "data.normalize_adjacency", False),
    ("trainer", "feature_shift", "filters.feature_shift", False),
    ("trainer", "dual_filter", "filters.dual_filter", False),
    ("trainer", "dual_filter_vjp", "filters.dual_filter_vjp", False),
    ("trainer", "prune_graph", "losses.prune_graph", False),
    ("trainer", "sample_neighborhoods", "losses.sample_neighborhoods", False),
    ("trainer", "cross_modality_loss", "losses.cross_modality_loss", True),
    ("losses", "mms_loss", "losses.mms_loss", False),
    ("trainer", "neighborhood_loss", "losses.neighborhood_loss", True),
    ("trainer", "community_loss", "losses.community_loss", False),
    ("trainer", "hard_positive_sets", "losses.hard_positive_sets", False),
    ("trainer", "kmeans_fit", "kmeans.kmeans_fit", False),
)


def _note_nnz(args, kwargs, ops):
    return {"nnz": int(ops.a_hat.nnz)}


def _note_mms(args, kwargs, result):
    n = int(np.shape(args[0])[0])
    cap = kwargs.get("negative_cap")
    return {"rows": n, "impostors": n - 1 if cap is None else min(int(cap), n - 1)}


def _note_iters(args, kwargs, clustering):
    return {"iters": int(clustering.iterations)}


NOTES = {
    "data.normalize_adjacency": _note_nnz,
    "losses.mms_loss": _note_mms,
    "kmeans.kmeans_fit": _note_iters,
}


def digest(assignments: np.ndarray) -> str:
    data = np.ascontiguousarray(assignments, dtype="<i8").tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def gate(result, n: int, k: int, epochs: int) -> str | None:
    """Why a fit result must count as a failed operation, or None."""
    if len(result.epoch_logs) != epochs:
        return f"logged {len(result.epoch_logs)} of {epochs} epochs (training stopped early)"
    if not np.isfinite(result.h).all():
        return "embedding h has non-finite entries"
    a = np.asarray(result.clustering.assignments)
    if a.shape != (n,) or not np.issubdtype(a.dtype, np.integer):
        return f"assignments have shape {a.shape} and dtype {a.dtype}, expected ({n},) integers"
    if a.size and (a.min() < 0 or a.max() >= k):
        return f"assignments outside [0, {k})"
    return None


def layer_metrics(spans: list[dict], t_layers: int, hidden: int) -> dict:
    """Per-layer metrics from the spans of one traced load-and-fit.

    Returns ``{name: [value, unit, kind]}``; kind is "measured" or
    "computed" (a count derived from call counts and sizes, which repeats
    exactly for a fixed seed).
    """
    fit_idx = next(i for i, s in enumerate(spans) if s["name"] == "trainer.fit")

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return float(sum(duration(s) for s in named(name)))

    def peak(name):
        return max((s["peak_mb"] for s in named(name)), default=0.0)

    km = named("kmeans.kmeans_fit")  # the last call is the final clustering
    interim, final = km[:-1], km[-1:]
    filters_run = len(named("filters.dual_filter")) + len(named("filters.dual_filter_vjp"))
    nnz = named("data.normalize_adjacency")[0]["nnz"]
    mms = named("losses.mms_loss")
    # one forward per epoch plus the first and last; epoch e runs from the
    # start of its forward's filter to the start of the next one
    forward_starts = [s["start"] for s in children(spans, fit_idx)
                      if s["name"] == "filters.dual_filter"]
    epochs = np.diff(forward_starts[1:])

    m = {
        "data.load_dataset_s": (statistics.median(duration(s) for s in named("data.load_dataset")), "s"),
        "data.normalize_adjacency_s": (total("data.normalize_adjacency"), "s"),
        "filters.feature_shift_s": (total("filters.feature_shift"), "s"),
        "filters.feature_shift_calls": (len(named("filters.feature_shift")), "count"),
        "filters.dual_filter_s": (total("filters.dual_filter"), "s"),
        "filters.dual_filter_calls": (len(named("filters.dual_filter")), "count"),
        "filters.dual_filter_vjp_s": (total("filters.dual_filter_vjp"), "s"),
        "filters.node_pass_flops": (filters_run * t_layers * nnz * hidden * 2, "flop", "computed"),
        "losses.cross_modality_loss_s": (total("losses.cross_modality_loss"), "s"),
        "losses.cross_modality_loss_peak_mb": (peak("losses.cross_modality_loss"), "MB"),
        "losses.mms_loss_calls": (len(mms), "count"),
        "losses.mms_scored_pairs": (sum(s["rows"] ** 2 for s in mms), "pairs", "computed"),
        "losses.mms_used_ratio": (
            (2 * mms[0]["impostors"] + 1) / mms[0]["rows"] if mms else 0.0, "1", "computed"),
        "losses.sample_neighborhoods_s": (total("losses.sample_neighborhoods"), "s"),
        "losses.neighborhood_loss_s": (total("losses.neighborhood_loss"), "s"),
        "losses.neighborhood_loss_peak_mb": (peak("losses.neighborhood_loss"), "MB"),
        "losses.prune_graph_s": (total("losses.prune_graph"), "s"),
        "losses.community_loss_s": (total("losses.community_loss"), "s"),
        "losses.hard_positive_sets_s": (total("losses.hard_positive_sets"), "s"),
        "kmeans.interim_s": (float(sum(duration(s) for s in interim)), "s"),
        "kmeans.interim_calls": (len(interim), "count"),
        "kmeans.interim_iters": (sum(s["iters"] for s in interim), "iters", "computed"),
        "kmeans.final_s": (float(sum(duration(s) for s in final)), "s"),
        "kmeans.final_iters": (sum(s["iters"] for s in final), "iters", "computed"),
        "trainer.epoch_s": (float(np.median(epochs)) if epochs.size else 0.0, "s"),
        "trainer.self_s": (self_time(spans, fit_idx), "s"),
        "trainer.fit_s": (duration(spans[fit_idx]), "s"),
    }
    return {name: [v[0], v[1], v[2] if len(v) > 2 else "measured"] for name, v in m.items()}


def run_job(job: dict) -> dict:
    """Load and fit as ``job`` says; never raises for a failure of the program."""
    from mmgc import data, losses, metrics, trainer

    tracer = Tracer() if job.get("trace") else None
    out: dict = {"ok": False, "error": None, "load_s": []}
    cfg = trainer.TrainConfig(**job["train"])
    try:
        for _ in range(job.get("load_reps", 1)):
            t0 = time.perf_counter()
            if tracer:
                graph, _ = tracer.call("data.load_dataset", data.load_dataset, (job["manifest"],))
            else:
                graph, _ = data.load_dataset(job["manifest"])
            out["load_s"].append(time.perf_counter() - t0)
        k = job["k"]
        if tracer:
            modules = {"trainer": trainer, "losses": losses}
            for module, attr, name, memory in TRACED:
                tracer.wrap(modules[module], attr, name, memory=memory, note=NOTES.get(name))
            t0 = time.perf_counter()
            with tracer:
                result = tracer.call("trainer.fit", trainer.fit, (graph, k, cfg))
        else:
            t0 = time.perf_counter()
            result = trainer.fit(graph, k, cfg)
        out["fit_s"] = time.perf_counter() - t0
    except Exception as exc:  # any failure of load or fit is a failed operation
        traceback.print_exc(file=sys.stderr)
        out["error"] = f"{type(exc).__name__}: {exc}"
        return out

    out["error"] = gate(result, graph.n_nodes, k, cfg.epochs)
    if out["error"] is None:
        out["ok"] = True
        a = result.clustering.assignments
        out["digest"] = digest(a)
        out["nmi"] = float(metrics.nmi(graph.labels, a))
        out["ari"] = float(metrics.ari(graph.labels, a))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        out["spans"] = tracer.spans
        out["layers"] = layer_metrics(tracer.spans, cfg.t_layers, cfg.hidden_dim)
    return out


if __name__ == "__main__":
    print(json.dumps(run_job(json.loads(sys.argv[1]))))
