#!/usr/bin/env python3
"""Print the byte-identity digests of every benchmark workload's reference fit
and the values of the diagnose and gradcheck paths.

    python3 scripts/fit_digests.py [--threads N]

For each workload of ``mmbench/run.py`` the script generates the graph of
data seed 0, fits it with the workload's training config and prints three
sha256 prefixes: of ``FitResult.h``, of the assignments as ``<i8`` (the
benchmark's own digest) and of the generated ``edges.txt``.  A ``load`` line
per workload follows, the sha256 prefix of what ``load_dataset`` returned:
the csr ``indptr``, ``indices`` and ``data``, the labels and each modality's
features, each array's dtype and shape included.  A ``forward`` line per
workload gives the sha256 prefixes of what the public ``trainer.forward``
returns at the initial parameters of the workload's training config, with
the script's thread budget: ``h``, then each ``z_i``, then each shift.  Next
come the ``repr`` of each workload's ``all_metrics`` (acc, nmi, f1, ari, cs)
of the reference assignments against the labels.  Then, for each
``no_*`` switch of ``TrainConfig``, it fits planted-1k's graph and config with
that switch on and prints the switch with the ``h`` and assignment digests,
so the branches the workloads skip are covered too.  Last come four more
fits with planted-1k's training config, for paths no workload reaches: a
200-node planted graph (the margin loss scores all pairs, as n - 1 <= 256),
the same graph with k = 1, planted-1k's graph with a third 300-column
modality (three modality pairs, and a modality that spans five of the
outlier repair's 64-column blocks), and planted-1k's graph with its
``text`` modality alone (no modality pair, so pruning scores every pair 0
and keeps every edge).  Then come the ``repr`` of ``distance_correlation``
on nomod-16k's two modalities, as ``mmgc diagnose`` computes it (16000
rows, so the 4000-row subsample runs), and the entries of
``loss_gradient_checks()`` and ``end_to_end_gradient_check`` on planted-1k's
graph cut to 30 nodes, as ``mmgc gradcheck`` runs them.  A change that
claims to keep every output the same prints the same lines as its parent.
BLAS runs with the benchmark's thread count unless the environment sets one.

``--threads N`` passes the thread budget N to every ``fit`` (default: the
CPU count), so byte identity across budgets is one diff of the output with
``--threads 1`` against the output without it.  Over a budget above 1 every
fit splits its node series' columns, runs its margin-loss pairs
concurrently (all lines but ``no_mod_loss`` and ``one-modality``, whose one
pair runs alone), splits the neighborhood loss's scoring blocks (all but
``no_nbr_loss``) and prunes on split blocks (all but ``no_aas``), so on
more than one CPU that diff covers these splits.  The loss layers take the
budget only under one BLAS thread, which the script pins unless the
environment sets a count.  The diagnose and gradcheck lines take no budget.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _loaded(graph) -> str:
    h = hashlib.sha256()
    for a in (graph.edges.indptr, graph.edges.indices, graph.edges.data, graph.labels,
              *(m.x for m in graph.modalities)):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def main() -> None:
    parser = argparse.ArgumentParser(description="Print the byte-identity digests of the "
                                                 "benchmark workloads' reference fits.")
    parser.add_argument("--threads", type=int, default=None,
                        help="thread budget of every fit (default: the CPU count)")
    threads = parser.parse_args().threads
    if threads is not None and threads < 1:
        parser.error(f"--threads must be >= 1, got {threads}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "mmbench")]
    import run  # mmbench/run.py; it imports no numpy, so BLAS is not loaded yet

    for name, value in run.BLAS_ENV.items():
        os.environ.setdefault(name, value)
    from worker import digest  # mmbench/worker.py

    from mmgc.data import induce_subgraph, load_dataset
    from mmgc.datagen import ModalitySpec, generate
    from mmgc.diagnostics import distance_correlation
    from mmgc.metrics import all_metrics
    from mmgc.trainer import (
        TrainConfig,
        end_to_end_gradient_check,
        fit,
        forward,
        init_params,
        loss_gradient_checks,
    )

    def load(synth):
        with tempfile.TemporaryDirectory() as tmp:
            summary = generate(synth, Path(tmp))
            edges = _sha((Path(tmp) / "edges.txt").read_bytes())
            graph, _ = load_dataset(summary.manifest)
        return graph, edges

    print("workload h assignments edges")
    loads = {}
    forwards = {}
    scores = {}
    for name, workload in run.WORKLOADS.items():
        synth = workload.synth_config(run.DATA_SEED)
        graph, edges = load(synth)
        loads[name] = _loaded(graph)
        cfg = TrainConfig(**workload.train_config())
        params = init_params([m.dim for m in graph.modalities], cfg.hidden_dim, cfg.seed)
        cache = forward(graph, params, cfg, threads=threads)[1]
        forwards[name] = [_sha(a.tobytes()) for a in (cache.h, *cache.z_list, *cache.s_list)]
        result = fit(graph, synth.k, cfg, threads=threads)
        scores[name] = all_metrics(graph.labels, result.clustering.assignments)
        print(name, _sha(result.h.tobytes()), digest(result.clustering.assignments), edges,
              flush=True)
        if name == "planted-1k":
            base_graph, base_k = graph, synth.k
        if name == "nomod-16k":
            dcor = distance_correlation(*(m.x.astype("float64") for m in graph.modalities))

    print("workload load")
    for name, loaded in loads.items():
        print(name, loaded, flush=True)

    print("workload forward h z_i... shifts...")
    for name, digests in forwards.items():
        print(name, *digests, flush=True)

    print("workload acc nmi f1 ari cs")
    for name, values in scores.items():
        print(name, *map(repr, values.values()), flush=True)

    base = run.WORKLOADS["planted-1k"]
    print("planted-1k switch h assignments")
    switches = [f.name for f in dataclasses.fields(TrainConfig) if f.name.startswith("no_")]
    for switch in switches:
        cfg = TrainConfig(**{**base.train_config(), switch: True})
        result = fit(base_graph, base_k, cfg, threads=threads)
        print(switch, _sha(result.h.tobytes()), digest(result.clustering.assignments),
              flush=True)

    print("planted-1k config h assignments")
    small, _ = load(dataclasses.replace(base, n=200).synth_config(run.DATA_SEED))
    wide = base.synth_config(run.DATA_SEED)
    wide.modalities.append(ModalitySpec("audio", 300, signal_strength=1.0, noise_sigma=0.5))
    three, _ = load(wide)
    one = dataclasses.replace(base_graph, modalities=[base_graph.modality("text")])
    for name, graph, k in (("n200", small, base_k), ("n200-k1", small, 1),
                           ("three-modalities", three, base_k), ("one-modality", one, base_k)):
        result = fit(graph, k, TrainConfig(**base.train_config()), threads=threads)
        print(name, _sha(result.h.tobytes()), digest(result.clustering.assignments),
              flush=True)

    print("nomod-16k distance_correlation", repr(dcor))
    print("planted-1k gradcheck --n-cap 30 max_rel_error tolerance")
    sub = induce_subgraph(base_graph, 30)
    entries = (loss_gradient_checks().entries
               + end_to_end_gradient_check(sub, base_k, TrainConfig()).entries)
    for entry in entries:
        print(entry.name, repr(entry.max_rel_error), entry.tolerance, flush=True)


if __name__ == "__main__":
    main()
