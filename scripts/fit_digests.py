#!/usr/bin/env python3
"""Print the byte-identity digests of every benchmark workload's reference fit.

    python3 scripts/fit_digests.py

For each workload of ``mmbench/run.py`` the script generates the graph of
data seed 0, fits it with the workload's training config and prints three
sha256 prefixes: of ``FitResult.h``, of the assignments as ``<i8`` (the
benchmark's own digest) and of the generated ``edges.txt``.  A change that
claims to keep every output the same prints the same lines as its parent.
BLAS runs with the benchmark's thread count unless the environment sets one.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "mmbench")]
    import run  # mmbench/run.py; it imports no numpy, so BLAS is not loaded yet

    for name, value in run.BLAS_ENV.items():
        os.environ.setdefault(name, value)
    from worker import digest  # mmbench/worker.py

    from mmgc.data import load_dataset
    from mmgc.datagen import generate
    from mmgc.trainer import TrainConfig, fit

    print("workload h assignments edges")
    for name, workload in run.WORKLOADS.items():
        synth = workload.synth_config(run.DATA_SEED)
        with tempfile.TemporaryDirectory() as tmp:
            summary = generate(synth, Path(tmp))
            edges = _sha((Path(tmp) / "edges.txt").read_bytes())
            graph, _ = load_dataset(summary.manifest)
        result = fit(graph, synth.k, TrainConfig(**workload.train_config()))
        print(name, _sha(result.h.tobytes()), digest(result.clustering.assignments), edges,
              flush=True)


if __name__ == "__main__":
    main()
