#!/usr/bin/env python3
"""The mmgc benchmark: time to a clustering, peak RSS and quality.

    python3 mmbench/run.py --workload planted-4k --seed 3 --seconds 30 --trace 0

Run from the repository root.  One run times ``datagen.generate`` of the
workload's planted partition, then starts fresh child processes
(``worker.py``) one after another for ``--seconds``.  Each child loads the
dataset three times (timing ``data.load_dataset``) and fits once (timing
``trainer.fit``).  Every fit passes a correctness gate.

Every run repeats the workload's reference training: the default
``TrainConfig`` (training seed 0) on the graph of data seed 0, the instance
the acceptance suite uses.  Children 0, 1, 3, 5, ... run it; they give
``fit_s`` and must give identical assignments.  Children 2, 4, 6, ... train
with seeds drawn from ``--seed``; ``nmi`` and ``ari`` are medians over all
trainings of the run.

With ``--trace 0`` the run prints the end-to-end metrics: ``fit_s`` over the
reference fits, ``setup_s`` over all loads and ``peak_rss_mb`` over all
children, each a median.

With ``--trace 1`` every child runs the reference training, the first one
wraps the program's functions in spans, and the run prints per-layer
metrics; the untraced children give ``trace.overhead_s``.  The fastest
``datagen.generate`` call is a per-layer metric, ``datagen.generate_s``: in
phases when the machine's other tenants are busy, this pure-Python loop
slows by up to 60%, so that across ten runs its spread reached 35% of its
median, more than any end-to-end bound allows.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A report with the environment,
every child's numbers and the spans is written under ``.mmbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".mmbench"

# BLAS threads per process, at most nproc; one thread measured no slower on
# a 2-core machine and keeps a single fit from contending with itself
BLAS_THREADS = min(1, os.cpu_count() or 1)
BLAS_ENV = {
    name: str(BLAS_THREADS)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}

LOAD_REPS = 3         # timed loads per child
GENERATE_SPAN = 1.0   # seconds of timed generate calls, at least one call
CHILD_TIMEOUT = 150.0

# Why one graph and one timed training: across data seeds the NMI of these
# short trainings spreads by 20-50% of its median (0.18 to 0.52 at n=4000),
# and across training seeds on one graph by 10-20%; at n=16000 the k-means
# restarts alone make one fit take 5 s or 10 s depending on the training
# seed.  Timing one fixed training leaves only the machine's noise in fit_s,
# and a median over several trainings steadies the quality.
DATA_SEED = 0
REFERENCE_SEED = 0  # TrainConfig's default


@dataclass(frozen=True)
class Workload:
    """A planted partition shaped like the acceptance suite's, at size n.

    k=4, a 32-d ``text`` and a 24-d ``image`` modality with noise 0.5,
    cross-modal correlation 0.6, and p_in/p_out scaled from 0.05/0.005 at
    n=1000 so that the mean degree stays about 16.  Training uses the
    default ``TrainConfig`` apart from ``epochs`` (cut so that several fits
    fit in one run) and the ablation switch.
    """

    name: str
    n: int
    epochs: int
    no_mod_loss: bool = False

    def synth_config(self, seed: int):
        from mmgc.datagen import ModalitySpec, SynthConfig

        scale = 1000.0 / self.n
        return SynthConfig(
            n=self.n, k=4, p_in=0.05 * scale, p_out=0.005 * scale,
            cross_modal_correlation=0.6, seed=seed,
            modalities=[
                ModalitySpec("text", 32, signal_strength=1.0, noise_sigma=0.5),
                ModalitySpec("image", 24, signal_strength=1.0, noise_sigma=0.5),
            ],
        )

    def train_config(self) -> dict:
        return {"epochs": self.epochs, "no_mod_loss": self.no_mod_loss}


# planted-1k: the reference run at the acceptance size, every layer active,
#   small enough that per-call overhead shows.
# planted-4k: the quadratic layers (cross_modality_loss, interim k-means)
#   dominate and set peak RSS; its ratio to planted-1k is the growth curve.
# nomod-16k: the shipped no_mod_loss ablation bypasses mms_loss entirely, so
#   k-means, the filter and walk sampling dominate and a mms_loss change must
#   predict no change here.  The full model at n=16000 is left out: its dense
#   n x n arrays need about 11 GB.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("planted-1k", 1000, epochs=10),
        Workload("planted-4k", 4000, epochs=1),
        Workload("nomod-16k", 16000, epochs=2, no_mod_loss=True),
    )
}

END_TO_END_UNITS = {"fit_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "nmi": "1", "ari": "1"}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = None  # not a git checkout; src_sha256 still names the code
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "git_rev": rev,
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "data_seed": DATA_SEED,
    }


def time_generate(cfg, out_dir: Path) -> tuple[Path, list[float]]:
    """Time ``datagen.generate`` for ``GENERATE_SPAN`` seconds, at least once;
    every call writes the same files."""
    from mmgc.datagen import generate

    times: list[float] = []
    while sum(times) < GENERATE_SPAN:
        t0 = time.perf_counter()
        summary = generate(cfg, out_dir)
        times.append(time.perf_counter() - t0)
    return summary.manifest, times


def run_child(job: dict) -> dict:
    """Run one worker process to completion and return its report."""
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            env=env, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT, text=True,
        )
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
        return {"ok": False, "error": f"timed out after {CHILD_TIMEOUT:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        report = None
    if proc.returncode != 0 or not isinstance(report, dict):
        return {"ok": False, "error": f"worker exited with code {proc.returncode}"}
    report["wall_s"] = time.perf_counter() - t0
    return report


def training_seed(seed: int, child: int, trace: bool) -> int:
    """The reference training for children 0, 1 and every odd child (every
    child when tracing); a training of its own, drawn from ``seed``, for
    children 2, 4, 6, ..."""
    if trace or child < 2 or child % 2:
        return REFERENCE_SEED
    return REFERENCE_SEED + 1 + seed * 1000 + child


def run_children(job: dict, seconds: float, trace: bool) -> list[dict]:
    """Children back to back until the next one would overrun ``seconds``
    by more than half a child; at least two, so that one training is
    repeated.  The first child is traced when ``trace`` is set."""
    reports: list[dict] = []
    start = time.perf_counter()
    while True:
        seed = training_seed(job["seed"], len(reports), trace)
        child = dict(job, trace=trace and not reports, train=dict(job["train"], seed=seed))
        reports.append(dict(run_child(child), train_seed=seed))
        walls = [r["wall_s"] for r in reports if "wall_s" in r and not r.get("spans")]
        typical = statistics.median(walls) if walls else reports[-1].get("wall_s", 0.0)
        elapsed = time.perf_counter() - start
        if len(reports) >= 2 and elapsed + 0.5 * typical > seconds:
            return reports


def check(reports: list[dict]) -> int:
    """Fail every report whose assignments differ from the first good report
    of the same training seed; return the number of failed operations."""
    first: dict[int, str] = {}
    for r in reports:
        if not r.get("ok"):
            continue
        want = first.setdefault(r["train_seed"], r["digest"])
        if r["digest"] != want:
            r["ok"] = False
            r["error"] = f"assignment digest {r['digest']} differs from {want}"
    return sum(not r.get("ok") for r in reports)


def _median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def end_to_end(reports: list[dict]) -> dict:
    good = [r for r in reports if r.get("ok")]
    per_seed = list({r["train_seed"]: r for r in good}.values())  # one per training
    values = {
        "fit_s": _median(r["fit_s"] for r in good if r["train_seed"] == REFERENCE_SEED),
        "setup_s": _median(t for r in good for t in r["load_s"]),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in good),
        "nmi": _median(r["nmi"] for r in per_seed),
        "ari": _median(r["ari"] for r in per_seed),
    }
    return {name: [v, END_TO_END_UNITS[name], "measured"] for name, v in values.items()}


def per_layer(reports: list[dict], gen_times: list[float]) -> dict:
    traced = reports[0]
    if not traced.get("ok"):
        return {}
    layers = {"datagen.generate_s": [min(gen_times), "s", "measured"], **traced["layers"]}
    plain = _median(r["fit_s"] for r in reports[1:] if r.get("ok"))
    layers["trace.overhead_s"] = [None if plain is None else traced["fit_s"] - plain,
                                  "s", "measured"]
    return layers


def print_report(workload: Workload, seed: int, env: dict, reports: list[dict],
                 gen_times: list[float], metrics: dict) -> None:
    print(f"mmbench {workload.name}: n={workload.n} epochs={workload.epochs} "
          f"no_mod_loss={workload.no_mod_loss} seed={seed}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"generate: {len(gen_times)} calls, min {min(gen_times):.4f} s, "
          f"median {statistics.median(gen_times):.4f} s, max {max(gen_times):.4f} s")
    for i, r in enumerate(reports):
        if r.get("ok"):
            print(f"child {i}{' (traced)' if r.get('spans') else ''}: "
                  f"training seed {r['train_seed']}, fit {r['fit_s']:.4f} s, "
                  f"loads {', '.join(f'{t:.4f}' for t in r['load_s'])} s, "
                  f"rss {r['peak_rss_mb']:.1f} MB, digest {r['digest']}")
        else:
            print(f"child {i}: FAILED: {r.get('error')}")
    fits = sorted(r["fit_s"] for r in reports if r.get("ok") and not r.get("spans")
                  and r["train_seed"] == REFERENCE_SEED)
    if fits:
        print(f"fit_s over {len(fits)} untraced reference fits: median "
              f"{statistics.median(fits):.4f}, min {fits[0]:.4f}, max {fits[-1]:.4f}")
    for name, (value, unit, kind) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:36s} {shown:>14s} {unit:6s} {kind}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="non-negative")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "mmgc" / "__init__.py").is_file():
        print(f"mmbench: no mmgc sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(BLAS_ENV)  # before numpy loads BLAS in this process

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    env = environment(args.seed)
    data_dir = Path(tempfile.mkdtemp(prefix="data-", dir=OUT))
    try:
        manifest, gen_times = time_generate(workload.synth_config(DATA_SEED), data_dir)
        job = {"manifest": str(manifest), "k": 4, "load_reps": LOAD_REPS,
               "seed": args.seed, "train": workload.train_config()}
        reports = run_children(job, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    failed = check(reports)
    metrics = per_layer(reports, gen_times) if args.trace else end_to_end(reports)
    print_report(workload, args.seed, env, reports, gen_times, metrics)
    report_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps({
        "workload": workload.name, "env": env, "generate_s": gen_times,
        "children": reports, "metrics": metrics,
    }, indent=1))
    print(f"report written to {os.path.relpath(report_path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reports),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
