"""Command line front end.

Subcommands:

* ``generate``  sample a synthetic dataset from a key=value config
* ``diagnose``  cross-modal distance correlation and outlier screening
* ``cluster``   train, cluster, and write assignments plus metrics
* ``spectra``   frequency-response report for the configured filter
* ``gradcheck`` finite-difference verification of the analytic gradients

Every command accepts ``--threads``; the value is a worker hint only and
never changes numeric results (runs are reproducible for a fixed seed
regardless of it).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .data import (
    induce_subgraph,
    load_dataset,
    normalize_adjacency,
    parse_keyvalues,
    write_feature_matrix,
)
from .datagen import ModalitySpec, SynthConfig, generate
from .diagnostics import OUTLIER_TAU, distance_correlation, zscore_outliers
from .filters import spectra_report
from .metrics import all_metrics
from .trainer import (
    TrainConfig,
    end_to_end_gradient_check,
    fit,
    forward,
    init_params,
    loss_gradient_checks,
)

_METRIC_ORDER = ("acc", "nmi", "f1", "ari", "cs")

# config-file spellings of the numeric training options
_TRAIN_KEYS = {
    "alpha": float,
    "beta": float,
    "t_layers": int,
    "theta": float,
    "delta": float,
    "walk_length": int,
    "negatives_per_node": int,
    "lr": float,
    "weight_decay": float,
    "epochs": int,
    "kmeans_interval": int,
    "hidden_dim": int,
    "mms_negatives": int,
    "seed": int,
}
_TRAIN_FLAGS = ("no_fdd", "no_mod_loss", "no_nbr_loss", "no_aas", "no_comm_loss", "no_hps")


def _fail(message: str) -> "SystemExit":
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"{key} must be a boolean, got {raw!r}")


def _synth_config(path: Path) -> SynthConfig:
    pairs = parse_keyvalues(path)
    scalars = {
        "n": int,
        "k": int,
        "p_in": float,
        "p_out": float,
        "outlier_rate": float,
        "cross_modal_correlation": float,
        "seed": int,
    }
    kwargs: dict = {}
    modalities: dict[str, dict] = {}
    for key, raw in pairs.items():
        if key in scalars:
            kwargs[key] = scalars[key](raw)
            continue
        parts = key.split(".")
        if len(parts) == 3 and parts[0] == "modality":
            _, name, attr = parts
            spec = modalities.setdefault(name, {})
            if attr == "dim":
                spec["dim"] = int(raw)
            elif attr in ("signal_strength", "noise_sigma"):
                spec[attr] = float(raw)
            else:
                raise ValueError(f"unknown modality option {key!r}")
            continue
        raise ValueError(f"unknown config key {key!r}")
    for required in ("n", "k", "p_in", "p_out"):
        if required not in kwargs:
            raise ValueError(f"config is missing {required!r}")
    if not modalities:
        raise ValueError("config defines no modalities (modality.<name>.dim = ...)")
    specs = []
    for name, attrs in modalities.items():
        if "dim" not in attrs:
            raise ValueError(f"modality {name!r} is missing dim")
        specs.append(ModalitySpec(name=name, **attrs))
    return SynthConfig(modalities=specs, **kwargs)


def _train_config_from_file(path: Path) -> tuple[dict, int | None]:
    """Returns (TrainConfig overrides, clusters or None)."""
    pairs = parse_keyvalues(path)
    overrides: dict = {}
    clusters = None
    for key, raw in pairs.items():
        if key == "clusters":
            clusters = int(raw)
        elif key in _TRAIN_KEYS:
            overrides[key] = _TRAIN_KEYS[key](raw)
        elif key in _TRAIN_FLAGS:
            overrides[key] = _parse_bool(raw, key)
        else:
            raise ValueError(f"unknown config key {key!r}")
    return overrides, clusters


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count() or 1,
        help="worker hint; results do not depend on it",
    )

    parser = argparse.ArgumentParser(
        prog="mmgc", description="multimodal attributed-graph clustering"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common],
                       help="sample a synthetic dataset")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)

    p = sub.add_parser("diagnose", parents=[common],
                       help="cross-modal correlation and outlier report")
    p.add_argument("--data", required=True, type=Path, help="manifest path")
    p.add_argument("--tau", type=float, default=OUTLIER_TAU)

    p = sub.add_parser("cluster", parents=[common],
                       help="train and cluster a dataset")
    p.add_argument("--data", required=True, type=Path, help="manifest path")
    p.add_argument("--config", type=Path, help="key=value training options")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--k", type=int, help="cluster count override")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--t", dest="t_layers", type=int)
    p.add_argument("--theta", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--walk-len", dest="walk_length", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--hidden-dim", dest="hidden_dim", type=int)
    p.add_argument("--kmeans-interval", dest="kmeans_interval", type=int)
    p.add_argument("--mms-negatives", dest="mms_negatives", type=int)
    p.add_argument("--seed", type=int)
    for flag in _TRAIN_FLAGS:
        p.add_argument(f"--{flag.replace('_', '-')}", dest=flag,
                       action="store_true", default=None)

    p = sub.add_parser("spectra", parents=[common],
                       help="filter frequency-response verification")
    p.add_argument("--data", required=True, type=Path, help="manifest path")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--t", dest="t_layers", type=int, default=10)
    p.add_argument("--t-max", dest="t_max", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=Path("."),
                   help="directory for spectra.csv/.json (default: cwd)")

    p = sub.add_parser("gradcheck", parents=[common],
                       help="finite-difference gradient verification")
    p.add_argument("--data", required=True, type=Path, help="manifest path")
    p.add_argument("--n-cap", dest="n_cap", type=int, default=30)
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_generate(args) -> int:
    cfg = _synth_config(args.config)
    summary = generate(cfg, args.out)
    for name, coords in summary.spikes.items():
        if coords.size:
            path = Path(args.out) / f"{name}.spikes.csv"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("row,col\n")
                for r, c in coords:
                    fh.write(f"{r},{c}\n")
    print(f"manifest {summary.manifest}")
    print(f"nodes {cfg.n}")
    print(f"edges {summary.n_edges}")
    return 0


def _cmd_diagnose(args) -> int:
    graph, _ = load_dataset(args.data)
    xs = {m.name: m.x.astype(np.float64) for m in graph.modalities}
    names = list(xs)
    pairs = []
    values = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            value = distance_correlation(xs[names[i]], xs[names[j]])
            pairs.append(
                {"modalities": [names[i], names[j]], "distance_correlation": value}
            )
            values.append(value)
    outliers = {
        name: zscore_outliers(x, tau=args.tau, modality=name).to_json_dict()
        for name, x in xs.items()
    }
    report = {
        "tau": args.tau,
        "cross_modal": pairs,
        "average_distance_correlation": float(np.mean(values)) if values else None,
        "outliers": outliers,
    }
    print(json.dumps(report, indent=2))
    return 0


def _resolve_train_config(args) -> tuple[TrainConfig, int | None]:
    overrides: dict = {}
    clusters = None
    if args.config is not None:
        overrides, clusters = _train_config_from_file(args.config)
    for key in list(_TRAIN_KEYS) + list(_TRAIN_FLAGS):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    cfg = dataclasses.replace(TrainConfig(), **overrides)
    return cfg, clusters


def _cmd_cluster(args) -> int:
    graph, manifest_clusters = load_dataset(args.data)
    cfg, config_clusters = _resolve_train_config(args)
    k = args.k if args.k is not None else config_clusters
    if k is None:
        k = manifest_clusters
    if k is None:
        raise ValueError(
            "cluster count not given: pass --k, set clusters in the config, "
            "or record clusters in the manifest"
        )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = fit(graph, k, cfg, log_path=out / "epochs.jsonl")
    if result.stopped_at is not None:
        print(f"warning: training diverged at epoch {result.stopped_at}; "
              "kept the last finite parameters", file=sys.stderr)
    for m, rep in zip(graph.modalities, result.repairs):
        print(f"repaired {m.name} {rep.entries_replaced} entries "
              f"({rep.sparse_columns} sparse columns left alone)")

    with open(out / "assignments.csv", "w", encoding="utf-8") as fh:
        fh.write("node_id,cluster\n")
        for node, c in enumerate(result.clustering.assignments):
            fh.write(f"{node},{int(c)}\n")

    for m, w in zip(graph.modalities, result.params.weights):
        write_feature_matrix(out / f"projection_{m.name}.bin", w.astype(np.float32))

    if graph.labels is not None and (graph.labels >= 0).any():
        mask = graph.labels >= 0
        scores = all_metrics(
            graph.labels[mask], result.clustering.assignments[mask]
        )
        with open(out / "metrics.json", "w", encoding="utf-8") as fh:
            json.dump({k_: scores[k_] for k_ in _METRIC_ORDER}, fh, indent=2)
            fh.write("\n")
        for name in _METRIC_ORDER:
            print(f"{name} {100.0 * scores[name]:.2f}%")
    else:
        print("no ground-truth labels; skipping metrics")
    return 0


def _cmd_spectra(args) -> int:
    graph, _ = load_dataset(args.data)
    cfg = TrainConfig(alpha=args.alpha, beta=args.beta, t_layers=args.t_layers, seed=args.seed)
    params = init_params(
        [m.dim for m in graph.modalities], cfg.hidden_dim, cfg.seed
    )
    _, s_list, z, _ = forward(graph, params, cfg)
    ops = normalize_adjacency(graph.edges)
    report = spectra_report(ops, z, s_list, cfg.filter_config(), t_max=args.t_max)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report.write_csv(out / "spectra.csv")
    with open(out / "spectra.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")
    for name, ok in report.checks.items():
        print(f"{name}: {'pass' if ok else 'FAIL'}")
    return 0 if report.passed else 1


def _cmd_gradcheck(args) -> int:
    graph, manifest_clusters = load_dataset(args.data)
    sub = induce_subgraph(graph, args.n_cap)
    k = args.k if args.k is not None else manifest_clusters
    if k is None:
        k = 4
    k = max(1, min(k, sub.n_nodes))
    cfg = TrainConfig(seed=args.seed)

    ok = True
    for title, report in (
        ("loss gradients", loss_gradient_checks(seed=args.seed)),
        ("end-to-end step gradient", end_to_end_gradient_check(sub, k, cfg, seed=args.seed)),
    ):
        print(title)
        for entry in report.entries:
            status = "pass" if entry.passed else "FAIL"
            print(
                f"  {entry.name}: max_rel_error={entry.max_rel_error:.3e} "
                f"tol={entry.tolerance:.1e} {status}"
            )
        ok = ok and report.passed
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "diagnose": _cmd_diagnose,
        "cluster": _cmd_cluster,
        "spectra": _cmd_spectra,
        "gradcheck": _cmd_gradcheck,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, KeyError) as exc:
        raise _fail(str(exc)) from exc


if __name__ == "__main__":
    raise SystemExit(main())
