"""Command line front end.

Subcommands:

* ``generate``  sample a synthetic dataset from a key=value config
* ``diagnose``  cross-modal distance correlation and outlier screening
* ``cluster``   train, cluster, and write assignments plus metrics
* ``spectra``   frequency-response report for the configured filter
* ``gradcheck`` finite-difference verification of the analytic gradients

Only ``cluster`` accepts ``--threads``, its thread budget (default: the
CPU count; it must be >= 1); ``parallel.py`` describes what it bounds.
``spectra`` and ``gradcheck`` run on the default budget.  With a budget
above 1 and no BLAS thread count set in the environment, ``cluster`` notes
on stderr that one BLAS thread per process avoids contention with these
threads.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing
from pathlib import Path

import numpy as np

from .data import induce_subgraph, load_dataset, parse_keyvalues, write_feature_matrix
from .datagen import ModalitySpec, SynthConfig, generate
from .diagnostics import OUTLIER_TAU, distance_correlation, zscore_outliers
from .filters import _DENSE_LIMIT, DualFilterConfig, spectra_report
from .metrics import all_metrics
from .parallel import blas_pinned, thread_budget
from .trainer import (
    TrainConfig,
    end_to_end_gradient_check,
    fit,
    forward,
    init_params,
    loss_gradient_checks,
)

# the two historic flag spellings; every other option is --field-name
_FLAG_SPELLINGS = {"t_layers": "--t", "walk_length": "--walk-len"}


def _option_types(cls) -> dict[str, type]:
    """The int, float and bool fields of a config dataclass."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)
            if hints[f.name] in (int, float, bool)}


_TRAIN_OPTIONS = _option_types(TrainConfig)


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


def _parse_value(tp: type, raw: str, key: str):
    if tp is bool:
        return _parse_bool(raw, key)
    try:
        return tp(raw)
    except ValueError:
        raise ValueError(f"{key} must parse as {tp.__name__}, got {raw!r}") from None


def _check_required(cls, given, where: str) -> None:
    for f in dataclasses.fields(cls):
        if f.name not in given and f.default is f.default_factory is dataclasses.MISSING:
            raise ValueError(f"{where} is missing {f.name!r}")


def _synth_config(path: Path) -> SynthConfig:
    scalars = _option_types(SynthConfig)
    attrs = _option_types(ModalitySpec)
    kwargs: dict = {}
    modalities: dict[str, dict] = {}
    for key, raw in parse_keyvalues(path).items():
        parts = key.split(".")
        if key in scalars:
            kwargs[key] = _parse_value(scalars[key], raw, key)
        elif len(parts) == 3 and parts[0] == "modality" and parts[2] in attrs:
            spec = modalities.setdefault(parts[1], {"name": parts[1]})
            spec[parts[2]] = _parse_value(attrs[parts[2]], raw, key)
        else:
            raise ValueError(f"unknown config key {key!r}")
    if not modalities:
        raise ValueError("config defines no modalities (modality.<name>.dim = ...)")
    for name, spec in modalities.items():
        _check_required(ModalitySpec, spec, f"modality {name!r}")
    kwargs["modalities"] = [ModalitySpec(**spec) for spec in modalities.values()]
    _check_required(SynthConfig, kwargs, "config")
    return SynthConfig(**kwargs)


def _add_train_options(parser: argparse.ArgumentParser, names=_TRAIN_OPTIONS) -> None:
    """One flag per named TrainConfig option, default None (not given)."""
    for name in names:
        tp = _TRAIN_OPTIONS[name]
        flag = _FLAG_SPELLINGS.get(name, "--" + name.replace("_", "-"))
        if tp is bool:
            parser.add_argument(flag, dest=name, action="store_true", default=None)
        else:
            parser.add_argument(flag, dest=name, type=tp)


def _train_options_given(args) -> dict:
    return {k: v for k, v in vars(args).items() if k in _TRAIN_OPTIONS and v is not None}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmgc", description="multimodal attributed-graph clustering"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a synthetic dataset")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("diagnose", help="cross-modal correlation and outlier report")
    p.add_argument("--data", required=True, type=Path, help="manifest path")
    p.add_argument("--tau", type=float, default=OUTLIER_TAU)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("cluster", help="train and cluster a dataset")
    p.add_argument("--data", required=True, type=Path, help="manifest path")
    p.add_argument("--config", type=Path, help="key=value training options")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--k", type=int, help="cluster count override")
    p.add_argument(
        "--threads",
        type=int,
        help="thread budget for the k-means restarts, run in two groups of five on "
             "at most two threads, the node-filter column split, "
             "and, when BLAS is pinned to one thread, the margin loss's modality "
             "pairs and the scoring blocks of the neighborhood loss and of pruning "
             "(default: the CPU count; a budget above it only adds switching); "
             "results do not depend on it",
    )
    _add_train_options(p)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("spectra", help="filter frequency-response verification")
    p.add_argument("--data", required=True, type=Path, help="manifest path")
    _add_train_options(p, (*_option_types(DualFilterConfig), "seed"))
    p.add_argument("--t-max", dest="t_max", type=int, default=30)
    p.add_argument("--out", type=Path, default=Path("."),
                   help="directory for spectra.csv/.json (default: cwd)")
    p.set_defaults(func=_cmd_spectra)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--data", required=True, type=Path, help="manifest path")
    p.add_argument("--n-cap", dest="n_cap", type=int, default=30)
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck)

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
    if not (np.isfinite(args.tau) and args.tau > 0):  # before the correlations
        raise ValueError(f"tau must be finite and positive, got {args.tau}")
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


def _train_config(args) -> tuple[TrainConfig, int | None]:
    """The config file's options overridden by the flags given, and its clusters."""
    options: dict = {}
    clusters = None
    for key, raw in (parse_keyvalues(args.config) if args.config else {}).items():
        if key == "clusters":
            clusters = _parse_value(int, raw, key)
        elif key in _TRAIN_OPTIONS:
            options[key] = _parse_value(_TRAIN_OPTIONS[key], raw, key)
        else:
            raise ValueError(f"unknown config key {key!r}")
    options.update(_train_options_given(args))
    return TrainConfig(**options), clusters


def _cmd_cluster(args) -> int:
    cfg, config_clusters = _train_config(args)
    cfg.validate()  # before --out is created
    graph, manifest_clusters = load_dataset(args.data)
    k = args.k if args.k is not None else config_clusters
    if k is None:
        k = manifest_clusters
    if k is None:
        raise ValueError(
            "cluster count not given: pass --k, set clusters in the config, "
            "or record clusters in the manifest"
        )
    if not 1 <= k <= graph.n_nodes:
        raise ValueError(f"cluster count must lie in [1, {graph.n_nodes}], got {k}")

    budget = thread_budget(args.threads)
    if budget > 1 and not blas_pinned():
        print(f"note: the thread budget (--threads) is {budget}; set "
              "OPENBLAS_NUM_THREADS=1 (or OMP_NUM_THREADS=1 / MKL_NUM_THREADS=1): "
              "a multi-threaded BLAS competes with these threads for the cores, "
              "and the loss layers run on one thread until BLAS is pinned",
              file=sys.stderr)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = fit(graph, k, cfg, log_path=out / "epochs.jsonl", threads=budget)
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
            json.dump(scores, fh, indent=2)
            fh.write("\n")
        for name, score in scores.items():
            print(f"{name} {100.0 * score:.2f}%")
    else:
        print("no ground-truth labels; skipping metrics")
    return 0


def _cmd_spectra(args) -> int:
    if args.t_max < 1:  # before any filtering
        raise ValueError(f"t_max must be >= 1, got {args.t_max}")
    graph, _ = load_dataset(args.data)
    if graph.n_nodes > _DENSE_LIMIT:  # before any filtering
        raise ValueError(f"spectra is limited to n <= {_DENSE_LIMIT} nodes, "
                         f"got {graph.n_nodes}")
    cfg = TrainConfig(**_train_options_given(args))
    cfg.validate()  # before init_params draws from the seed
    params = init_params(
        [m.dim for m in graph.modalities], cfg.hidden_dim, cfg.seed
    )
    ops, cache = forward(graph, params, cfg)
    report = spectra_report(ops, cache.h, cache.s_list, cfg.filter_config(),
                            t_max=args.t_max)
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
    if not 1 <= k <= sub.n_nodes:
        raise ValueError(f"cluster count must lie in [1, {sub.n_nodes}] (--n-cap), got {k}")
    cfg = TrainConfig(seed=args.seed)
    cfg.validate()  # before loss_gradient_checks draws from the seed

    ok = True
    for title, report in (
        ("loss gradients", loss_gradient_checks(seed=args.seed)),
        ("end-to-end step gradient",
         end_to_end_gradient_check(sub, k, cfg, seed=args.seed)),
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
    threads = getattr(args, "threads", None)  # only cluster takes --threads
    if threads is not None and threads < 1:
        raise _fail(f"--threads must be >= 1, got {threads}")
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        raise _fail(str(exc)) from exc


if __name__ == "__main__":
    raise SystemExit(main())
