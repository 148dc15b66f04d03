#!/usr/bin/env python3
"""Ablation sweep over the six training switches on one dataset.

Trains the full model plus one variant per disabled component and prints
a metric table.  Expects a dataset manifest (see run_synthetic.py or
`mmgc generate`); labels must be present for the metrics to mean anything.

    python3 scripts/ablation_sweep.py --data /tmp/demo/data/manifest.txt
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from pathlib import Path

from mmgc.cli import main as mmgc
from mmgc.trainer import TrainConfig

# the six switches, in TrainConfig's order: no-fdd, no-mod-loss, ..., no-hps
FLAGS = tuple(f.name.replace("_", "-") for f in dataclasses.fields(TrainConfig)
              if f.name.startswith("no_"))
METRICS = ("acc", "nmi", "f1", "ari", "cs")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", type=Path, required=True, help="manifest path")
    parser.add_argument("--out", type=Path, default=Path("ablation-sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=100)
    args = parser.parse_args()

    rows: list[tuple[str, dict]] = []
    for label, extra in [("full", [])] + [(f, [f"--{f}"]) for f in FLAGS]:
        out = args.out / label
        code = mmgc([
            "cluster", "--data", str(args.data), "--out", str(out),
            "--seed", str(args.seed), "--epochs", str(args.epochs), *extra,
        ])
        if code != 0:
            raise SystemExit(f"variant {label!r} failed with exit code {code}")
        scores = json.loads((out / "metrics.json").read_text())
        rows.append((label, scores))

    width = max(len(label) for label, _ in rows)
    header = "variant".ljust(width) + "".join(f"  {m:>6}" for m in METRICS)
    print(header)
    print("-" * len(header))
    for label, scores in rows:
        cells = "".join(f"  {100 * scores[m]:6.2f}" for m in METRICS)
        print(label.ljust(width) + cells)


if __name__ == "__main__":
    main()
