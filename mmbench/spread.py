#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 mmbench/spread.py --seeds 0-9 [--workloads planted-1k ...] [--trace 0]
                              [--out mmbench/baseline.json]

Runs one workload and seed after another, in the order given, from the
repository root.  For every metric it prints the median of the runs and
the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the bound in BENCHMARK.json.  A spread wider than a third of its bound
(``setup_s`` excepted) is marked, since two medians of such runs may not
agree within the bound.  ``--out`` writes every run's metrics and the
summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """The run's result line and the environment it printed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in SPEC[kind]}
    runs: dict[str, list[dict]] = {}
    summary: dict[str, dict] = {}
    env: dict = {}
    for workload in args.workloads:
        runs[workload] = []
        for seed in args.seeds:
            result, env = run_once(workload, seed, args.trace)
            runs[workload].append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        summary[workload] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            s = summarise(values)
            summary[workload][name] = s
            wide = (bound is not None and name != "setup_s" and s["spread"] is not None
                    and s["spread"] > bound / 3)
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"  {name:36s} median {s['median']:<12.6g} spread {spread:>6s}"
                  f"{'' if bound is None else f'  bound {bound}'}"
                  f"{'  WIDER THAN A THIRD OF ITS BOUND' if wide else ''}", flush=True)
    if args.out:
        env.pop("seed", None)
        args.out.write_text(json.dumps(
            {"env": env, "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
