"""Compare two sets of benchmark runs, metric by metric and workload by workload.

Usage:
    python3 perfbench/compare.py PARENT_RUNS CHANGE_RUNS

Each argument is a directory of run records (run.py writes them to
perfbench/out/runs/) or a single record file. Runs are paired by seed where
both sides have it, otherwise in seed order. For each (workload, metric) the
table gives each side's median and quartiles, the ratio of the medians
(change / parent), and a verdict from `stats.verdict` with the bounds and
directions in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import bench_env
from stats import quartiles, verdict

ENV_KEYS = ("python", "numpy", "blas", "blas_threads", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def load(path: str) -> list[dict]:
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    return [json.loads(f.read_text()) for f in files]


def series(records: list[dict]) -> dict:
    """(workload, trace) -> metric -> [(seed, value)] in seed order."""
    out: dict = {}
    for rec in sorted(records, key=lambda r: r["seed"]):
        group = out.setdefault((rec["workload"], rec["trace"]), {})
        for name, metric in rec["metrics"].items():
            group.setdefault(name, []).append((rec["seed"], metric["value"]))
    return out


def paired(a: list[tuple], b: list[tuple]) -> tuple[list[float], list[float]]:
    b_by_seed = dict(b)
    if len(b_by_seed) == len(b) and all(seed in b_by_seed for seed, _ in a):
        return [v for _, v in a], [b_by_seed[seed] for seed, _ in a]
    n = min(len(a), len(b))
    return [v for _, v in a[:n]], [v for _, v in b[:n]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)

    spec = json.loads((bench_env.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(args.parent), load(args.change)
    if not parent or not change:
        print("no run records found", file=sys.stderr)
        return 1
    for key in ENV_KEYS:
        seen = {json.dumps(r["environment"].get(key), sort_keys=True) for r in parent + change}
        if len(seen) > 1:
            print(f"warning: runs differ in {key}: {', '.join(sorted(seen))}")

    a_series, b_series = series(parent), series(change)
    if min(len(parent), len(change)) < 10 * len(set(a_series) | set(b_series)):
        print("warning: a claim needs at least ten paired runs per workload")
    print(f"{'workload':<14} {'metric':<46} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'ratio':>7}  verdict")
    for group in sorted(set(a_series) & set(b_series)):
        workload, _ = group
        for name in a_series[group]:
            if name not in b_series[group] or name not in declared:
                continue
            a, b = paired(a_series[group][name], b_series[group][name])
            meta = declared[name]
            cells = []
            for values in (a, b):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.5g} [{q1:.4g}, {q3:.4g}]")
            am, bm = quartiles(a)[1], quartiles(b)[1]
            ratio = f"{bm / am:7.3f}" if am else "    n/a"
            result = verdict(a, b, meta["better"], meta.get("bound"))
            print(f"{workload:<14} {name:<46} {cells[0]:>34} {cells[1]:>34} {ratio}  "
                  f"{result} ({len(a)} pairs, {meta['unit']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
