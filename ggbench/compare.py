#!/usr/bin/env python3
"""Compares two sets of graphguard_bench results against BENCHMARK.json.

    python3 ggbench/compare.py BASE NEW

BASE and NEW are directories of <workload>.jsonl files (or single .jsonl
files) written by `run.py --save`; ggbench/baselines/ is the committed
BASE. For every workload in both sets and every end-to-end metric it
prints each side's median and quartiles over the --trace 0 runs and a
verdict:

  better      NEW wins at least nine tenths of the pairs (pairs matched by
              seed, ties counting for neither) and the medians differ by
              more than BASE's interquartile distance
  no-worse    NEW's median is not worse than BASE's by more than the bound
  worse       it is, and BASE's own spread is within the bound
  unresolved  fewer than ten seed-matched pairs; or BASE's spread
              (interquartile distance over median) is wider than the
              bound, and not every NEW run beats every BASE run

It then prints the tracing overhead (trace_overhead_frac) of the
--trace 1 runs of each side. Exits 1 when any verdict is "worse".
Standard library only.
"""
import json
import os
import statistics
import sys

MIN_PAIRS = 10  # choosing-metrics section 8: at least ten pairs


def load(path):
    """{workload: [record, ...]} from a directory of .jsonl files or one file."""
    files = ([os.path.join(path, name) for name in sorted(os.listdir(path))
              if name.endswith(".jsonl")] if os.path.isdir(path) else [path])
    records = {}
    for name in files:
        with open(name) as f:
            for line in f:
                if line.strip():
                    record = json.loads(line)
                    records.setdefault(record["workload"], []).append(record)
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(metric, base, new):
    """base, new: {seed: value}."""
    seeds = sorted(set(base) & set(new))
    if len(seeds) < MIN_PAIRS:
        return "unresolved"
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    b = sorted(base.values())
    n = sorted(new.values())
    b_q1, b_med, b_q3 = quartiles(b)
    _, n_med, _ = quartiles(n)

    def beats(x, y):
        return x < y if lower else x > y

    wins = sum(beats(new[s], base[s]) for s in seeds)
    if wins >= 0.9 * len(seeds) and abs(n_med - b_med) > b_q3 - b_q1:
        return "better"
    spread = (b_q3 - b_q1) / abs(b_med) if b_med else float("inf")
    if spread > bound:
        every = all(beats(x, y) for x in n for y in b)
        return "no-worse" if every else "unresolved"
    worse_by = ((n_med - b_med) if lower else (b_med - n_med)) / abs(b_med)
    return "worse" if worse_by > bound else "no-worse"


def values(records, trace, name):
    return {r["seed"]: r["metrics"][name]["value"] for r in records
            if r["trace"] == trace and name in r["metrics"]}


def main():
    if len(sys.argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in new:
            print(f"{workload}: missing from {'BASE' if workload not in base else 'NEW'}")
            continue
        print(f"{workload}")
        print(f"  {'metric':<12} {'base median [q1, q3]':>42} "
              f"{'new median [q1, q3]':>42}  verdict (bound)")
        for metric in spec["end_to_end"]:
            b = values(base[workload], False, metric["name"])
            n = values(new[workload], False, metric["name"])
            if not b or not n:
                continue
            cells = []
            for side in (b, n):
                q1, median, q3 = quartiles(sorted(side.values()))
                cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}] n={len(side)}")
            result = verdict(metric, b, n)
            worse |= result == "worse"
            print(f"  {metric['name']:<12} {cells[0]:>42} {cells[1]:>42}  "
                  f"{result} ({metric['bound']:g})")
        overhead = []
        for side in (base, new):
            traced = list(values(side[workload], True, "trace_overhead_frac").values())
            overhead.append(f"{statistics.median(traced):+.3f} (n={len(traced)})"
                            if traced else "no traced runs")
        print(f"  tracing overhead: base {overhead[0]}, new {overhead[1]}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
