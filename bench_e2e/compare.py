#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric.

    python3 bench_e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the results.jsonl that `run.py --out DIR` appends
to, one line per run. For every (workload, metric) present on both
sides the script prints each side's median and quartiles, the share of
paired runs the change wins, and a verdict under the rules of the
benchmark's README:

  improved    the change wins at least 9 of 10 pairs and the medians
              differ by more than the parent's interquartile range;
  regressed   the change's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json (per-layer
              metrics, which have no bound: the change loses at least
              9 of 10 pairs by more than the parent's spread);
  unresolved  the parent's own spread is wider than the bound, so a
              regression of that size could not be seen;
  unchanged   none of the above.

Runs pair up by (seed, order of appearance); ties count for neither
side. Exits 1 when any pair is regressed, 0 otherwise.
"""

import collections
import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent


def load_runs(directory):
    """{(workload, trace): [(seed, {metric: value}), ...]} in file order."""
    runs = collections.defaultdict(list)
    with open(pathlib.Path(directory) / "results.jsonl") as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            metrics = {name: m["value"]
                       for name, m in record["result"]["metrics"].items()}
            runs[(record["workload"], record["trace"])].append(
                (record["seed"], metrics))
    return runs


def pair_up(parent, change):
    """Pairs runs of equal seed, the k-th of a seed with the k-th."""
    by_seed = collections.defaultdict(list)
    for seed, metrics in change:
        by_seed[seed].append(metrics)
    pairs, used = [], collections.Counter()
    for seed, metrics in parent:
        if used[seed] < len(by_seed[seed]):
            pairs.append((metrics, by_seed[seed][used[seed]]))
            used[seed] += 1
    return pairs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, pairs, higher_better, bound):
    """One verdict string for the metric, see the module docstring."""
    sign = 1.0 if higher_better else -1.0
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    n = max(len(pairs), 1)
    iqr = p3 - p1
    gap = sign * (cmed - pmed)
    if wins / n >= 0.9 and gap > iqr:
        return "improved", wins / n
    if bound is None:
        if losses / n >= 0.9 and -gap > iqr:
            return "regressed", wins / n
        return "unchanged", wins / n
    scale = abs(pmed) if pmed else 1.0
    if -gap > bound * scale:
        return "regressed", wins / n
    if iqr > bound * scale:
        all_better = all(sign * (c - p) > 0 for c in change for p in parent)
        return ("unchanged" if all_better else "unresolved"), wins / n
    return "unchanged", wins / n


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load_runs(argv[1]), load_runs(argv[2])
    regressed = False
    print(f"{'workload':14} {'metric':34} {'parent q1/med/q3':>36} "
          f"{'change q1/med/q3':>36} {'wins':>5}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, _ = key
        pairs = pair_up(parent[key], change[key])
        names = sorted(set().union(*(m for _, m in parent[key])))
        for name in names:
            if name not in metrics:
                continue
            spec_m = metrics[name]
            p_values = [m[name] for _, m in parent[key] if name in m]
            c_values = [m[name] for _, m in change[key] if name in m]
            if not p_values or not c_values:
                continue
            paired = [(p[name], c[name]) for p, c in pairs
                      if name in p and name in c]
            result, win_share = verdict(
                p_values, c_values, paired, spec_m["better"] == "higher",
                spec_m.get("bound"))
            regressed |= result == "regressed"
            fmt = lambda v: "/".join(f"{x:.4g}" for x in quartiles(v))
            print(f"{workload:14} {name:34} {fmt(p_values):>36} "
                  f"{fmt(c_values):>36} {win_share:5.2f}  {result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
